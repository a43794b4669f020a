"""The per-System event bus: topic contract and subscriptions that
survive ``reset_machine``.

The reuse tests subscribe a consumer once, run the same workload twice
on one machine and require the second run's observations to equal a
single run's on a fresh machine: a subscription the rebuild dropped
would observe nothing the second time.
"""

from collections import Counter

import pytest

from repro.analysis.trace import TraceCollector
from repro.analysis.walcheck import WalChecker
from repro.core.designs import make_system
from repro.core.system import CrashInjected, TX_CRASH_POINTS, at_tx_crash_points
from repro.replay.recorder import TraceRecorder
from repro.trace.bus import TOPICS, EventBus, TraceBus, TraceConfig
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config

PARAMS = WorkloadParams(initial_items=48, key_space=96, seed=4)
N_TX = 50


class TestContract:
    def test_unknown_topic_raises(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown topic"):
            bus.subscribe("tx-stor", print)
        with pytest.raises(ValueError, match="unknown topic"):
            bus.topic("no-such-topic")

    def test_every_topic_starts_empty_and_falsy(self):
        bus = EventBus()
        for name in TOPICS:
            assert not bus.topic(name)

    def test_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe("tx-dispatch", lambda core: calls.append(("a", core)))
        bus.subscribe("tx-dispatch", lambda core: calls.append(("b", core)))
        bus.topic("tx-dispatch")(3)
        assert calls == [("a", 3), ("b", 3)]

    def test_unsubscribe_removes_one_subscriber(self):
        bus = EventBus()
        calls = []
        first = bus.subscribe("op-load", lambda addr: calls.append(("a", addr)))
        bus.subscribe("op-load", lambda addr: calls.append(("b", addr)))
        bus.unsubscribe("op-load", first)
        bus.topic("op-load")(8)
        assert calls == [("b", 8)]

    def test_subscribed_context_unsubscribes_on_error(self):
        bus = EventBus()
        with pytest.raises(RuntimeError):
            with bus.subscribed({"op-load": print, "op-store": print}):
                assert bus.topic("op-load") and bus.topic("op-store")
                raise RuntimeError()
        assert not bus.topic("op-load") and not bus.topic("op-store")

    def test_crash_point_subscriber_exception_propagates(self):
        system = make_system("MorLog-DP", tiny_config())
        workload = make_workload("hash", PARAMS)
        workload.setup(system, 1)
        system.reset_measurement()
        seen = []

        def power_cut():
            seen.append(1)
            raise CrashInjected()

        system.bus.subscribe("crash-point", at_tx_crash_points(power_cut))
        with pytest.raises(CrashInjected):
            system.run_transaction(0, workload.transaction(0))
        assert seen == [1]
        assert system.current_tx[0] is None

    def test_parts_share_the_system_bus(self):
        system = make_system("MorLog-SLDE", tiny_config(distributed_logs=True))
        bus = system.bus
        assert system.controller.bus is bus
        assert system.controller.nvm.bus is bus
        assert system.logger.controller.bus is bus
        for region in system.log_region.regions:
            assert region.controller.bus is bus


def _counting_crash_subscriber(system):
    counts = Counter()

    def subscriber(point, **_detail):
        counts[point] += 1

    system.bus.subscribe("crash-point", subscriber)
    return counts


def _subscribed_ring(system):
    ring = TraceBus(TraceConfig(enabled=True, capacity=0))
    system.bus.subscribe("trace-event", ring.emit)
    return ring


def _subscribed(make):
    def attach(system):
        consumer = make()
        system.bus.subscribe_all(consumer.subscriptions())
        return consumer

    return attach


def _collector(system):
    collector = TraceCollector(track_patterns=False)
    system.bus.subscribe("tx-store", collector.on_tx_store)
    return collector


#: consumer kind -> (attach(system) -> consumer, observe(consumer)).
#: Observations are dicts of counters or of record lists; a run's share
#: is the difference between two observations.
CONSUMERS = {
    "wal-checker": (
        _subscribed(WalChecker),
        lambda c: {"checked_writes": c.checked_writes,
                   "violations": len(c.violations)},
    ),
    "trace-collector": (
        _collector,
        lambda c: {"total_writes": c.total_writes,
                   "clean_bytes": c.clean_bytes,
                   "dirty_bytes": c.dirty_bytes,
                   "silent_stores": c.silent_stores},
    ),
    "trace-recorder": (
        _subscribed(TraceRecorder),
        lambda c: {"setup": list(zip(c.setup_addr, c.setup_val)),
                   "ops": list(zip(c.op_kind, c.op_addr, c.op_val)),
                   "pairs": list(zip(c.pair_old, c.pair_new)),
                   "cores": list(c.tx_core)},
    ),
    "trace-ring": (
        _subscribed_ring,
        lambda ring: {"events": list(ring.events)},
    ),
    "crash-counter": (
        _counting_crash_subscriber,
        lambda counts: dict(counts),
    ),
}


def _share(before, after):
    """What ``after`` observed beyond ``before``."""
    share = {}
    for key, value in after.items():
        if isinstance(value, list):
            share[key] = value[len(before.get(key, [])):]
        else:
            share[key] = value - before.get(key, 0)
    return share


def _run(system):
    system.run(make_workload("hash", PARAMS), N_TX, 2)


def _machine():
    # Frequent force-write-back scans put in-place data writes (the WAL
    # checker's subject) inside a short run.
    return make_system("MorLog-DP", tiny_config(fwb_interval_cycles=2_000))


@pytest.mark.parametrize("kind", sorted(CONSUMERS))
def test_subscription_survives_machine_reuse(kind):
    attach, observe = CONSUMERS[kind]
    fresh_system = _machine()
    fresh = attach(fresh_system)
    _run(fresh_system)
    expected = observe(fresh)
    assert any(expected.values()), "the consumer observed nothing"

    system = _machine()
    consumer = attach(system)
    _run(system)
    first = observe(consumer)
    _run(system)
    second = _share(first, observe(consumer))
    assert second == expected


def test_counting_subscriber_sees_tx_crash_points():
    system = _machine()
    counts = _counting_crash_subscriber(system)
    _run(system)
    assert set(TX_CRASH_POINTS) & set(counts)
    assert counts["tx-commit"] == N_TX
