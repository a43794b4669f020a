"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor and
then runs any number of identical *passes*.  A pass runs each unit of
work through ``timer.call`` (a :class:`calibrate.PassTimer`) and returns a
:class:`PassOutcome`: the simulated results it produced (as JSON-safe
dicts, for the digest), the output checks it evaluated, and any extra
per-pass figures.  A failed check is reported, never raised.

The seed reaches the simulator only through ``WorkloadParams.seed``,
``SweepOptions.seed`` and ``TrafficConfig.seed``.  Simulated arrival
processes ("open" and "closed" loop) are properties of the simulated
workload; on the host every pass runs on one thread, one operation after
another.
"""

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.designs import make_system
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.runner import default_config
from repro.experiments.serialize import run_result_to_dict
from repro.faultinject import sweep
from repro.replay import container, recorder, replayer
from repro.traffic import engine
from repro.workloads.base import DatasetSize, WorkloadParams


@dataclass
class PassOutcome:
    results: List[dict]
    checks: List[Tuple[str, bool]]
    extras: Dict[str, float] = field(default_factory=dict)


#: Derived seeds per benchmark seed (``sub_seeds``); a pass that runs
#: out of them fails its work-target check.
MAX_INPUTS = 1000


def sub_seeds(seed, count):
    """``count`` distinct simulator seeds derived from one benchmark seed,
    so one pass averages over several inputs; seeds never overlap
    between benchmark seeds."""
    return [seed * 1000 + index for index in range(count)]


class TxHeavy:
    """Transaction-dominated grid cells through ``run_cells(jobs=1)``: a
    cold pass into a fresh ``ResultCache``, one cell per call so each is
    timed between its own calibration chunks, then a warm rerun of all
    cells in one call."""

    name = "tx_heavy"
    #: (design, workload, transactions).  CoW-Page runs fewer: each of
    #: its transactions copies whole pages, ~10x the host time of the
    #: others, and it would otherwise dominate the pass.
    CELLS = (
        ("MorLog-DP", "hash", 600),
        ("Undo-CRADE", "btree", 480),
        ("FWB-CRADE", "rbtree", 480),
        ("CoW-Page", "hash", 80),
    )
    THREADS = 2

    def __init__(self, seed, workdir, cells=CELLS):
        self.workdir = workdir
        params = WorkloadParams(initial_items=256, key_space=1024, seed=seed)
        self.specs = [
            parallel.resolve_cell(
                design, workload, DatasetSize.SMALL, params=params,
                n_transactions=transactions, n_threads=self.THREADS,
            )
            for design, workload, transactions in cells
        ]

    def run_pass(self, timer):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            cache = ResultCache(cache_dir=cache_dir)
            cold = []
            for spec in self.specs:
                results, _report = timer.call(
                    parallel.run_cells, [spec], jobs=1, cache=cache)
                cold.extend(results)
            warm, warm_report = timer.call(
                parallel.run_cells, self.specs, jobs=1, cache=cache)
            warm_s = timer.last_s
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cold_dicts = [run_result_to_dict(r) for r in cold]
        return PassOutcome(
            results=cold_dicts,
            checks=[
                ("warm pass is all cache hits",
                 warm_report.hits == len(self.specs)),
                ("warm results bit-identical to cold",
                 [run_result_to_dict(r) for r in warm] == cold_dicts),
            ],
            extras={"experiments.cache_hits": warm_report.hits,
                    "experiments.warm_s": warm_s},
        )


class SetupReplay:
    """Record populated hash stores with a dozen transactions each,
    round-trip each trace through a file, replay it on several designs."""

    name = "setup_replay"
    RECORD_DESIGN = "MorLog-SLDE"
    REPLAY_DESIGNS = ("MorLog-SLDE", "Undo-CRADE", "FWB-CRADE", "MorLog-DP")

    def __init__(self, seed, workdir, inputs=16, items=512, transactions=12):
        self.workdir = workdir
        self.params = [
            WorkloadParams(
                initial_items=items, key_space=2 * items, seed=record_seed)
            for record_seed in sub_seeds(seed, inputs)
        ]
        self.transactions = transactions

    def run_pass(self, timer):
        results, checks = [], []
        for params in self.params:
            outcome = timer.call(self._record_and_replay, params)
            results.extend(outcome.results)
            checks.extend(outcome.checks)
        return PassOutcome(results=results, checks=checks)

    def _record_and_replay(self, params):
        trace, recorded, _system = recorder.record_trace(
            self.RECORD_DESIGN, "hash", params=params,
            n_transactions=self.transactions, n_threads=2,
        )
        del _system
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=self.workdir)
        try:
            path = os.path.join(trace_dir, "trace.mltr")
            saved_digest = container.save_trace(path, trace)
            loaded = container.load_trace(path)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        replays = [
            replayer.replay_trace(make_system(design, default_config()), loaded)
            for design in self.REPLAY_DESIGNS
        ]
        same_design = replays[self.REPLAY_DESIGNS.index(self.RECORD_DESIGN)]
        label = "seed %d" % params.seed
        return PassOutcome(
            results=[run_result_to_dict(r) for r in [recorded] + replays],
            checks=[
                ("%s: replay on the recording design equals the recorded run"
                 % label, same_design == recorded),
                ("%s: loaded trace digest verifies" % label,
                 loaded.digest() == saved_digest == trace.digest()),
            ],
        )


class CrashSweep:
    """Exhaustive crash-point sweeps, with a low force-write-back
    interval so scan and truncate crash points are reached.

    A pass covers a fixed amount of work, not a fixed number of inputs:
    it sweeps the designs on derived seeds, one seed after another,
    until ``crash_points`` crash points have been checked.  How many
    crash points one seed's transactions reach varies by ~20%, so a
    fixed count of inputs would make a pass's work depend on the seed.
    """

    name = "crash_sweep"
    DESIGNS = ("MorLog-DP", "Undo-CRADE", "InCLL-CRADE")
    FWB_INTERVAL_CYCLES = 300

    def __init__(self, seed, workdir, crash_points=6000, transactions=10):
        self.seed = seed
        self.crash_points = crash_points
        self.transactions = transactions

    def run_pass(self, timer):
        results, checks, reached = [], [], 0
        for sweep_seed in sub_seeds(self.seed, MAX_INPUTS):
            options = sweep.SweepOptions(
                workload="hash", transactions=self.transactions,
                seed=sweep_seed, fwb_interval_cycles=self.FWB_INTERVAL_CYCLES,
            )
            for design in self.DESIGNS:
                result = timer.call(sweep.run_sweep, design, options)
                label = "%s seed %d" % (design, options.seed)
                checks.append(("%s: sweep ok" % label, result.ok))
                checks.append(("%s: every crash point checked" % label,
                               result.checked_events == result.total_events))
                results.append({
                    "design": result.design,
                    "workload": result.workload,
                    "total_events": result.total_events,
                    "checked_events": result.checked_events,
                    "per_point": result.per_point,
                    "counterexample": (
                        None if result.ok else result.counterexample.format()),
                })
                reached += result.total_events
                if reached >= self.crash_points:
                    break
            if reached >= self.crash_points:
                break
        checks.append(("pass reaches its crash points",
                       reached >= self.crash_points))
        return PassOutcome(
            results=results,
            checks=checks,
            extras={"faultinject.crash_points": reached},
        )


class TrafficMix:
    """Open-loop MorLog-DP traffic on the default YCSB/TPC-C/Echo blend
    with Zipf tenants, below and above the overload knee.

    64 tenants keep one seed's tenant table from deciding the blend; a
    queue of 4 per core makes the high load shed within a few dozen
    arrivals.  A pass covers a fixed amount of work: it runs both loads
    on derived seeds, one seed after another, until ``stores`` simulated
    stores have been made.  Each arrival draws its transaction type, and
    a TPC-C transaction makes many times the stores of a YCSB one, so a
    fixed number of arrivals would make a pass's work depend on the seed.
    """

    name = "traffic_mix"
    DESIGN = "MorLog-DP"
    LOADS = (300_000.0, 3_000_000.0)

    def __init__(self, seed, workdir, stores=18_000, arrivals=20):
        self.seed = seed
        self.stores = stores
        self.arrivals = arrivals

    def run_pass(self, timer):
        results, checks, stores = [], [], 0
        for traffic_seed in sub_seeds(self.seed, MAX_INPUTS):
            for load in self.LOADS:
                config = engine.TrafficConfig(
                    offered_tx_per_s=load, arrivals=self.arrivals,
                    seed=traffic_seed, n_tenants=64, queue_capacity=4)
                result, system = timer.call(
                    engine.run_traffic_system, self.DESIGN, config)
                stores += int(system.stats.get("stores"))
                del system
                label = "load %g seed %d" % (load, traffic_seed)
                checks.append(("%s: admitted + dropped == arrivals" % label,
                               result.admitted + result.dropped
                               == result.arrivals))
                checks.append(("%s: completed == admitted" % label,
                               result.completed == result.admitted))
                checks.append(("%s: no crash" % label, not result.crashed))
                results.append(result.to_dict())
                if stores >= self.stores:
                    break
            if stores >= self.stores:
                break
        checks.append(("pass reaches its stores", stores >= self.stores))
        return PassOutcome(
            results=results,
            checks=checks,
            extras={"traffic.dropped": sum(r["dropped"] for r in results)},
        )


WORKLOADS = {cls.name: cls for cls in (TxHeavy, SetupReplay, CrashSweep, TrafficMix)}
