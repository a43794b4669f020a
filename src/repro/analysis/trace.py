"""Store-stream trace collection (the paper's PIN instrumentation).

The motivation studies (Figures 3 and 5, Table II) monitor the writes
inside transactions.  :class:`TraceCollector` subscribes its
:meth:`~TraceCollector.on_tx_store` to a system's ``tx-store`` topic and
records, per thread:

- the word-granularity write-distance stream (writes between two writes to
  the same address, ``First Write`` for the first touch);
- clean/dirty byte counts per store;
- which DLDC pattern (if any) the dirty bytes of each store compress to.

:func:`collect_stores` runs a workload under a collector (Figures 3 and
5); :func:`dldc_pattern_census` averages Table II over workloads.
"""

from collections import OrderedDict
from typing import Dict, Optional

from repro.common.bitops import WORD_BYTES, dirty_byte_mask, select_bytes
from repro.common.config import SystemConfig
from repro.common.stats import Histogram
from repro.core.designs import make_system
from repro.encoding.dldc import PATTERN_NAMES, dldc_compress_pattern
from repro.workloads.base import WorkloadParams, make_workload


class TraceCollector:
    """Aggregates per-store measurements across a run."""

    def __init__(self, track_patterns: bool = True) -> None:
        self.distance = Histogram()
        self.first_writes = 0
        self.total_writes = 0
        self.clean_bytes = 0
        self.dirty_bytes = 0
        self.silent_stores = 0
        self.rewrites_in_tx = 0
        self._last_seen: Dict[int, Dict[int, int]] = {}
        self._write_counter: Dict[int, int] = {}
        self._tx_words: Dict[int, set] = {}
        self._tx_ids: Dict[int, int] = {}
        self.track_patterns = track_patterns
        self.pattern_counts: "OrderedDict[str, int]" = OrderedDict(
            (name, 0) for name in PATTERN_NAMES.values()
        )
        self.pattern_counts["uncompressed"] = 0
        self.pattern_dirty_bytes: "OrderedDict[str, int]" = OrderedDict(
            (name, 0) for name in self.pattern_counts
        )

    # ------------------------------------------------------------------
    # tx-store subscriber
    # ------------------------------------------------------------------

    def on_tx_store(self, tid: int, txid: int, addr: int, old: int, new: int) -> None:
        self.total_writes += 1

        # Write distance (Figure 3), per-thread store stream.
        counter = self._write_counter.get(tid, 0)
        seen = self._last_seen.setdefault(tid, {})
        last = seen.get(addr)
        if last is None:
            self.first_writes += 1
        else:
            self.distance.observe(counter - last - 1)
        seen[addr] = counter
        self._write_counter[tid] = counter + 1

        # Same-transaction rewrites (CONSEQUENCE 1's coalescing potential).
        if self._tx_ids.get(tid) != txid:
            self._tx_ids[tid] = txid
            self._tx_words[tid] = set()
        tx_words = self._tx_words[tid]
        if addr in tx_words:
            self.rewrites_in_tx += 1
        else:
            tx_words.add(addr)

        # Clean bytes (Figure 5).
        mask = dirty_byte_mask(old, new)
        dirty = bin(mask).count("1")
        self.dirty_bytes += dirty
        self.clean_bytes += WORD_BYTES - dirty
        if mask == 0:
            self.silent_stores += 1
            return

        # DLDC pattern census (Table II).
        if self.track_patterns:
            dirty_data = select_bytes(new, mask)
            match = dldc_compress_pattern(dirty_data)
            if match is not None and match[2] + 3 < 8 * len(dirty_data):
                name = PATTERN_NAMES[match[0]]
            else:
                name = "uncompressed"
            self.pattern_counts[name] += 1
            self.pattern_dirty_bytes[name] += len(dirty_data)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def clean_byte_fraction(self) -> float:
        total = self.clean_bytes + self.dirty_bytes
        return self.clean_bytes / total if total else 0.0

    @property
    def rewrite_fraction(self) -> float:
        """Fraction of stores hitting a word already written in the tx."""
        return self.rewrites_in_tx / self.total_writes if self.total_writes else 0.0

    def distance_distribution(self) -> "OrderedDict[str, float]":
        """Figure 3's categories, including First Write, as fractions."""
        out: "OrderedDict[str, float]" = OrderedDict()
        total = self.total_writes or 1
        out["First Write"] = self.first_writes / total
        for label, count in self.distance.counts().items():
            out[label] = count / total
        return out

    def pattern_fractions(self) -> "OrderedDict[str, float]":
        """Fraction of dirty (non-silent) stores compressed per pattern."""
        total = sum(self.pattern_counts.values()) or 1
        return OrderedDict(
            (name, count / total) for name, count in self.pattern_counts.items()
        )


def collect_stores(
    workload_name: str,
    n_transactions: int,
    n_threads: int,
    params: Optional[WorkloadParams] = None,
    config: Optional[SystemConfig] = None,
    track_patterns: bool = False,
) -> TraceCollector:
    """Run a workload with a collector subscribed to every store.

    Figures 3 and 5 read its write distances and clean bytes.  The
    measurement is design-independent (it observes the raw store
    stream), so any design works; we use the baseline.
    """
    system = make_system("FWB-CRADE", config)
    collector = TraceCollector(track_patterns=track_patterns)
    system.bus.subscribe("tx-store", collector.on_tx_store)
    system.run(make_workload(workload_name, params), n_transactions, n_threads)
    return collector


def dldc_pattern_census(
    workload_names,
    n_transactions: int = 200,
    n_threads: int = 4,
    params: Optional[WorkloadParams] = None,
    config: Optional[SystemConfig] = None,
) -> "OrderedDict[str, float]":
    """Table II: average per-pattern fractions of dirty log data.

    Mirrors Table II's last column ("percentage of dirty log data that can
    be compressed with the given pattern", averaged over applications).
    """
    totals: "OrderedDict[str, float]" = OrderedDict()
    n_workloads = 0
    for name in workload_names:
        collector = collect_stores(
            name, n_transactions, n_threads, params, config, track_patterns=True
        )
        for pattern, fraction in collector.pattern_fractions().items():
            totals[pattern] = totals.get(pattern, 0.0) + fraction
        n_workloads += 1
    if n_workloads == 0:
        raise ValueError("no workloads given")
    return OrderedDict(
        (pattern, value / n_workloads) for pattern, value in totals.items()
    )
