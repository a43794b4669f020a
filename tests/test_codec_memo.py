"""Codec memoization is result-inert: memo on and off are bit-identical.

The memo layer (:mod:`repro.encoding.memo`) may only change simulation
wall-clock, never a single encoded bit, stat, trace event, cache key, or
recovery outcome.  These tests pin that guarantee at every level:
property tests over the codecs, hook-replay equality, whole-system runs,
grid cache keys, crash recovery, and the fault sweep.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.faultinject.sweep as sweep_mod
from repro.common.bitops import dirty_byte_mask
from repro.core.designs import make_system
from repro.encoding import CradeCodec, LogWriteContext, LruMemo, MemoConfig, SldeCodec
from repro.encoding.memo import DEFAULT_MEMO_ENTRIES
from repro.experiments.cache import cell_key_fields
from repro.experiments.parallel import resolve_cell
from repro.experiments.runner import ExperimentScale
from repro.faultinject.sweep import SweepOptions, run_sweep
from repro.workloads.base import DatasetSize, WorkloadParams, make_workload
from tests.conftest import tiny_config
from tests.test_crash_recovery import run_until_crash

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
masks = st.integers(min_value=0, max_value=0xFF)

#: A deliberately tiny memo so eviction paths are exercised too.
SMALL_MEMO = MemoConfig(enabled=True, entries=64)

#: The four logger families of the paper's evaluation.
DESIGNS = ("MorLog-SLDE", "FWB-CRADE", "Undo-CRADE", "Redo-CRADE")


def memo_off(config):
    return replace(config, encoding=replace(config.encoding, codec_memo=False))


class TestLruMemo:
    def test_bounded_eviction_is_lru(self):
        memo = LruMemo(maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes "a"
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert len(memo) == 2

    def test_stats_count_hits_and_misses(self):
        memo = LruMemo(maxsize=4)
        assert memo.get("k") is None
        memo.put("k", "v")
        assert memo.get("k") == "v"
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["maxsize"] == 4

    def test_none_value_rejected(self):
        with pytest.raises(ValueError):
            LruMemo(4).put("k", None)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            LruMemo(0)

    def test_config_off_makes_no_memo(self):
        assert MemoConfig(enabled=False).make_memo() is None
        memo = MemoConfig().make_memo()
        assert memo is not None and memo.maxsize == DEFAULT_MEMO_ENTRIES


class TestCodecEquivalence:
    """Memoized and unmemoized codecs return equal EncodedWords."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(words, words), min_size=1, max_size=12))
    def test_slde_encode_log_equal_and_roundtrips(self, pairs):
        plain = SldeCodec()
        memoized = SldeCodec(memo=SMALL_MEMO)
        for old, new in pairs:
            ctx = LogWriteContext(old_word=old, dirty_mask=dirty_byte_mask(old, new))
            expected = plain.encode_log(new, ctx)
            # Encode twice: the second call must be a cache hit with the
            # same result (EncodedWord equality covers method, payload,
            # bit counts, policy, dirty mask and silence).
            for _ in range(2):
                got = memoized.encode_log(new, ctx)
                assert got == expected
                assert got.total_bits == expected.total_bits
                if not got.silent:
                    assert memoized.decode(got, old) == new

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(words, words, st.booleans()), min_size=1, max_size=12))
    def test_slde_respects_allow_dldc_in_keys(self, triples):
        plain = SldeCodec()
        memoized = SldeCodec(memo=SMALL_MEMO)
        for old, new, allow in triples:
            ctx = LogWriteContext(
                old_word=old,
                dirty_mask=dirty_byte_mask(old, new),
                allow_dldc=allow,
            )
            assert memoized.encode_log(new, ctx) == plain.encode_log(new, ctx)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(words, min_size=1, max_size=12))
    def test_crade_equal_and_roundtrips(self, values):
        plain = CradeCodec()
        memoized = CradeCodec(memo=SMALL_MEMO)
        for w in values:
            expected = plain.encode(w)
            for _ in range(2):
                got = memoized.encode(w)
                assert got == expected
                assert memoized.decode(got) == w

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(words, words), min_size=1, max_size=10))
    def test_pair_encoding_equal(self, pairs):
        plain = SldeCodec()
        memoized = SldeCodec(memo=SMALL_MEMO)
        for undo, redo in pairs:
            mask = dirty_byte_mask(undo, redo)
            expected = plain.encode_undo_redo_pair(undo, redo, mask)
            for _ in range(2):
                assert memoized.encode_undo_redo_pair(undo, redo, mask) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(words, min_size=8, max_size=8), st.lists(words, min_size=8, max_size=8))
    def test_encode_line_matches_wordwise(self, new_words, old_words):
        memoized = CradeCodec(memo=SMALL_MEMO)
        line = memoized.encode_line(new_words, old_words)
        assert line == [memoized.encode(w) for w in new_words]

    def test_memo_hits_actually_happen(self):
        memoized = SldeCodec(memo=SMALL_MEMO)
        ctx = LogWriteContext(old_word=0x11, dirty_mask=0x01)
        memoized.encode_log(0x19, ctx)
        memoized.encode_log(0x19, ctx)
        assert memoized._log_memo.hits >= 1


class TestHookReplay:
    """The decision hook fires identically on cache hits."""

    def test_single_word_hook_replayed(self):
        codec = SldeCodec(memo=SMALL_MEMO)
        calls = []
        codec.decision_hook = lambda *args: calls.append(args)
        ctx = LogWriteContext(old_word=0x11, dirty_mask=0x01)
        codec.encode_log(0x19, ctx)
        codec.encode_log(0x19, ctx)  # cache hit
        assert len(calls) == 2
        assert calls[0] == calls[1]

    def test_pair_hooks_replayed_in_order(self):
        codec = SldeCodec(memo=SMALL_MEMO)
        calls = []
        codec.decision_hook = lambda *args: calls.append(args)
        undo, redo = 0x0123_4567_89AB_CDEF, 0x0123_4567_89AB_CDEE
        codec.encode_undo_redo_pair(undo, redo, 0x01)
        codec.encode_undo_redo_pair(undo, redo, 0x01)  # cache hit
        assert len(calls) == 4
        assert calls[:2] == calls[2:]

    def test_hook_stream_identical_memo_on_off(self):
        plain = SldeCodec()
        memoized = SldeCodec(memo=SMALL_MEMO)
        streams = ([], [])
        plain.decision_hook = lambda *args: streams[0].append(args)
        memoized.decision_hook = lambda *args: streams[1].append(args)
        inputs = [(0x11, 0x19), (0x11, 0x19), (0, 0), (2**63, 1)]
        for old, new in inputs:
            ctx = LogWriteContext(old_word=old, dirty_mask=dirty_byte_mask(old, new))
            plain.encode_log(new, ctx)
            memoized.encode_log(new, ctx)
        assert streams[0] == streams[1]


def run_once(design, workload_name, config, n_tx=40, threads=2):
    system = make_system(design, config)
    workload = make_workload(
        workload_name, WorkloadParams(initial_items=48, key_space=96, seed=11)
    )
    result = system.run(workload, n_tx, threads)
    return system, result


class TestSystemEquivalence:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_run_bit_identical_memo_on_off(self, design):
        on_sys, on = run_once(design, "hash", tiny_config())
        off_sys, off = run_once(design, "hash", memo_off(tiny_config()))
        assert on.stats == off.stats
        assert on.elapsed_ns == off.elapsed_ns
        assert on.transactions == off.transactions
        on_words = {
            addr: s.logical
            for addr, s in on_sys.controller.nvm.array.snapshot().items()
        }
        off_words = {
            addr: s.logical
            for addr, s in off_sys.controller.nvm.array.snapshot().items()
        }
        assert on_words == off_words

    def test_crash_recovery_outcome_unchanged(self, monkeypatch):
        import tests.test_crash_recovery as crash_mod

        on_sys, _tap, committed_on = run_until_crash(
            "MorLog-SLDE", "hash", seed=5, crash_at=40
        )
        on_state = on_sys.recover(verify_decode=True)

        original = make_system

        def memo_off_make_system(design, config=None, trace=None):
            return original(design, memo_off(config), trace=trace)

        monkeypatch.setattr(crash_mod, "make_system", memo_off_make_system)
        off_sys, _tap, committed_off = run_until_crash(
            "MorLog-SLDE", "hash", seed=5, crash_at=40
        )
        off_state = off_sys.recover(verify_decode=True)

        assert committed_on == committed_off
        assert on_state.committed_txids == off_state.committed_txids
        assert on_state.persisted_txids == off_state.persisted_txids
        assert on_state.redone_words == off_state.redone_words
        assert on_state.undone_words == off_state.undone_words

    def test_fault_sweep_verdicts_unchanged(self, monkeypatch):
        options = SweepOptions(workload="hash", transactions=4, threads=2,
                               seed=3, budget=12)
        on = run_sweep("morlog", options)

        original = sweep_mod.make_system

        def memo_off_make_system(design, config=None, trace=None):
            return original(design, memo_off(config), trace=trace)

        monkeypatch.setattr(sweep_mod, "make_system", memo_off_make_system)
        off = run_sweep("morlog", options)

        assert on.ok == off.ok
        assert on.total_events == off.total_events
        assert on.checked_events == off.checked_events
        assert on.per_point == off.per_point


class TestGridKeyStability:
    """Memo knobs are result-inert, so grid cache keys ignore them."""

    def test_cell_key_identical_memo_on_off(self):
        scale = ExperimentScale(micro_transactions=12, micro_threads=2)
        cfg = tiny_config()
        spec_on = resolve_cell(
            "MorLog-SLDE", "hash", DatasetSize.SMALL, scale, config=cfg
        )
        spec_off = resolve_cell(
            "MorLog-SLDE", "hash", DatasetSize.SMALL, scale, config=memo_off(cfg)
        )
        spec_big = resolve_cell(
            "MorLog-SLDE", "hash", DatasetSize.SMALL, scale,
            config=replace(
                cfg, encoding=replace(cfg.encoding, codec_memo_entries=123)
            ),
        )
        assert spec_on.key() == spec_off.key() == spec_big.key()

    def test_key_fields_strip_only_memo_knobs(self):
        spec = resolve_cell("MorLog-SLDE", "hash", DatasetSize.SMALL,
                            ExperimentScale(), config=tiny_config())
        fields = spec.key_fields()
        encoding = fields["config"]["encoding"]
        assert "codec_memo" not in encoding
        assert "codec_memo_entries" not in encoding
        # Result-bearing fields survive.
        assert encoding["log_codec"] == "slde"
        # The spec's own config_dict keeps full fidelity for workers.
        assert "codec_memo" in spec.config_dict["encoding"]

    def test_key_fields_tolerate_pre_knob_configs(self):
        # Config dicts from the era before the memo knobs pass through
        # the stripping untouched (the key still differs across
        # simulator code changes, by design).
        legacy = {"encoding": {"log_codec": "slde"}}
        fields = cell_key_fields(
            "d", "w", "SMALL", legacy, {}, 1, 1, 1.0
        )
        assert fields["config"] == legacy
