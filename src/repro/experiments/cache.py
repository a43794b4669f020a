"""Content-addressed on-disk cache for grid cell results.

A grid cell is fully determined by its inputs — (design, workload,
dataset, :class:`SystemConfig`, :class:`WorkloadParams`, transaction and
thread counts) plus the ``REPRO_SCALE`` environment knob — and seeded
workloads make every cell deterministic, so its :class:`RunResult` can be
stored under a hash of those inputs and replayed on any later run.  The
key is the SHA-256 of the inputs' canonical JSON (see
:mod:`repro.experiments.serialize`) together with a digest of the
simulator's own code (:func:`code_digest`); changing any keyed input, or
any byte of ``src/repro``, yields a different key and therefore a miss.

Layout: ``<cache_dir>/<key[:2]>/<key>.json``, each file holding the key
inputs (for debuggability) next to the serialized result.  Writes go
through a temp file + :func:`os.replace` so concurrent writers can never
leave a torn entry, and corrupt/unreadable entries read as misses.
"""

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.system import RunResult
from repro.experiments.serialize import (
    config_to_dict,
    params_to_dict,
    run_result_from_dict,
    run_result_to_dict,
    stable_hash,
    strip_result_inert_encoding,
)


def source_digest(root: str) -> str:
    """SHA-256 over every ``*.py`` file under ``root``, sorted by path.

    Each file contributes its path relative to ``root`` and its bytes,
    both length-prefixed, so no two trees share a digest by accident.
    """
    paths = sorted(
        os.path.relpath(os.path.join(folder, name), root).replace(os.sep, "/")
        for folder, _dirs, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as handle:
            data = handle.read()
        for chunk in (path.encode(), data):
            digest.update(b"%d:" % len(chunk))
            digest.update(chunk)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """:func:`source_digest` of the ``repro`` package, once per process.

    Every cache key carries it, so a result cached by other simulator
    code — a fix, a refactor, the key schema, the stored format — is a
    miss, with nothing to remember to bump.
    """
    return source_digest(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Default location; override with --cache-dir / the REPRO_CACHE_DIR env.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(xdg, "morlog-repro", "grid")


def cell_key_fields(
    design: str,
    workload: str,
    dataset_name: str,
    config_dict: Dict[str, Any],
    params_dict: Dict[str, Any],
    n_transactions: int,
    n_threads: int,
    repro_scale: float,
    trace_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """The exact dict that is hashed into a cache key.

    Result-inert encoding fields (the codec-memo knobs — see
    :data:`repro.experiments.serialize.RESULT_INERT_ENCODING_FIELDS`) are
    dropped here: memoization cannot change a cell's result, so toggling
    it must map to the same key.

    ``trace_digest`` identifies the recorded trace a *replay* cell runs
    from (:meth:`repro.replay.StoreTrace.digest`); it joins the key only
    when set, so direct-run cells keep their historical keys, while any
    edit to a trace — content, metadata or container version — misses.
    """
    config_dict = strip_result_inert_encoding(config_dict)
    fields = {
        "version": code_digest(),
        "design": design,
        "workload": workload,
        "dataset": dataset_name,
        "config": config_dict,
        "params": params_dict,
        "n_transactions": n_transactions,
        "n_threads": n_threads,
        "repro_scale": repro_scale,
    }
    if trace_digest is not None:
        fields["trace_digest"] = trace_digest
    return fields


def cell_key(
    design: str,
    workload: str,
    dataset,
    config,
    params,
    n_transactions: int,
    n_threads: int,
    repro_scale: float,
) -> str:
    """Content hash of one grid cell's inputs (dataclass arguments)."""
    return stable_hash(
        cell_key_fields(
            design,
            workload,
            dataset.name,
            config_to_dict(config),
            params_to_dict(params),
            n_transactions,
            n_threads,
            repro_scale,
        )
    )


def traffic_key_fields(
    design: str,
    traffic_dict: Dict[str, Any],
    config_dict: Dict[str, Any],
    repro_scale: float,
) -> Dict[str, Any]:
    """Key inputs for one open-loop traffic cell (design × scenario).

    Carries :func:`code_digest` like the grid keys: a simulator change
    must invalidate cached traffic results just like cached grid
    results.  The ``kind`` marker keeps the two key families from ever
    colliding.
    """
    return {
        "version": code_digest(),
        "kind": "traffic",
        "design": design,
        "traffic": traffic_dict,
        "config": strip_result_inert_encoding(config_dict),
        "repro_scale": repro_scale,
    }


@dataclass
class CacheStats:
    """Hit/miss counters for one engine invocation."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


@dataclass
class PayloadCache:
    """Content-addressed store mapping keys to JSON payloads.

    The generic layer under :class:`ResultCache`: callers hand it any
    JSON-safe payload (the traffic engine stores TrafficResult dicts).
    A ``decode`` callable runs inside the error envelope, so an entry
    whose stored payload no longer decodes reads as a miss rather than
    an exception — the same forgiveness corrupt files get.
    """

    cache_dir: str = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def has(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (existence only — a
        torn entry still reads as a miss through :meth:`get_payload`)."""
        return os.path.isfile(self._path(key))

    def get_payload(self, key: str, decode=None) -> Optional[Any]:
        """The cached payload for ``key``, or None (counted hit/miss)."""
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
            value = payload["result"]
            if decode is not None:
                value = decode(value)
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put_payload(
        self, key: str, value: Any, key_fields: Optional[dict] = None
    ) -> None:
        """Store a JSON-safe payload atomically (tmp file + os.replace)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "key": key,
            "key_fields": key_fields,
            "result": value,
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-" + key[:8] + "-", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def __len__(self) -> int:
        if not os.path.isdir(self.cache_dir):
            return 0
        count = 0
        for _root, _dirs, files in os.walk(self.cache_dir):
            count += sum(1 for f in files if f.endswith(".json"))
        return count


@dataclass
class ResultCache(PayloadCache):
    """Content-addressed store mapping cell keys to RunResults."""

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (counted as hit/miss)."""
        return self.get_payload(key, decode=run_result_from_dict)

    def put(self, key: str, result: RunResult, key_fields: Optional[dict] = None) -> None:
        """Store ``result`` atomically (tmp file + os.replace)."""
        self.put_payload(key, run_result_to_dict(result), key_fields)
