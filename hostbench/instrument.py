"""Outside-in instrumentation of the simulator's public entry points.

Nothing here installs a hook inside ``src/``: every probe replaces a
class or module attribute from the outside and :meth:`Patcher.restore`
puts the original back.  Two instruments share that mechanism:

- :class:`HostProbe`, installed on every run, times machine set-up
  (``System`` construction up to the machine's first ``begin_tx``), each
  transaction (``begin_tx`` entry to ``end_tx`` return) and the crash
  sweep's crash-point handling, and keeps each machine's stats group so
  simulated counts can be read after a pass.
- :class:`SpanRecorder`, installed only on traced passes, records a span
  (name, start, end, parent, operation id) around every entry point in
  :data:`layers.LAYERS` and accumulates per-layer self time, which is a
  span's duration minus the time its child spans cover.  Self times
  therefore include the wrappers' own overhead.
"""

import contextlib
import importlib
import inspect
import json
import pkgutil
import sys
import time
import weakref
from collections import defaultdict

from layers import LAYERS, ROOT_LAYER, SUBCLASS_PACKAGES

_clock = time.perf_counter


class Patcher:
    """Replaces attributes and remembers the originals for restore()."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _resolve(target):
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def _import_subclass_packages():
    for package_name in SUBCLASS_PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module("%s.%s" % (package_name, info.name))


def _class_and_subclasses(base):
    seen, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def method_definitions(base, names):
    """(class, name, function) for each own definition of ``names``."""
    for cls in _class_and_subclasses(base):
        for name in names:
            func = vars(cls).get(name)
            if inspect.isfunction(func):
                yield cls, name, func


def function_bindings(func):
    """(module, attribute) for every ``repro`` module binding ``func``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                yield module, attr


class HostProbe:
    """Set-up and per-transaction host timing, plus simulated counts.

    Everything covers the current pass (see :meth:`start_pass`):
    ``setup_s``, ``crash_point_s``, ``tx_seconds`` (one entry per
    transaction, excluding the crash points a fault sweep handles inside
    it) and ``machines``.
    """

    COUNT_KEYS = {
        "core.transactions": ("transactions",),
        "core.stores": ("stores",),
        "nvm.data_writes": ("data_writes",),
        "nvm.log_writes": ("log_writes",),
        "logging_hw.log_bits": ("log_bits", "commit_bits"),
        "logging_hw.overflow_scans": ("log_overflow_scans",),
    }

    def __init__(self):
        self.tx_seconds = []
        self.setup_s = 0.0
        self.crash_point_s = 0.0
        self.machines = []
        self.nvm_modules = []
        self._keep_modules = False
        self._built = weakref.WeakKeyDictionary()
        self._open = {}

    def start_pass(self, keep_modules=False):
        """Reset per-pass state.  ``keep_modules`` holds each machine's
        NVM module (and so its memory) until the next pass, for
        :meth:`memo_hit_ratio`."""
        self.tx_seconds = []
        self.setup_s = 0.0
        self.crash_point_s = 0.0
        self.machines = []
        self.nvm_modules = []
        self._keep_modules = keep_modules
        self._open.clear()

    def counts(self):
        """Exact simulated counts summed over the pass's machines."""
        return {
            metric: int(sum(
                stats.get(key) for stats in self.machines for key in keys))
            for metric, keys in self.COUNT_KEYS.items()
        }

    def memo_hit_ratio(self):
        hits = misses = 0
        for module in self.nvm_modules:
            for counters in module.memo_stats().values():
                hits += counters["hits"]
                misses += counters["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    def install(self, patcher):
        from repro.core.system import System
        from repro.faultinject.plan import CrashPlan

        probe = self
        built = self._built
        opened = self._open
        init, begin_tx, end_tx = System.__init__, System.begin_tx, System.end_tx
        fire = CrashPlan.fire

        def probe_init(system, *args, **kwargs):
            if system not in built:
                built[system] = _clock()
            init(system, *args, **kwargs)

        def probe_begin_tx(system, core, *args, **kwargs):
            now = _clock()
            born = built.pop(system, None)
            if born is not None:
                probe.setup_s += now - born
                probe.machines.append(system.stats)
                if probe._keep_modules:
                    probe.nvm_modules.append(system.controller.nvm)
            opened[(id(system), core)] = (now, probe.crash_point_s)
            return begin_tx(system, core, *args, **kwargs)

        def probe_end_tx(system, core, *args, **kwargs):
            result = end_tx(system, core, *args, **kwargs)
            started = opened.pop((id(system), core), None)
            if started is not None:
                start, handled = started
                probe.tx_seconds.append(
                    _clock() - start - (probe.crash_point_s - handled))
            return result

        def probe_fire(plan, *args, **kwargs):
            start = _clock()
            try:
                return fire(plan, *args, **kwargs)
            finally:
                probe.crash_point_s += _clock() - start

        patcher.replace(System, "__init__", probe_init)
        patcher.replace(System, "begin_tx", probe_begin_tx)
        patcher.replace(System, "end_tx", probe_end_tx)
        patcher.replace(CrashPlan, "fire", probe_fire)


class SpanRecorder:
    """Spans around every layer entry point, with per-layer self time.

    Spans live in memory and :meth:`write` saves them once, at the end
    of the run.  Past ``max_spans`` a span still counts towards its
    layer's self time and calls but is not kept (``dropped`` counts
    them).  A call whose parent span has the same name (a subclass
    calling ``super()``) is folded into its parent.
    """

    def __init__(self, max_spans=50_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.op = 0
        self._stack = []
        self._next_id = 0

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, 0.0, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[2]
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (frame[0], frame[3], self.op, frame[1], start, end))
        else:
            self.dropped += 1

    def exclude(self, seconds):
        """Keep ``seconds`` of the benchmark's own work (calibration) out
        of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    @contextlib.contextmanager
    def operation(self, op):
        """The root span of one benchmark operation (a pass)."""
        self.op = op
        frame = self._enter(ROOT_LAYER)
        start = _clock()
        try:
            yield
        finally:
            self._exit(frame, ROOT_LAYER, start, _clock())

    def wrap(self, layer, name, func):
        recorder = self
        stack = self._stack
        wrap_body = layer == "workloads" and name.endswith(".transaction")

        def span(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return func(*args, **kwargs)
            frame = recorder._enter(name)
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._exit(frame, layer, start, _clock())
            if wrap_body and callable(result):
                return recorder.wrap(layer, "workloads.body", result)
            return result

        span.__wrapped__ = func
        return span

    def install(self, patcher):
        _import_subclass_packages()
        for layer, entries in LAYERS.items():
            for kind, target, names in entries:
                try:
                    obj = _resolve(target)
                except (ImportError, AttributeError):
                    continue
                if kind == "method":
                    for cls, name, func in list(method_definitions(obj, names)):
                        span_name = "%s.%s" % (layer, name)
                        patcher.replace(
                            cls, name, self.wrap(layer, span_name, func))
                else:
                    span_name = "%s.%s" % (layer, obj.__name__)
                    wrapper = self.wrap(layer, span_name, obj)
                    for module, attr in list(function_bindings(obj)):
                        patcher.replace(module, attr, wrapper)

    def write(self, path):
        """Save every kept span as JSON (one list per field)."""
        fields = ("id", "parent", "op", "name", "start", "end")
        columns = {f: [s[i] for s in self.spans] for i, f in enumerate(fields)}
        with open(path, "w") as handle:
            json.dump({"dropped": self.dropped, "spans": columns}, handle)

