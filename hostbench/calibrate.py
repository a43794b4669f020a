"""Host-speed calibration: timings in reference-host seconds.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes (other tenants, frequency changes), and CPU time
drifts with it, so neither wall nor CPU time of one unit of work
repeats between runs.  The benchmark therefore runs a fixed
calibration chunk, which owns its code and does not touch the
simulator, before and after every timed unit of work, and scales the
unit's time by ``REFERENCE_S`` over the mean of the two neighbouring
chunks.  A scaled time reads as the seconds the unit would take on a
host that runs one chunk in ``REFERENCE_S``; it still moves one for
one with a change to the simulator's own speed.
"""

import time

import numpy

_clock = time.perf_counter

#: Seconds one calibration chunk takes on the reference host (a quiet
#: core of a 2.x GHz Xeon VM with Python 3.11).
REFERENCE_S = 0.0125
CHUNK_ITERATIONS = 20_000


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibration_chunk(iterations=CHUNK_ITERATIONS):
    """A fixed mix of what the simulator's host time is made of: object
    attribute reads, integer arithmetic, dict stores and small numpy
    array operations."""
    table = {}
    words = numpy.zeros(8, dtype=numpy.uint64)
    slots = [_Slot(i, i + 1) for i in range(64)]
    acc = 0
    for i in range(iterations):
        slot = slots[i & 63]
        acc = (acc * 31 + slot.a ^ slot.b) & 0xFFFFFFFF
        table[(i * 7) & 2047] = acc
        if i & 15 == 0:
            words[i & 7] = acc
            acc ^= int(words.sum()) & 0xFFFF
    return acc


def time_chunk():
    start = _clock()
    calibration_chunk()
    return _clock() - start


class PassTimer:
    """Times the units of work of one pass in reference-host seconds.

    :meth:`call` runs one unit between two calibration chunks and adds
    its scaled time to ``wall_s`` and to ``unit_s`` (one entry per unit,
    in call order, with its set-up share in ``unit_setup_s``); the set-up and
    transaction times the :class:`instrument.HostProbe` records during
    the unit are scaled by the same factor.  With a span recorder,
    calibration time is kept out of the pass's unattributed self time.
    """

    def __init__(self, probe, recorder=None):
        self.probe = probe
        self.recorder = recorder
        self.wall_s = 0.0
        self.raw_s = 0.0
        self.calibration_s = 0.0
        self.tx_seconds = []
        self.unit_s = []
        self.unit_setup_s = []
        self.last_s = 0.0
        self._previous_chunk = None

    def _calibrate(self):
        seconds = time_chunk()
        self.calibration_s += seconds
        if self.recorder is not None:
            self.recorder.exclude(seconds)
        return seconds

    def call(self, func, *args, **kwargs):
        before = self._previous_chunk
        if before is None:
            before = self._calibrate()
        probe = self.probe
        setup_s, transactions = probe.setup_s, len(probe.tx_seconds)
        start = _clock()
        result = func(*args, **kwargs)
        seconds = _clock() - start
        after = self._previous_chunk = self._calibrate()
        scale = 2.0 * REFERENCE_S / (before + after)
        self.last_s = seconds * scale
        unit_setup_s = (probe.setup_s - setup_s) * scale
        self.unit_s.append(self.last_s)
        self.unit_setup_s.append(unit_setup_s)
        self.raw_s += seconds
        self.wall_s += self.last_s
        self.tx_seconds.extend(
            t * scale for t in probe.tx_seconds[transactions:])
        return result
