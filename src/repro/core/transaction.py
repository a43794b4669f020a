"""The durable-transaction programming interface.

Programmers annotate transaction boundaries (``Tx_Begin`` / ``Tx_End``,
section III-A); everything in between goes through :class:`TxContext`,
which issues loads and stores against the simulated machine on behalf of
one hardware thread.  Outside a transaction the same object performs plain
(non-logged) accesses — the paper's non-critical data path.
"""

from typing import List

from repro.common.bitops import WORD_BYTES, mask_word


class TxContext:
    """Memory access handle for one hardware thread.

    Workloads treat this as "the machine": ``load``/``store`` move 64-bit
    words, the convenience helpers move runs of words.  The system tracks
    whether the thread is inside a transaction and routes stores through
    the hardware logger accordingly.
    """

    def __init__(self, system, core: int) -> None:
        self._system = system
        self.core = core
        # The program-level op topics (the replay recorder subscribes).
        bus = system.bus
        self._op_load = bus.topic("op-load")
        self._op_store = bus.topic("op-store")
        self._op_store_nt = bus.topic("op-store-nt")
        self._op_compute = bus.topic("op-compute")

    # ------------------------------------------------------------------
    # Word accesses
    # ------------------------------------------------------------------

    def load(self, addr: int) -> int:
        """Load the 64-bit word at ``addr`` (must be word aligned)."""
        if addr % WORD_BYTES:
            raise ValueError("unaligned load at %#x" % addr)
        if self._op_load:
            self._op_load(addr)
        return self._system.load_word(self.core, addr)

    def store(self, addr: int, value: int) -> None:
        """Store a 64-bit word; logged when inside a transaction."""
        if addr % WORD_BYTES:
            raise ValueError("unaligned store at %#x" % addr)
        value = mask_word(value)
        if self._op_store:
            self._op_store(addr, value)
        self._system.store_word(self.core, addr, value)

    def store_nt(self, addr: int, value: int) -> None:
        """Non-temporal store (cache-bypassing, like ``movntq``)."""
        if addr % WORD_BYTES:
            raise ValueError("unaligned store at %#x" % addr)
        value = mask_word(value)
        if self._op_store_nt:
            self._op_store_nt(addr, value)
        self._system.store_word_nt(self.core, addr, value)

    # ------------------------------------------------------------------
    # Convenience helpers
    # ------------------------------------------------------------------

    def load_words(self, addr: int, count: int) -> List[int]:
        return [self.load(addr + i * WORD_BYTES) for i in range(count)]

    def store_words(self, addr: int, values) -> None:
        for i, value in enumerate(values):
            self.store(addr + i * WORD_BYTES, value)

    def fill(self, addr: int, count: int, value: int = 0) -> None:
        for i in range(count):
            self.store(addr + i * WORD_BYTES, value)

    def compute(self, cycles: int) -> None:
        """Model non-memory work between accesses."""
        if self._op_compute:
            self._op_compute(cycles)
        self._system.advance(self.core, cycles)
