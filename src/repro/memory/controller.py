"""The memory controller: routes requests to DRAM or the NVM module.

DRAM and NVMM live on one memory bus mapped to a single physical address
space; user-critical data sit in NVMM, everything else in DRAM (section
III-A).  The controller also exposes the log write path that the log
buffers use to bypass the caches (section III-A, Figure 6).
"""

from typing import Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.memory.dram import Dram
from repro.nvm.module import LogDataWord, NvmModule, WriteKind, WriteResult
from repro.trace.bus import EventBus


class MemoryController:
    """Address routing plus the ADR persistence boundary."""

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[StatGroup] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.stats = stats if stats is not None else StatGroup("memory_controller")
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.nvm = NvmModule(
            config.nvm, config.encoding, self.stats, config.caches.line_bytes,
            bus=self.bus,
        )
        self.dram = Dram(self.stats)
        # Published with (addr, words) before every in-place NVMM line
        # write (the WAL-ordering checker subscribes).
        self._data_write = self.bus.topic("data-write")
        # Optional read hook: called with the address of every NVMM line
        # read; a non-None return value (a word list) services the read
        # instead of the array.  Redo-only logging stages in-flight lines
        # in DRAM and keeps them readable through this hook.
        self.read_interceptor = None

    def is_persistent(self, addr: int) -> bool:
        return addr >= self.config.nvmm_base

    # ------------------------------------------------------------------
    # Cache-line path
    # ------------------------------------------------------------------

    def read_line(self, addr: int, now_ns: float) -> Tuple[Tuple[int, ...], float]:
        if self.is_persistent(addr):
            if self.read_interceptor is not None:
                staged = self.read_interceptor(addr)
                if staged is not None:
                    from repro.memory.dram import DRAM_READ_NS

                    return tuple(staged), now_ns + DRAM_READ_NS
            return self.nvm.read_line(addr, now_ns)
        return self.dram.read_line(addr, now_ns)

    def write_line(self, addr: int, words: Sequence[int], now_ns: float) -> float:
        """Write back one cache line; returns the producer-visible time.

        NVMM line writes are posted (the producer resumes at queue-accept
        time); DRAM writes complete at fixed latency.
        """
        if self.is_persistent(addr):
            if self._data_write:
                self._data_write(addr, words)
            result = self.nvm.write_data_line(addr, words, now_ns)
            return result.schedule.accept_ns
        return self.dram.write_line(addr, words, now_ns)

    # ------------------------------------------------------------------
    # Log path (cache-bypassing, used by the log buffers)
    # ------------------------------------------------------------------

    def write_log_entry(
        self,
        addr: int,
        meta_words: Sequence[int],
        now_ns: float,
        undo: Optional[LogDataWord] = None,
        redo: Optional[LogDataWord] = None,
        kind: WriteKind = WriteKind.LOG,
    ) -> WriteResult:
        return self.nvm.write_log_entry(
            addr, meta_words, now_ns, undo=undo, redo=redo, kind=kind
        )
