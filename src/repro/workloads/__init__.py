"""Benchmark workloads (paper Table IV).

Micro-benchmarks — each transaction performs one operation on a persistent
data structure, with both the small (64-byte) and large (4-KB) dataset
item sizes the paper evaluates:

- :mod:`repro.workloads.btree`   — insert/delete nodes in a B-tree
- :mod:`repro.workloads.hashmap` — insert/delete entries in a hash table
- :mod:`repro.workloads.queue`   — insert/delete entries in a queue
- :mod:`repro.workloads.rbtree`  — insert/delete nodes in a red-black tree
- :mod:`repro.workloads.sdg`     — insert/delete edges in a scalable graph
- :mod:`repro.workloads.sps`     — swap two random entries in an array

Macro-benchmarks (WHISPER-derived, reimplemented over the persistent
heap):

- :mod:`repro.workloads.echo`    — a scalable key-value store
- :mod:`repro.workloads.ycsb`    — 20 % read / 80 % update
- :mod:`repro.workloads.tpcc`    — TPC-C new-order transactions
"""

from repro.workloads.base import (
    DatasetSize,
    SetupContext,
    Workload,
    WorkloadParams,
    WORKLOADS,
    make_workload,
    MICRO_WORKLOADS,
    MACRO_WORKLOADS,
    MOTIVATION_EXTRAS,
)
from repro.workloads.btree import BTreeWorkload
from repro.workloads.ctree import CTreeWorkload
from repro.workloads.hashmap import HashMapWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.workloads.redis import RedisWorkload
from repro.workloads.sdg import SdgWorkload
from repro.workloads.sps import SpsWorkload
from repro.workloads.echo import EchoWorkload
from repro.workloads.vacation import VacationWorkload
from repro.workloads.ycsb import YcsbWorkload
from repro.workloads.tpcc import TpccWorkload

__all__ = [
    "DatasetSize",
    "SetupContext",
    "Workload",
    "WorkloadParams",
    "WORKLOADS",
    "make_workload",
    "MICRO_WORKLOADS",
    "MACRO_WORKLOADS",
    "MOTIVATION_EXTRAS",
    "BTreeWorkload",
    "CTreeWorkload",
    "HashMapWorkload",
    "MemcachedWorkload",
    "QueueWorkload",
    "RBTreeWorkload",
    "RedisWorkload",
    "SdgWorkload",
    "SpsWorkload",
    "EchoWorkload",
    "VacationWorkload",
    "YcsbWorkload",
    "TpccWorkload",
]
