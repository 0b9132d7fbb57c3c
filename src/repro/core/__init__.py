"""p2KVS: the paper's portable 2-dimensional parallelizing framework.

* :class:`~repro.core.framework.P2KVS` — the framework (accessing layer,
  workers, GSN transactions, range-query strategies).
* :class:`~repro.core.router.HashRouter` / ``RangeRouter`` — balanced request
  allocation.
* :func:`~repro.core.obm.collect_batch` — the opportunistic batching
  mechanism (Algorithm 1).
* :mod:`~repro.core.adapters` — the worker protocol every underlying KVS
  speaks (paper Section 4.6), and the LSM engine opener.
"""

from repro.core.adapters import adapter_factory
from repro.core.framework import P2KVS
from repro.core.obm import DEFAULT_BATCH_CAP, collect_batch
from repro.core.requests import Request
from repro.core.router import HashRouter, RangeRouter
from repro.core.txn import GsnManager, TransactionLog
from repro.core.worker import Worker

__all__ = [
    "DEFAULT_BATCH_CAP",
    "GsnManager",
    "HashRouter",
    "P2KVS",
    "RangeRouter",
    "Request",
    "TransactionLog",
    "Worker",
    "adapter_factory",
    "collect_batch",
]
