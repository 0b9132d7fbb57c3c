"""p2KVS reproduction: a portable 2-dimensional parallelizing framework for
key-value stores, rebuilt on a discrete-event simulated multicore/SSD machine.

Quick start::

    from repro import P2KVS, make_env

    env = make_env(n_cores=16)

    def main():
        kvs = yield from P2KVS.open(env, n_workers=8)
        ctx = env.cpu.new_thread("app")
        yield from kvs.put(ctx, b"hello", b"world")
        print((yield from kvs.get(ctx, b"hello")))

    env.sim.spawn(main())
    env.sim.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results of every table and figure.
"""

from repro.baselines import KVellLike, WiredTigerLike, wiredtiger_adapter_factory
from repro.core import P2KVS, HashRouter, RangeRouter, adapter_factory
from repro.engine import (
    LSMEngine,
    WriteBatch,
    leveldb_options,
    make_env,
    pebblesdb_options,
    rocksdb_options,
)
from repro.errors import (
    NOT_FOUND,
    Corruption,
    IOFailure,
    KVError,
    KVStatus,
    TimedOut,
)
from repro.systems import open_system, register_system, system_names
from repro.trace import install_tracer, uninstall_tracer, write_chrome_trace

__version__ = "1.0.0"

__all__ = [
    "Corruption",
    "HashRouter",
    "IOFailure",
    "KVError",
    "KVStatus",
    "KVellLike",
    "LSMEngine",
    "NOT_FOUND",
    "P2KVS",
    "RangeRouter",
    "TimedOut",
    "WiredTigerLike",
    "WriteBatch",
    "adapter_factory",
    "install_tracer",
    "leveldb_options",
    "make_env",
    "open_system",
    "pebblesdb_options",
    "register_system",
    "rocksdb_options",
    "system_names",
    "uninstall_tracer",
    "wiredtiger_adapter_factory",
    "write_chrome_trace",
    "__version__",
]
