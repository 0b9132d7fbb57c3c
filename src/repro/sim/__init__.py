"""Discrete-event simulation kernel.

The p2KVS paper measures thread contention on multicore CPUs and IO behaviour
of SSDs.  Python's GIL makes real threads useless for reproducing those
effects, so every "thread" in this reproduction is a generator-based simulated
process scheduled by :class:`~repro.sim.core.Simulator`.  CPU time is charged
against a model of a fixed set of cores (:mod:`repro.sim.cpu`), and IO time
against a parameterised storage device (:mod:`repro.sim.device`).

Typical usage::

    sim = Simulator()
    cpu = CPUSet(sim, n_cores=16)
    dev = StorageDevice(sim, OPTANE_905P)

    def writer(ctx):
        yield cpu.exec(ctx, 2.1e-6, "wal")
        yield dev.write(4096, category="wal")

    ctx = cpu.new_thread("user-0")
    sim.spawn(writer(ctx))
    sim.run()
"""

from repro.sim.core import AllOf, Event, Process, SimError, Simulator, Timeout
from repro.sim.cpu import CPUSet, ThreadContext
from repro.sim.device import (
    HDD_WD100EFAX,
    OPTANE_905P,
    SATA_860PRO,
    DeviceSpec,
    StorageDevice,
)
from repro.sim.queues import FIFOQueue, QueueEmpty
from repro.sim.sync import Barrier, Condition, Lock, Semaphore

__all__ = [
    "AllOf",
    "Barrier",
    "CPUSet",
    "Condition",
    "DeviceSpec",
    "Event",
    "FIFOQueue",
    "HDD_WD100EFAX",
    "Lock",
    "OPTANE_905P",
    "Process",
    "QueueEmpty",
    "SATA_860PRO",
    "Semaphore",
    "SimError",
    "Simulator",
    "StorageDevice",
    "ThreadContext",
    "Timeout",
]
