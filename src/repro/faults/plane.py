"""The fault plane: crash points, durable-state snapshots, install helpers.

A ``FaultPlane`` hangs off ``env.faults`` (default ``None`` — the off path
is a single attribute test, matching the tracer/edgelog precedent).  Code at
interesting sites probes it::

    faults = self.env.faults
    if faults is not None:
        faults.crash_site("wal-append")

When an armed ``CrashPoint`` fires, the plane snapshots the *durable* VFS
state — flushed bytes only, torn tails included — synchronously at the
site, then halts the whole simulated process tree with ``CrashTriggered``.
A fresh env can then ``restore_durable_state`` and reopen the engine
against exactly what a power loss would have left on the platter.
"""

from __future__ import annotations

import random

__all__ = [
    "CrashPoint",
    "CrashTriggered",
    "FaultPlane",
    "install_faults",
    "restore_durable_state",
    "snapshot_durable_state",
    "uninstall_faults",
]


class CrashTriggered(Exception):
    """Control-flow signal: the simulated machine lost power.

    Deliberately *not* a ``KVError``: retry and poison paths catch
    ``KVError`` and must never swallow a crash — this propagates through
    every handler and aborts the simulator run.
    """

    def __init__(self, site, at):
        super().__init__("simulated crash at site %r (t=%.9f)" % (site, at))
        self.site = site
        self.at = at


class CrashPoint:
    """Arm a crash at the ``hits``-th arrival at a named site."""

    def __init__(self, site, hits=1):
        self.site = site
        self.hits = hits
        self.count = 0


class FaultPlane:
    """Per-env fault state: the crash point and the fault counters."""

    def __init__(self, env, policy=None, crash=None, seed=0):
        self.env = env
        self.policy = policy
        self.crash = crash
        # Decorrelate from the policy rng: same seed, different stream.
        self.rng = random.Random((seed * 2654435761 + 97) & 0xFFFFFFFF)
        self.counters = env.metrics.group("faults", fresh=True)
        #: Durable-state snapshot captured at the crash site, or None.
        self.snapshot = None
        self.crash_site_name = None
        self.crashed_at = None

    def crash_site(self, site, torn_file=None):
        """Probe a named site; fires the armed crash point when it matches.

        ``torn_file`` (a ``VirtualFile`` about to be flushed) lets the
        crash model a power loss mid-IO: a seeded prefix of the pending
        bytes is promoted to durable, leaving a mid-record tail.
        """
        crash = self.crash
        if crash is None or self.snapshot is not None or crash.site != site:
            return
        crash.count += 1
        if crash.count < crash.hits:
            return
        if torn_file is not None and torn_file.pending_bytes > 0:
            cut = self.rng.randrange(0, torn_file.pending_bytes)
            torn_file.flushed_len += cut
        self.counters.add("crashes")
        self.crash_site_name = site
        self.crashed_at = self.env.sim.now
        # Snapshot synchronously AT the site: straggler events delivered
        # while the crash unwinds cannot mutate what we captured.
        self.snapshot = snapshot_durable_state(self.env.disk)
        exc = CrashTriggered(site, self.env.sim.now)
        self.env.sim._crash(exc)
        raise exc


def snapshot_durable_state(disk):
    """Capture what a power loss would leave: flushed file prefixes and
    committed blobs only.  Blob payloads (SSTables) are immutable once
    committed, so they are shared by reference, not copied."""
    files = {}
    for path in sorted(disk.files):
        files[path] = disk.files[path].durable_content()
    blobs = {}
    for name in sorted(disk._blobs):
        obj, nbytes, committed = disk._blobs[name]
        if committed:
            blobs[name] = (obj, nbytes)
    return {"files": files, "blobs": blobs}


def restore_durable_state(disk, snapshot):
    """Load a durable-state snapshot into a (fresh) ``DiskImage``."""
    for path, data in snapshot["files"].items():
        vfile = disk.open_file(path)
        vfile.content = bytearray(data)
        vfile.flushed_len = len(data)
    for name, (obj, nbytes) in snapshot["blobs"].items():
        disk.put_blob(name, obj, nbytes)
        disk.commit_blob(name)
    return disk


def install_faults(env, policy=None, crash=None, seed=0):
    """Attach a fault plane (and optionally a device fault policy) to an env."""
    plane = FaultPlane(env, policy=policy, crash=crash, seed=seed)
    env.faults = plane
    if policy is not None:
        env.device.fault_policy = policy
    return plane


def uninstall_faults(env):
    """Detach the fault plane and device policy; the env is clean again."""
    env.faults = None
    env.device.fault_policy = None
