"""One factory for every system under test.

``open_system(name, env, **opts)`` is the only place that assembles the seven
Section 5 configurations: the CLIs (through ``tools/common.py``), the figure
suite (``benchmarks/common.run_case``), ``examples/ycsb_shootout.py``,
perfbench and the golden/fault tests open their systems here, so a new
system (or a renamed one) is registered in exactly one place::

    from repro import open_system
    system = open_system("p2kvs", env, workers=8)

What still builds by hand, on purpose: unit tests of the ``System`` classes
themselves, perfbench's cold-cache ``read`` case, and the figures whose
subject is not a registered configuration (a custom router, p2KVS over
WiredTiger) — each says so where it does.

:data:`BENCH_SHAPE` is the only copy of the scaled LSM shape.  The LSM-backed
openers take ``engine={field: value}`` — ``EngineOptions`` fields laid over
the shape, checked like any other option — which is the one override surface
for ablations (``engine={"pipelined_write": False}``) and cache sizing.

Options are **strict**: each opener's keyword signature *is* its option
surface, and :func:`open_system` raises on anything the named system does
not declare — with a did-you-mean list, so a typo (``asycn_window=256``)
fails loudly instead of silently benchmarking the default.  Callers that
fan one option dict across heterogeneous systems (dbbench's CLI flags)
filter through :func:`describe_options` first.  New systems plug in with
:func:`register_system`::

    @register_system("mystore")
    def _open_mystore(env, workers=8):
        return MyStoreSystem.open(env, workers)

The opener returns the system's ``open()`` generator; :func:`open_system`
runs it to completion on ``env.sim``.
"""

import dataclasses
import difflib
import inspect
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.adapters import adapter_factory
from repro.engine.options import (
    EngineOptions,
    leveldb_options,
    pebblesdb_options,
    rocksdb_options,
)
from repro.harness.runner import (
    KVellSystem,
    MultiInstanceSystem,
    P2KVSSystem,
    SingleInstanceSystem,
    WiredTigerSystem,
)
from repro.harness.runner import open_system as _run_open

__all__ = [
    "BENCH_SHAPE",
    "SYSTEM_REGISTRY",
    "describe_options",
    "format_system_options",
    "open_system",
    "register_system",
    "system_names",
]

SYSTEM_REGISTRY: Dict[str, Callable] = {}

#: per-system option surface, computed from the opener signature at
#: registration time: {system: {option: default}}.
_SYSTEM_OPTIONS: Dict[str, Dict[str, object]] = {}

#: the scaled-down LSM shape (DESIGN.md Section 5) every LSM-backed system
#: opens with; everything else is ``EngineOptions``' default.
BENCH_SHAPE = dict(
    write_buffer_size=64 * 1024,
    target_file_size=64 * 1024,
    max_bytes_for_level_base=256 * 1024,
)

_ENGINE_FIELDS = tuple(f.name for f in dataclasses.fields(EngineOptions))


def _reject_unknown(given: Iterable[str], declared: Iterable[str], what: str) -> None:
    """Raise the did-you-mean ValueError for keys of ``given`` not ``declared``."""
    declared = list(declared)
    unknown = [opt for opt in given if opt not in declared]
    if not unknown:
        return
    hints = []
    for opt in unknown:
        close = difflib.get_close_matches(opt, declared, n=1)
        hints.append("%r%s" % (opt, " (did you mean %r?)" % close[0] if close else ""))
    raise ValueError(
        "unknown option%s %s for %s; it accepts: %s"
        % (
            "s" if len(unknown) > 1 else "",
            ", ".join(hints),
            what,
            ", ".join(declared) if declared else "(no options)",
        )
    )


def _shape(engine: Optional[dict]) -> dict:
    """:data:`BENCH_SHAPE` with the caller's ``engine=`` overrides on top."""
    engine = engine or {}
    _reject_unknown(engine, _ENGINE_FIELDS, "engine= (EngineOptions fields)")
    return {**BENCH_SHAPE, **engine}


def register_system(name: str):
    """Class-/function-decorator adding an opener to the registry.

    The opener's keyword parameters (everything after ``env``) become the
    system's declared option surface; a ``**kwargs`` catch-all is rejected
    so no opener can silently swallow unknown options again.
    """

    def decorate(opener):
        options: Dict[str, object] = {}
        params = list(inspect.signature(opener).parameters.values())
        for param in params[1:]:  # params[0] is env
            if param.kind == inspect.Parameter.VAR_KEYWORD:
                raise TypeError(
                    "system opener %r may not declare **%s: options are "
                    "strict (declare each keyword explicitly)"
                    % (name, param.name)
                )
            options[param.name] = param.default
        SYSTEM_REGISTRY[name] = opener
        _SYSTEM_OPTIONS[name] = options
        return opener

    return decorate


def system_names() -> List[str]:
    return sorted(SYSTEM_REGISTRY)


def describe_options(name: str) -> Dict[str, object]:
    """The named system's option surface: ``{option: default}``, in opener
    declaration order.  Raises ValueError for an unknown system."""
    try:
        return dict(_SYSTEM_OPTIONS[name])
    except KeyError:
        raise ValueError(
            "unknown system %r (choose from %s)" % (name, ", ".join(system_names()))
        )


def format_system_options() -> str:
    """Per-system option listing for CLI --help epilogs."""
    width = max(len(n) for n in SYSTEM_REGISTRY)
    lines = ["per-system options (strict; see repro.systems):"]
    for name in system_names():
        options = _SYSTEM_OPTIONS[name]
        lines.append(
            "  %-*s  %s"
            % (width, name, ", ".join(options) if options else "(none)")
        )
    return "\n".join(lines)


def open_system(name: str, env, **opts):
    """Open system ``name`` on ``env`` and run its open() to completion.

    Unknown options raise ValueError with a did-you-mean list instead of
    being ignored — an ignored option is a benchmark silently measuring
    the wrong configuration.
    """
    try:
        opener = SYSTEM_REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown system %r (choose from %s)" % (name, ", ".join(system_names()))
        )
    _reject_unknown(opts, _SYSTEM_OPTIONS[name], "system %r" % name)
    return _run_open(env, opener(env, **opts))


@register_system("rocksdb")
def _open_rocksdb(env, engine: Optional[dict] = None):
    return SingleInstanceSystem.open(env, rocksdb_options(**_shape(engine)))


@register_system("leveldb")
def _open_leveldb(env, engine: Optional[dict] = None):
    return SingleInstanceSystem.open(env, leveldb_options(**_shape(engine)))


@register_system("pebblesdb")
def _open_pebblesdb(env, engine: Optional[dict] = None):
    return SingleInstanceSystem.open(
        env, pebblesdb_options(**_shape(engine)), name="pebbles"
    )


@register_system("multi")
def _open_multi(env, workers: int = 8, engine: Optional[dict] = None):
    shape = _shape(engine)
    return MultiInstanceSystem.open(env, workers, lambda: rocksdb_options(**shape))


@register_system("p2kvs")
def _open_p2kvs(
    env,
    workers: int = 8,
    flavor: str = "rocksdb",
    obm: bool = True,
    obm_cap: int = 32,
    async_window: int = 0,
    scan_strategy: str = "parallel",
    instance: str = "p2kvs",
    pin_base: int = 0,
    sync_wal: bool = False,
    engine: Optional[dict] = None,
):
    # ``instance`` namespaces the deployment's on-disk paths, metric prefixes
    # and thread/track names, and ``pin_base`` offsets its workers' core
    # pins, so several deployments (the service plane's shards) can share
    # one simulated machine without colliding.  ``sync_wal`` overrides the
    # paper's async logging — the service plane turns it on so a shard only
    # acknowledges durable writes (an ``engine={"sync_wal": ...}`` entry, the
    # more specific spelling, wins over it).
    return P2KVSSystem.open(
        env,
        n_workers=workers,
        adapter_open=adapter_factory(flavor, **{"sync_wal": sync_wal, **_shape(engine)}),
        obm=obm,
        obm_cap=obm_cap,
        async_window=async_window,
        scan_strategy=scan_strategy,
        name=instance,
        pin_base=pin_base,
    )


@register_system("kvell")
def _open_kvell(env, workers: int = 8):
    return KVellSystem.open(env, n_workers=workers)


@register_system("wiredtiger")
def _open_wiredtiger(env):
    return WiredTigerSystem.open(env)
