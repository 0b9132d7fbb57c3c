"""``repro.service`` — the sharded service plane over p2KVS instances.

One simulated machine, N independent p2KVS deployments ("shards"), a
partition router in front of them, and an open-loop client population with
bounded admission — the smallest setup in which *service-level* questions
(tail latency at offered load, load shedding, manual rebalancing) can be
asked of the paper's framework.  See docs/SERVICE.md for the operator
story and ``python -m repro.tools.serve`` for the pinned scenarios.
"""

from repro.service.admission import ShardLane
from repro.service.arrivals import DiurnalArrivals, PoissonArrivals
from repro.service.directory import PartitionDirectory
from repro.service.load import (
    partition_offered_counts,
    preload_plane,
    run_service_load,
)
from repro.service.partition import HashPartitioner
from repro.service.plane import ServicePlane
from repro.service.router import ServiceRouter
from repro.service.scenarios import SCENARIOS, build_scenario, scenario_names
from repro.service.slo import build_slo_report, render_slo_csv, write_report

__all__ = [
    "SCENARIOS",
    "DiurnalArrivals",
    "HashPartitioner",
    "PartitionDirectory",
    "PoissonArrivals",
    "ServicePlane",
    "ServiceRouter",
    "ShardLane",
    "build_scenario",
    "build_slo_report",
    "partition_offered_counts",
    "preload_plane",
    "render_slo_csv",
    "run_service_load",
    "scenario_names",
    "write_report",
]
