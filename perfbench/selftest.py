"""``--selftest``: the benchmark checks itself, fast, at 2% of its sizes.

Not a tier-1 test (``testpaths = ["tests"]``); run it after editing perfbench.
"""

import copy
import json
import os
import re
from time import perf_counter

from perfbench import runner
from perfbench.compare import compare
from perfbench.suite import run_suite
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SELFTEST_SCALE = 0.02
SELFTEST_SECONDS = 0.3


def check_contract(contract: dict) -> None:
    """The schema of the builder's instructions, and agreement with the code."""
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ], "BENCHMARK.json workloads differ from perfbench.workloads.WORKLOADS"
    names = [w["name"] for w in contract["workloads"]]
    for workload in contract["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in contract["end_to_end"] + contract["per_layer"]:
        names.append(entry["name"])
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25, entry
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [e for e in contract["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in contract["end_to_end"])


def selftest(contract: dict) -> int:
    started = perf_counter()
    check_contract(contract)
    path = os.path.join(runner.OUT_DIR, "selftest.json")
    os.makedirs(runner.OUT_DIR, exist_ok=True)
    assert run_suite(contract, 3, SELFTEST_SECONDS, SELFTEST_SCALE, path) == 0
    with open(path) as fh:
        results = json.load(fh)

    applicable = set()
    for spec in contract["workloads"]:
        entry = results["workloads"][spec["name"]]
        assert entry["correct"] and entry["failed"] == 0, spec["name"]
        for listed, got in (
            (contract["end_to_end"], entry["end_to_end"]),
            (contract["per_layer"], entry["per_layer"]),
        ):
            assert sorted(e["name"] for e in listed) == sorted(got), spec["name"]
            for e in listed:
                assert got[e["name"]]["unit"] == e["unit"]
                assert isinstance(got[e["name"]]["value"], (int, float))
        for e in contract["end_to_end"]:
            assert entry["end_to_end"][e["name"]]["value"] > 0, (spec["name"], e)
        assert entry["per_layer"]["faults.scenarios_passed"]["value"] == 15
        assert entry["per_layer"]["host.zone_coverage"]["value"] >= 0.90
        assert not entry["exact_changed_by_tracing"], spec["name"]
        applicable |= set(entry["per_layer"]) - set(entry["not_applicable"])
    missing = {e["name"] for e in contract["per_layer"]} - applicable
    assert not missing, "no workload produces %s" % sorted(missing)

    rows, changed = compare(results, results, contract)
    assert not changed and all(row[-1] == "same" for row in rows), rows
    bound = next(
        e["bound"] for e in contract["end_to_end"] if e["name"] == "host_ops_per_s"
    )
    slower = copy.deepcopy(results)
    for entry in slower["workloads"].values():
        entry["end_to_end"]["host_ops_per_s"]["value"] *= 1.0 - bound - 0.1
    rows, _changed = compare(results, slower, contract)
    flagged = [row for row in rows if row[1] == "host_ops_per_s"]
    assert flagged and all(row[-1] == "worse" for row in flagged), flagged

    print("selftest: ok in %.1f s" % (perf_counter() - started))
    return 0
