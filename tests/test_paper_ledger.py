"""The fidelity ledger: how far each figure sits from the paper's numbers.

For every claim of ``repro.harness.paper`` that states a number, the gap is
|ln(measured / paper)|, with ``measured`` read from the committed
``results/<figure>.checks.txt``.  The ceilings below are the gaps the
committed results give; a change that moves a figure toward the paper lowers
them, and none may raise them.  Reads committed files only.

Also here: perfbench's ``PAPER_RATIOS`` spells four of the table's numbers
again, and is held to the table until it imports it.
"""

import math
import pathlib
import re
from collections import defaultdict

from repro.harness.paper import CLAIMS

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: numbered claims whose paper or measured value is 0: a ratio to 0 has no
#: log gap, so they sit outside the means.
NO_GAP = {"fig06.locks_1"}

#: per results file, the mean gap over its numbered claims.
FIGURE_CEILINGS = {
    "fig01": 0.292,
    "fig04": 0.365,
    "fig05": 0.765,
    "fig06": 0.405,
    "fig08": 0.680,
    "fig12": 0.566,
    "table2": 0.164,
    "fig13": 0.040,
    "fig14": 0.653,
    "fig15": 0.324,
    "fig16": 0.724,
    "fig17": 0.376,
    "fig20": 0.428,
    "fig21": 1.093,
    "fig22": 1.167,
    "fig23": 0.282,
}
#: the mean gap over every numbered claim.
OVERALL_CEILING = 0.531

#: perfbench's paper terms -> the claim each one restates.
PERFBENCH_TERMS = {
    "paper.p2kvs8_vs_rocksdb_fill": "fig12.p2kvs8_speedup",
    "paper.multi_vs_rocksdb_fill": "fig05.multi_vs_single_peak",
    "paper.p2kvs8_vs_kvell8_fill": "fig21.throughput",
    "paper.p2kvs8_vs_rocksdb_read64": "fig14.obm_vs_rocksdb",
}

NUMBERED = {key: claim for key, claim in CLAIMS.items() if claim.value is not None}


def _measured(figure):
    """Check name -> measured value, from one committed checks table."""
    lines = (RESULTS / ("%s.checks.txt" % figure)).read_text().split("\n")
    starts = [m.start() for m in re.finditer(r"-+", lines[1])]
    rows = {}
    for line in lines[2:]:
        if not line.strip():
            break
        rows[line[: starts[1]].rstrip()] = float(line[starts[2] : starts[3]])
    return rows


def _ledger():
    """(figure -> [gap, ...], keys with a zero value)."""
    figures = {claim.figure for claim in NUMBERED.values()}
    tables = {figure: _measured(figure) for figure in figures}
    gaps, zero = defaultdict(list), set()
    for key, claim in NUMBERED.items():
        measured = tables[claim.figure][claim.text]
        if claim.value == 0 or measured == 0:
            zero.add(key)
        else:
            gaps[claim.figure].append(abs(math.log(measured / claim.value)))
    return gaps, zero


def test_every_numbered_claim_is_in_its_checks_file():
    for key, claim in NUMBERED.items():
        assert claim.text in _measured(claim.figure), key


def test_zero_valued_claims_are_named():
    assert _ledger()[1] == NO_GAP


def test_each_figure_gap_stays_at_or_below_its_ceiling():
    gaps = _ledger()[0]
    assert set(gaps) == set(FIGURE_CEILINGS)
    for figure, values in gaps.items():
        mean = sum(values) / len(values)
        assert mean <= FIGURE_CEILINGS[figure], "%s: %.4f" % (figure, mean)


def test_overall_gap_stays_at_or_below_its_ceiling():
    values = [gap for figure in _ledger()[0].values() for gap in figure]
    assert sum(values) / len(values) <= OVERALL_CEILING


def test_perfbench_paper_ratios_match_the_table():
    from perfbench.workloads import PAPER_RATIOS

    assert set(PAPER_RATIOS) == set(PERFBENCH_TERMS)
    for term, (_top, _bottom, paper) in PAPER_RATIOS.items():
        assert paper == CLAIMS[PERFBENCH_TERMS[term]].value, term
