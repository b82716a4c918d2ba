"""Each answer check accepts real CLI output and rejects a tampered copy.

The fixtures in ``data/`` are real outputs on the unrelabelled datasets
(taxa ``S1``…): ``run_i.out`` is ``slimcodeml run`` to convergence on
dataset i, ``run_iii.out`` is ``run --max-iterations 1`` on dataset iii,
``survey_i.out`` is ``scan --survey --map --journal --max-iterations 2``
on dataset i and ``survey_i.jsonl`` its journal, trimmed to the fields
the check reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks

DATA = Path(__file__).resolve().parent / "data"
TAXA_I = [f"S{k}" for k in range(1, 8)]
GENE = "dataset_i"


def text(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def replace_once(source: str, old: str, new: str) -> str:
    assert source.count(old) >= 1, old
    return source.replace(old, new, 1)


# ----------------------------------------------------------------------
# run to convergence
# ----------------------------------------------------------------------
def test_run_converged_accepts_real_output():
    verdict = checks.check_run_converged(text("run_i.out"))
    assert verdict.failures == []
    assert verdict.attempted == 1


def test_run_converged_band_is_the_papers_relative_difference():
    # 1e-4 absolute is D ~ 4e-8 at |lnL| ~ 2590, inside the 5.5e-8 band;
    # 2e-4 is D ~ 7.7e-8, outside it.
    ref = dict(checks.REFERENCE_I)
    inside = {"h0": ref["h0"] + 1e-4, "h1": ref["h1"] - 1e-4}
    outside = {"h0": ref["h0"] + 2e-4, "h1": ref["h1"]}
    assert checks.check_run_converged(text("run_i.out"), inside).failures == []
    assert checks.check_run_converged(text("run_i.out"), outside).failed == 1


@pytest.mark.parametrize(
    "old,new,why",
    [
        ("lnL = -2583.859692", "lnL = -2583.860692", "from the reference"),
        ("399 evaluations, 14.75 s", "399 evaluations, 14.75 s  [NOT CONVERGED: x]", "converge"),
        ("2*(lnL1 - lnL0) = 13.112790", "2*(lnL1 - lnL0) = 13.112890", "2*(lnL1-lnL0)"),
        ("= 0.000293287", "= 0.000293387", "chi2_1 p-value"),
        ("= 0.000146643", "= 0.000293287", "mixture p-value"),
    ],
)
def test_run_converged_rejects_tampered_output(old, new, why):
    verdict = checks.check_run_converged(replace_once(text("run_i.out"), old, new))
    assert verdict.failed == 1
    assert any(why in f for f in verdict.failures), verdict.failures


def test_run_converged_rejects_a_truncated_report():
    truncated = text("run_i.out").split("--- Likelihood ratio test")[0]
    assert checks.check_run_converged(truncated).failed == 1


# ----------------------------------------------------------------------
# run under a budget
# ----------------------------------------------------------------------
def test_run_budgeted_accepts_real_output():
    assert checks.check_run_budgeted(text("run_iii.out"), max_iterations=1).failures == []


@pytest.mark.parametrize(
    "old,new,why",
    [
        # H1 below H0: swap in an H1 value under H0's, statistic to match.
        ("lnL = -2201.304557", "lnL = -2214.292669", "below H0"),
        ("lnL = -2214.192669", "lnL = nan", "non-finite"),
        ("2*(lnL1 - lnL0) = 25.776225", "2*(lnL1 - lnL0) = 25.876225", "2*(lnL1-lnL0)"),
    ],
)
def test_run_budgeted_rejects_tampered_output(old, new, why):
    verdict = checks.check_run_budgeted(replace_once(text("run_iii.out"), old, new), 1)
    assert verdict.failed == 1
    assert any(why in f for f in verdict.failures), verdict.failures


def test_run_budgeted_rejects_a_blown_budget():
    verdict = checks.check_run_budgeted(text("run_iii.out"), max_iterations=0)
    assert any("exceed the budget" in f for f in verdict.failures)


def test_chi2_tail_matches_known_values():
    # chi2_1 critical values: P(X > 3.841459) = 0.05, P(X > 6.634897) = 0.01.
    assert checks.chi2_1_sf(3.841459) == pytest.approx(0.05, rel=1e-6)
    assert checks.chi2_1_sf(6.634897) == pytest.approx(0.01, rel=1e-6)
    assert checks.chi2_1_sf(0.0) == 1.0


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------
def survey(report: str = None, journal: str = None, taxa=TAXA_I) -> checks.Verdict:
    return checks.check_survey(
        report if report is not None else text("survey_i.out"),
        journal if journal is not None else text("survey_i.jsonl"),
        GENE,
        taxa,
    )


def test_survey_accepts_real_output():
    verdict = survey()
    assert verdict.failures == []
    assert verdict.attempted == 11


def test_survey_rejects_a_missing_branch_row():
    report = "\n".join(
        ln for ln in text("survey_i.out").splitlines() if not ln.startswith("S4  ")
    )
    verdict = survey(report=report)
    assert verdict.failed >= 1
    assert any("S4 missing" in f for f in verdict.failures)


def test_survey_rejects_a_missing_journal_record():
    journal = "\n".join(
        ln for ln in text("survey_i.jsonl").splitlines() if '"dataset_i:S2"' not in ln
    )
    verdict = survey(journal=journal)
    assert verdict.failures == ["S2: no journal record"]


def test_survey_rejects_a_journal_that_disagrees_with_the_report():
    lines = []
    for ln in text("survey_i.jsonl").splitlines():
        rec = json.loads(ln)
        if rec.get("gene_id") == "dataset_i:S5":
            rec["lnl1"] += 0.01
        lines.append(json.dumps(rec))
    verdict = survey(journal="\n".join(lines))
    assert verdict.failed == 1
    assert "S5: report 2*dlnL" in verdict.failures[0]


def test_survey_rejects_a_wrong_holm_value():
    report = replace_once(text("survey_i.out"), "2.749e-08", "2.949e-08")
    verdict = survey(report=report)
    assert any("p (Holm)" in f for f in verdict.failures), verdict.failures


def test_survey_rejects_a_flipped_verdict():
    row = next(ln for ln in text("survey_i.out").splitlines() if ln.startswith("S1  "))
    report = replace_once(text("survey_i.out"), row, row.replace("POSITIVE SELECTION", "-"))
    verdict = survey(report=report)
    assert any("S1: verdict" in f for f in verdict.failures), verdict.failures
    assert any("summary claims" in f for f in verdict.failures)


def test_survey_rejects_a_selected_branch_without_mapping():
    report = replace_once(text("survey_i.out"), "  dataset_i:S3:", "  dataset_i:S3x:")
    verdict = survey(report=report)
    assert "S3: selected but no mapping block" in verdict.failures


def test_survey_rejects_a_mapping_block_on_the_wrong_foreground():
    lines = text("survey_i.out").splitlines()
    start = lines.index("  dataset_i:S7:")
    for k in range(start + 1, start + 14):
        if lines[k].lstrip().startswith("S6 "):
            lines[k] = lines[k].replace("S6                     ", "S6                   #1", 1)
            break
    else:
        pytest.fail("no S6 row in S7's mapping block")
    verdict = survey(report="\n".join(lines))
    assert any("S7: mapping block marks" in f for f in verdict.failures), verdict.failures


def test_survey_counts_every_branch_of_an_unreadable_report_as_failed():
    verdict = survey(report="garbage")
    assert verdict.attempted == verdict.failed == 11


def test_holm_matches_the_step_down_definition():
    assert checks.holm([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])
    # Running maximum: 2 x 0.5 caps at 1, and the larger p cannot undercut it.
    assert checks.holm([0.5, 0.9]) == pytest.approx([1.0, 1.0])
