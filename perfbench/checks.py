"""Answer checks for the benchmark workloads.

Every tolerance here is derived from a stated source — the paper's
accuracy band, the optimizer's stopping rule or the number of digits the
CLI prints — never from observed output.  Each check returns a
:class:`Verdict`: how many results it examined, which failed and why.
A ``run`` is one result; each branch of a survey is one result.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Paper §IV-1: the largest relative difference D = |lnL − lnL̂|/|lnL|
#: between CodeML's and SlimCodeML's optima over datasets i–iv.
D_BAND = 5.5e-8
#: ``fit_model``'s stopping rule: relative change of −lnL below ``ftol``.
FTOL = 1e-9
#: Dataset i's optimum as fitted to convergence by the CodeML-comparator
#: engine (``benchmarks/results/E-ACC_converged_fit.txt``).  The workload
#: seed only reorders and relabels taxa, which leaves the optimum fixed.
REFERENCE_I = {"h0": -2590.416087, "h1": -2583.859694}
#: Half a unit in the last printed place: lnL and 2*(lnL1 - lnL0) are
#: printed with 6 decimals by ``run``; the survey prints 2*dlnL with 4.
HALF_6DP = 5e-7
HALF_4DP = 5e-5
#: Relative half-unit of a value printed with ``%.6g`` / ``%.4g``.
HALF_6SIG = 5e-6
HALF_4SIG = 5e-4

_FLOAT = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"


@dataclass
class Verdict:
    """Outcome of checking one attempt's output."""

    attempted: int
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))


def chi2_1_sf(x: float) -> float:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    return math.erfc(math.sqrt(max(x, 0.0) / 2.0))


def _p_consistent(printed: float, stat: float, d_stat: float, rel_print: float) -> bool:
    """Is ``printed`` the chi2_1 tail of some statistic in ``stat ± d_stat``?"""
    lo = chi2_1_sf(stat + d_stat) * (1.0 - rel_print)
    hi = chi2_1_sf(max(stat - d_stat, 0.0)) * (1.0 + rel_print)
    return lo - 1e-300 <= printed <= hi + 1e-300


# ----------------------------------------------------------------------
# slimcodeml run
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """The numbers a ``slimcodeml run`` report states."""

    lnl: List[float]
    iterations: List[int]
    fit_seconds: List[float]
    converged: List[bool]
    statistic: float
    p_chi2: float
    p_mixture: float


def parse_run_report(text: str) -> RunReport:
    lnl = [float(m) for m in re.findall(rf"^lnL = ({_FLOAT})$", text, re.M)]
    fits = re.findall(
        r"^optimizer: (\d+) iterations, \d+ evaluations, ([\d.]+) s(.*)$", text, re.M
    )
    stat = re.search(rf"^2\*\(lnL1 - lnL0\) = ({_FLOAT})", text, re.M)
    p_chi2 = re.search(rf"^p-value \(chi2_1, conservative\)\s+= ({_FLOAT})", text, re.M)
    p_mix = re.search(rf"^p-value \(50:50 boundary mixture\) = ({_FLOAT})", text, re.M)
    if len(lnl) != 2 or len(fits) != 2 or not (stat and p_chi2 and p_mix):
        raise ValueError("run report lacks the H0/H1 blocks or the LRT section")
    return RunReport(
        lnl=lnl,
        iterations=[int(f[0]) for f in fits],
        fit_seconds=[float(f[1]) for f in fits],
        converged=["NOT CONVERGED" not in f[2] for f in fits],
        statistic=float(stat.group(1)),
        p_chi2=float(p_chi2.group(1)),
        p_mixture=float(p_mix.group(1)),
    )


def _lrt_failures(rep: RunReport) -> List[str]:
    """The LRT section must follow from the printed lnL values."""
    out = []
    lnl0, lnl1 = rep.lnl
    expected = max(2.0 * (lnl1 - lnl0), 0.0)
    # Two lnL roundings, doubled, plus the statistic's own rounding.
    if not abs(rep.statistic - expected) <= 4 * HALF_6DP + HALF_6DP:
        out.append(f"2*(lnL1-lnL0) printed {rep.statistic} but lnL values give {expected:.6f}")
    d_stat = 5 * HALF_6DP
    if rep.statistic == 0.0:
        if rep.p_chi2 != 1.0 or rep.p_mixture != 1.0:
            out.append("a zero statistic must report p = 1")
    else:
        if not _p_consistent(rep.p_chi2, rep.statistic, d_stat, HALF_6SIG):
            out.append(f"chi2_1 p-value {rep.p_chi2} inconsistent with 2*delta={rep.statistic}")
        if not _p_consistent(2.0 * rep.p_mixture, rep.statistic, d_stat, 2 * HALF_6SIG):
            out.append(f"mixture p-value {rep.p_mixture} is not half the chi2_1 tail")
    return out


def check_run_converged(text: str, reference: Dict[str, float] = REFERENCE_I) -> Verdict:
    """``run`` to convergence: both optima within the D band of the reference."""
    verdict = Verdict(attempted=1)
    try:
        rep = parse_run_report(text)
    except ValueError as exc:
        verdict.failures.append(str(exc))
        return verdict
    for name, lnl, ok in zip(("h0", "h1"), rep.lnl, rep.converged):
        ref = reference[name]
        if not ok:
            verdict.failures.append(f"{name} did not converge")
        # Both sides are printed to 6 decimals; the band is relative.
        tol = (D_BAND + FTOL) * abs(ref) + 2 * HALF_6DP
        if not abs(lnl - ref) <= tol:
            verdict.failures.append(
                f"{name} lnL {lnl} is {abs(lnl - ref):.2e} from the reference {ref} "
                f"(allowed {tol:.2e})"
            )
    verdict.failures += _lrt_failures(rep)
    return verdict


def check_run_budgeted(text: str, max_iterations: int) -> Verdict:
    """``run`` under an iteration budget: checks that hold on any optimizer path.

    Both lnL values are finite; H1 ≥ H0 within the stopping tolerance
    (H1 nests H0 and is warm-started from H0's optimum, and every
    accepted BFGS step decreases −lnL); the LRT section follows from the
    printed values; neither fit exceeded the budget.
    """
    verdict = Verdict(attempted=1)
    try:
        rep = parse_run_report(text)
    except ValueError as exc:
        verdict.failures.append(str(exc))
        return verdict
    lnl0, lnl1 = rep.lnl
    if not all(math.isfinite(v) for v in rep.lnl):
        verdict.failures.append(f"non-finite lnL: {rep.lnl}")
        return verdict
    tol = FTOL * abs(lnl0) + 2 * HALF_6DP
    if not lnl1 >= lnl0 - tol:
        verdict.failures.append(f"H1 lnL {lnl1} below H0 lnL {lnl0} by more than {tol:.1e}")
    if any(n > max_iterations for n in rep.iterations):
        verdict.failures.append(f"iterations {rep.iterations} exceed the budget {max_iterations}")
    verdict.failures += _lrt_failures(rep)
    return verdict


# ----------------------------------------------------------------------
# slimcodeml scan --survey --map --journal
# ----------------------------------------------------------------------
@dataclass
class SurveyRow:
    statistic: float
    p_chi2: float
    p_holm: float
    selected: bool


@dataclass
class SurveyReport:
    rows: Dict[str, SurveyRow]
    alpha: float
    n_selected: int
    #: branch label -> rows of its mapping table: (branch, is_foreground)
    mapping: Dict[str, List[Tuple[str, bool]]]
    wall_seconds: float


def parse_survey_report(text: str, gene_id: str) -> SurveyReport:
    lines = text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines) if ln.startswith("branch ") and "p (Holm)" in ln)
    except StopIteration:
        raise ValueError("survey report has no branch table") from None
    rows: Dict[str, SurveyRow] = {}
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        parts = line.split()
        if len(parts) < 5:
            raise ValueError(f"malformed survey row {line!r}")
        label = parts[0]
        if label in rows:
            raise ValueError(f"branch {label} reported twice")
        rows[label] = SurveyRow(
            statistic=float(parts[1]),
            p_chi2=float(parts[2]),
            p_holm=float(parts[3]),
            selected=" ".join(parts[4:]) == "POSITIVE SELECTION",
        )
    summary = re.search(
        rf"^(\d+) of \d+ branches under positive selection .*alpha = ({_FLOAT})\)", text, re.M
    )
    wall = re.search(r"^wall clock : ([\d.]+) s", text, re.M)
    if not summary or not wall:
        raise ValueError("survey report lacks its selection summary or wall clock")
    mapping: Dict[str, List[Tuple[str, bool]]] = {}
    current: Optional[str] = None
    in_table = False
    head = re.compile(rf"^  {re.escape(gene_id)}:(\S+):$")
    for line in lines:
        found = head.match(line)
        if found:
            current = found.group(1)
            mapping[current] = []
            in_table = False
            continue
        if current is None:
            continue
        if line.startswith("    branch ") and " fg " in line:
            in_table = True
            continue
        if in_table:
            parts = line.split()
            if not line.startswith("    ") or not parts or parts[0] == "foreground" or line.startswith("    ("):
                in_table = False
                continue
            mapping[current].append((parts[0], len(parts) > 1 and parts[1] == "#1"))
    return SurveyReport(
        rows=rows,
        alpha=float(summary.group(2)),
        n_selected=int(summary.group(1)),
        mapping=mapping,
        wall_seconds=float(wall.group(1)),
    )


def read_journal(text: str, gene_id: str) -> Dict[str, dict]:
    """Latest record per branch label (the journal's latest-wins rule)."""
    records: Dict[str, dict] = {}
    prefix = f"{gene_id}:"
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("kind") == "journal_header":
            continue
        gid = rec.get("gene_id", "")
        if gid.startswith(prefix):
            records[gid[len(prefix) :]] = rec
    return records


def holm(pvalues: Sequence[float]) -> List[float]:
    """Holm-Bonferroni step-down adjusted p-values (independent of the repo)."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * pvalues[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


def check_survey(report_text: str, journal_text: str, gene_id: str,
                 taxa: Sequence[str]) -> Verdict:
    """Every branch reported and journaled; Holm and mapping consistent.

    The tested branches of an unrooted binary tree over ``taxa`` number
    2n − 3 and include every leaf.  Per branch: a report row and a
    successful journal record agree on the statistic; the printed
    chi2 p-value follows from it; the printed Holm p-value and verdict
    follow from all printed p-values; a selected branch carries a
    mapping block whose table covers the tree with this branch as the
    only foreground.
    """
    expected = 2 * len(taxa) - 3
    verdict = Verdict(attempted=expected)
    try:
        rep = parse_survey_report(report_text, gene_id)
        journal = read_journal(journal_text, gene_id)
    except (ValueError, json.JSONDecodeError) as exc:
        verdict.failures.append(str(exc))
        verdict.failures *= expected
        return verdict

    labels = list(rep.rows)
    missing = [t for t in taxa if t not in rep.rows]
    extra = max(0, len(labels) - expected)
    for name in missing:
        verdict.failures.append(f"leaf branch {name} missing from the report")
    short = expected - len(labels) - len(missing)
    for _ in range(max(short, 0)):
        verdict.failures.append("an internal branch is missing from the report")
    if extra:
        verdict.failures.append(f"{extra} more branches reported than the tree has")

    printed_p = [rep.rows[b].p_chi2 for b in labels]
    recomputed = holm(printed_p)
    n_selected = 0
    for label, holm_p in zip(labels, recomputed):
        row = rep.rows[label]
        why = _survey_branch_failure(label, row, holm_p, rep, journal.get(label), expected)
        n_selected += row.selected
        if why:
            verdict.failures.append(f"{label}: {why}")
    if n_selected != rep.n_selected:
        verdict.failures.append(
            f"summary claims {rep.n_selected} selected, table marks {n_selected}"
        )
    return verdict


def _survey_branch_failure(
    label: str,
    row: SurveyRow,
    holm_p: float,
    rep: SurveyReport,
    record: Optional[dict],
    n_branches: int,
) -> Optional[str]:
    if record is None:
        return "no journal record"
    if record.get("error") or record.get("failure"):
        return f"journal records a failure: {record.get('error') or record.get('failure')}"
    lnl0, lnl1 = float(record["lnl0"]), float(record["lnl1"])
    if not (math.isfinite(lnl0) and math.isfinite(lnl1)):
        return "non-finite lnL in the journal"
    stat = max(2.0 * (lnl1 - lnl0), 0.0)
    if not abs(row.statistic - stat) <= HALF_4DP + 1e-9 * abs(stat):
        return f"report 2*dlnL {row.statistic} != journal 2*(lnl1-lnl0) {stat:.6f}"
    if not _p_consistent(row.p_chi2, row.statistic, HALF_4DP, HALF_4SIG):
        return f"p (chi2) {row.p_chi2} inconsistent with 2*dlnL {row.statistic}"
    # Printed p-values and Holm values each carry 4 significant digits.
    rel = 2 * HALF_4SIG
    if not abs(row.p_holm - holm_p) <= rel * max(row.p_holm, holm_p) + 1e-300:
        return f"p (Holm) {row.p_holm} but the printed p-values give {holm_p:.4g}"
    if abs(holm_p - rep.alpha) > rel * rep.alpha and row.selected != (holm_p < rep.alpha):
        return f"verdict {'selected' if row.selected else 'not selected'} contradicts Holm p {holm_p:.4g}"
    if row.selected:
        table = rep.mapping.get(label)
        if not table:
            return "selected but no mapping block"
        if len(table) != n_branches:
            return f"mapping table has {len(table)} of {n_branches} branches"
        fg = [b for b, is_fg in table if is_fg]
        if fg != [label]:
            return f"mapping block marks {fg} as foreground"
        if not record.get("mapping") or "error" in record["mapping"]:
            return "selected but the journal holds no mapping"
    return None
