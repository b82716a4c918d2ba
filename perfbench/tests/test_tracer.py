"""Tracer arithmetic, wrapper installation and metric names."""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

import inputs
import run
import tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class ScriptedClock:
    """Returns the next scripted time on every call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self) -> float:
        return next(self.times)


def test_self_time_is_span_minus_covered_children():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9].
    t = tracer.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = t.enter("optimize", "fit_model")
    b = t.enter("engine", "log_likelihood")
    c = t.enter("expm", "transition_matrix_syrk")
    t.exit(c)
    t.exit(b)
    d = t.enter("engine", "log_likelihood")
    t.exit(d)
    t.exit(a)
    assert [s.self_s for s in (a, b, c, d)] == [3, 2, 1, 4]
    summary = t.summary()
    assert summary["optimize.self_s"] == 3
    assert summary["engine.eval_s"] == 7
    assert summary["engine.self_s"] == 6
    assert summary["expm.s"] == 1
    assert summary["root_s"] == 10
    final = tracer.finish(summary, traced_wall=12.5, untraced_wall=12.0)
    assert final["trace.unattributed_s"] == 2.5
    assert final["trace.overhead_s"] == 0.5
    assert "root_s" not in final


def test_nested_spans_of_one_layer_count_once():
    # decompose_guarded [0, 4] calling decompose [1, 3]: one eigensolve, 4 s.
    t = tracer.Tracer(clock=ScriptedClock([0, 1, 3, 4]))
    outer = t.enter("eigen", "decompose_guarded")
    inner = t.enter("eigen", "decompose")
    t.exit(inner)
    t.exit(outer)
    summary = t.summary()
    assert summary["eigen.decompositions"] == 1
    assert summary["eigen.s"] == 4


def test_probe_evaluations_are_those_inside_a_gradient():
    t = tracer.Tracer()
    lnl = t.wrap("engine", "log_likelihood", lambda x: -x)
    grad = t.wrap("optimize", "finite_difference_gradient",
                  lambda xs: [lnl(x) for x in xs])
    lnl(1.0)
    grad([1.0, 2.0, 3.0])
    summary = t.summary()
    assert summary["optimize.lnl_evals"] == 4
    assert summary["optimize.fd_probe_evals"] == 3
    assert summary["optimize.fd_probe_frac"] == 0.75


def test_a_raising_call_still_closes_its_span():
    t = tracer.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.wrap("engine", "log_likelihood", boom)()
    assert len(t.spans) == 1 and not t._open
    assert t.summary()["optimize.lnl_evals"] == 1


def test_install_wraps_and_restore_puts_originals_back(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def work():
        return 42

    class Base:
        def method(self):
            return 7

    class Child(Base):
        pass

    mod.work, mod.Base, mod.Child = work, Base, Child
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    t = tracer.Tracer()
    handle = tracer.install(
        t,
        targets=[("fake_layer", "work", "engine"), ("fake_layer:Child", "method", "engine")],
        captures=[],
    )
    assert mod.work is not work and mod.work() == 42
    assert Child().method() == 7 and "method" in vars(Child)
    assert len(t.spans) == 2
    handle.restore()
    assert mod.work is work
    assert "method" not in vars(Child) and Child().method() == 7


def test_install_restores_every_real_target():
    owners = {}
    for owner, attr, _ in tracer.TARGETS:
        owners[(owner, attr)] = vars(tracer._resolve(owner))[attr]
    for owner, attr in tracer.CAPTURES:
        owners[(owner, attr)] = vars(tracer._resolve(owner))[attr]
    handle = tracer.install(tracer.Tracer())
    for (owner, attr), original in owners.items():
        assert vars(tracer._resolve(owner))[attr] is not original, (owner, attr)
    handle.restore()
    for (owner, attr), original in owners.items():
        assert vars(tracer._resolve(owner))[attr] is original, (owner, attr)


def test_traced_cli_counts_repeat_exactly(tmp_path):
    """Two traced runs of one input give identical count metrics."""
    import repro.cli

    prefix = tmp_path / "tiny"
    assert repro.cli.main(["simulate", "--species", "4", "--codons", "20",
                           "--seed", "3", "--prefix", str(prefix)]) == 0
    args = ["run", "--seqfile", f"{prefix}.phy", "--treefile", f"{prefix}.nwk",
            "--max-iterations", "1", "--out", str(tmp_path / "report.txt")]
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        handle = tracer.install(t)
        try:
            assert repro.cli.main(args) == 0
        finally:
            handle.restore()
        summary = t.summary()
        units = dict(tracer.METRICS)
        counts.append({k: v for k, v in summary.items() if units.get(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["optimize.lnl_evals"] > counts[0]["optimize.fd_probe_evals"] > 0
    assert counts[0]["expm.operator_builds"] > 0
    assert counts[0]["pruning.clv_propagations"] > 0


def test_metric_names_match_the_contract_and_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(set(names)) == len(names)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in tracer.METRICS]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in tracer.METRICS]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_presentation_is_seeded_and_keeps_each_taxon_sequence(tmp_path):
    base = (["S1", "S2", "S3"], ["AAACCC", "AAAGGG", "TTTCCC"], "(S1:0.1,S2:0.2,S3:0.3);")
    taxa = [inputs.present(*base, seed, tmp_path / f"s{seed}") for seed in (1, 1, 2)]
    assert taxa[0] == taxa[1] and taxa[0] != taxa[2]
    from repro.alignment.parsers import parse_phylip_text

    names, seqs = parse_phylip_text((tmp_path / "s2.phy").read_text())
    tree = (tmp_path / "s2.nwk").read_text()
    by_length = dict(re.findall(r"([A-Z0-9]+):([\d.]+)", tree))
    original = {"AAACCC": "0.1", "AAAGGG": "0.2", "TTTCCC": "0.3"}
    assert {by_length[n] for n in names} == {"0.1", "0.2", "0.3"}
    for name, seq in zip(names, seqs):
        assert by_length[name] == original[seq]
