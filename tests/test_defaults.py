"""The shipped defaults: one set, used everywhere, and right against ground truth."""

import inspect

import pytest

from repro import defaults
from repro.core.engine import SlimV2Engine, make_engine
from repro.datasets import make_dataset
from repro.io.ctl import ControlFile
from repro.optimize.ml import fit_branch_site_test
from repro.parallel.batch import analyze_genes, map_survey_candidates, scan_branches

#: Paper §IV-1: the largest relative lnL difference between CodeML and
#: SlimCodeML optima over datasets i–iv.
D_BAND = 5.5e-8
#: ``fit_model``'s stopping rule (relative change of −lnL).
FTOL = 1e-9
#: Dataset i fitted to convergence by the CodeML-comparator engine
#: (benchmarks/results/E-ACC_converged_fit.txt).
REFERENCE_I = {"h0": -2590.416087, "h1": -2583.859694}


def _default(func, name):
    return inspect.signature(func).parameters[name].default


class TestOneSetOfDefaults:
    def test_library_entry_points(self):
        for func in (analyze_genes, scan_branches, map_survey_candidates):
            assert _default(func, "engine") == defaults.ENGINE
        for func in (analyze_genes, scan_branches):
            assert _default(func, "incremental") is defaults.INCREMENTAL

    def test_control_file_and_factory(self):
        assert ControlFile().engine == defaults.ENGINE
        assert isinstance(make_engine(), SlimV2Engine)

    def test_default_engine_runs_level_order(self):
        assert make_engine().batched


class TestGroundTruth:
    def test_dataset_i_converges_to_the_reference_optimum(self):
        # The `run` default path, settings taken from the same places
        # `slimcodeml run` takes them: H0 and H1 must land within the
        # paper's band plus the stopping rule of the reference optimum
        # (1e-6 covers its two 6-decimal roundings).
        ds = make_dataset("i")
        ctl = ControlFile()
        engine = make_engine(ctl.engine)
        test = fit_branch_site_test(
            lambda model: engine.bind(
                ds.tree, ds.alignment, model, freq_method=ctl.freq_method,
                incremental=defaults.INCREMENTAL,
            ),
            seed=ctl.seed,
            max_iterations=ctl.max_iterations,
            start_overrides={"kappa": ctl.kappa},
        )
        for key, fit in (("h0", test.h0), ("h1", test.h1)):
            ref = REFERENCE_I[key]
            assert fit.converged, key
            assert fit.lnl == pytest.approx(ref, rel=0, abs=(D_BAND + FTOL) * abs(ref) + 1e-6)
