"""Likelihood ratio test arithmetic."""

import numpy as np
import pytest
import scipy.stats

from repro.optimize.lrt import chi2_sf, likelihood_ratio_test


class TestLRT:
    def test_statistic(self):
        res = likelihood_ratio_test(-1010.0, -1005.0)
        assert res.statistic == pytest.approx(10.0)
        assert res.df == 1

    def test_chi2_pvalue(self):
        res = likelihood_ratio_test(-1010.0, -1005.0)
        assert res.pvalue_chi2 == pytest.approx(scipy.stats.chi2.sf(10.0, 1))

    def test_mixture_pvalue_is_half(self):
        res = likelihood_ratio_test(-1010.0, -1005.0)
        assert res.pvalue_mixture == pytest.approx(res.pvalue_chi2 / 2)

    def test_negative_statistic_clamped(self):
        res = likelihood_ratio_test(-1000.0, -1000.5)
        assert res.statistic == 0.0
        assert res.pvalue_chi2 == 1.0
        assert res.pvalue_mixture == 1.0

    def test_zero_statistic(self):
        res = likelihood_ratio_test(-1000.0, -1000.0)
        assert res.statistic == 0.0
        assert not res.significant()

    def test_significance_threshold(self):
        # 2*delta = 3.84 is the 5% critical value of chi2_1.
        just_below = likelihood_ratio_test(0.0, 3.84 / 2 - 0.01)
        just_above = likelihood_ratio_test(0.0, 3.84 / 2 + 0.01)
        assert not just_below.significant(0.05)
        assert just_above.significant(0.05)

    def test_mixture_less_conservative(self):
        # A statistic significant under the mixture but not under chi2.
        res = likelihood_ratio_test(0.0, 3.2 / 2)
        assert res.significant(0.05, conservative=False)
        assert not res.significant(0.05, conservative=True)

    def test_df_validated(self):
        with pytest.raises(ValueError):
            likelihood_ratio_test(-1.0, 0.0, df=0)

    def test_higher_df(self):
        res = likelihood_ratio_test(-10.0, -5.0, df=2)
        assert res.pvalue_chi2 == pytest.approx(scipy.stats.chi2.sf(10.0, 2))


class TestChi2Tail:
    @pytest.mark.parametrize("df", [1, 2])
    def test_closed_forms_match_scipy(self, df):
        # df = 1 is erfc(sqrt(x/2)), df = 2 is exp(-x/2); the grid spans
        # 2*delta from numerical noise to the deepest printable p-value.
        xs = np.logspace(-12, np.log10(1400.0), 400)
        got = np.array([chi2_sf(float(x), df) for x in xs])
        ref = scipy.stats.chi2.sf(xs, df)
        assert np.all(ref > 0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_other_df_falls_back_to_scipy(self):
        assert chi2_sf(7.5, 4) == pytest.approx(scipy.stats.chi2.sf(7.5, 4), rel=1e-14)

    def test_non_positive_statistic(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(-1.0, 2) == 1.0
