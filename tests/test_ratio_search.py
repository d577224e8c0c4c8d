"""The numerical ratio search, and the closed forms it confirms as optima."""

import math

import numpy as np
import pytest

from qcm.protocols import CouplingScheme, fidelity_curve, optimize_coupling_ratio

from ratio_search import search_coupling_ratio


class TestRatioSearch:
    def test_m4_symmetry_pair(self):
        low, high = search_coupling_ratio(4, "w_symmetry")
        assert low == pytest.approx(1.0, abs=1e-6)
        assert high == pytest.approx(3.0, abs=1e-6)

    def test_m3_separable_transfer(self):
        r = search_coupling_ratio(3, "separable_transfer")
        assert r == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_m9_upper_branch(self):
        _, high = search_coupling_ratio(9, "w_symmetry")
        assert high == pytest.approx(4.0, abs=1e-6)

    def test_target_fidelity_relative_accuracy_at_large_m(self):
        # the argmax of a smooth maximum is fixed only to ~sqrt(eps) relative,
        # so at M=256 the optimum lands about 1.1e-6 from sqrt(255)
        m = 256
        best = search_coupling_ratio(m, "target_fidelity")
        exact = optimize_coupling_ratio(m, "target_fidelity")
        assert abs(best - exact) / exact < 1e-6
        f_best = fidelity_curve(m, CouplingScheme.custom(best))[0]
        f_exact = fidelity_curve(m, CouplingScheme.custom(exact))[0]
        assert f_best == pytest.approx(f_exact, abs=1e-12)

    @pytest.mark.parametrize(
        "m", [2, 3, 4, 16, 7507, 7508, 133749, 133750, 10**6, 10**9, 2**40, 2**53]
    )
    def test_symmetry_roots_at_every_scale(self, m):
        # from M = 7508 on both roots could share one grid interval, and from
        # M = 133750 on they always did: "expected two symmetry ratios, found []"
        low, high = search_coupling_ratio(m, "w_symmetry")
        assert abs(low - (math.sqrt(m) - 1.0)) / (math.sqrt(m) - 1.0) <= 2e-9
        assert abs(high - (math.sqrt(m) + 1.0)) / (math.sqrt(m) + 1.0) <= 2e-9

    def test_iterates_are_pinned_at_m4(self):
        # stopping once the bracket stops shrinking leaves every search that
        # reached 1e-8 on the same iterates
        assert search_coupling_ratio(4, "w_symmetry") == (
            0.99999999817063001,
            2.9999999997329567,
        )
        assert search_coupling_ratio(4, "separable_transfer") == 1.7320508073594252
        assert search_coupling_ratio(4, "target_fidelity") == 1.7320508502339875

    @pytest.mark.parametrize(
        "m, objective, tol",
        [(2**52, "target_fidelity", 1e-3), (2**53, "separable_transfer", 1e-15)],
    )
    def test_search_ends_where_floats_are_coarser_than_1e_8(self, m, objective, tol):
        # near sqrt(M) ~ 7e7 adjacent floats lie 1.5e-8 apart, so the bracket
        # could never shrink below 1e-8 and these calls never returned
        exact = np.sqrt(m - 1.0)
        assert abs(search_coupling_ratio(m, objective) - exact) / exact < tol
