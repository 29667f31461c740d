import numpy as np
import pytest

from hedgegame.dual import (
    ControlLattice,
    _Basis,
    _fit,
    _regress_yz,
    dpp_check,
    dual_value_lsmc,
    make_lattice,
)
from hedgegame.hjb import GridSpec, solve
from hedgegame.model import HedgeGameError, make_finance_model, make_payoff

from conftest import (
    bs_call,
    bs_call_spread,
    bs_singleton_model,
    finance_spec,
    uncertain_vol_model,
)


def constant_model(level=2.0):
    return make_finance_model(
        finance_spec(), make_payoff("constant", level=level), 1,
        [np.array([0.2])], 1.0, 0.2,
    )


class TestLattice:
    def test_knots_must_increase(self):
        with pytest.raises(HedgeGameError):
            ControlLattice((0.0, 0.5, 0.5, 1.0), ((np.array([0.2]), np.zeros(2)),))

    def test_gamma_nonempty(self):
        with pytest.raises(HedgeGameError):
            ControlLattice((0.0, 1.0), ())

    def test_make_lattice_zero_eps_has_zero_shifts(self):
        model = uncertain_vol_model()
        lat = make_lattice(model, 0.0, 4, 0.0)
        assert len(lat.gamma_points) == 2
        assert all(np.all(b == 0.0) for _, b in lat.gamma_points)

    def test_make_lattice_positive_eps_pairs(self):
        model = uncertain_vol_model()
        lat = make_lattice(model, 0.0, 2, 0.1)
        # two adverse points x five shake shifts
        assert len(lat.gamma_points) == 10


class TestDualValue:
    def test_constant_payoff_exact(self):
        model = constant_model(2.0)
        lat = make_lattice(model, 0.0, 2, 0.0, substeps=10)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 2000, 42)
        assert abs(est.value - 2.0) <= 1e-12
        assert est.std_error <= 1e-12

    def test_terminal_collapse(self):
        model = constant_model(2.0)
        lat = ControlLattice((1.0 - 1e-13, 1.0), ((np.array([0.2]), np.zeros(2)),), 5)
        est = dual_value_lsmc(model, 0.1, 1.0, [0.3], lat, 2, 100, 1)
        assert est.value == pytest.approx(2.2, abs=1e-12)
        assert est.std_error == 0.0

    def test_black_scholes_agreement(self):
        model = bs_singleton_model()
        want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
        lat = make_lattice(model, 0.0, 2, 0.0, substeps=50)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 40000, 7)
        assert abs(est.value - want) <= 2.0 * est.std_error + 0.01 * want

    def test_uncertain_vol_lower_bounds_pde(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))
        pde = solve(model, grid).value(0.0, np.array([0.0]))
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 40000, 11)
        assert est.value <= pde + 2.0 * est.std_error
        assert abs(est.value - pde) <= 2.0 * est.std_error + 0.01 * pde

    def test_knot_refinement_never_decreases_beyond_noise(self):
        model = uncertain_vol_model()
        ests = []
        for nk in (2, 4, 8):
            lat = make_lattice(model, 0.0, nk, 0.0, substeps=25)
            ests.append(dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 30000, 19))
        for a, b in zip(ests, ests[1:]):
            noise = 2.0 * np.hypot(a.std_error, b.std_error)
            assert b.value >= a.value - noise

    def test_eps_monotone_within_noise(self):
        model = uncertain_vol_model()
        e0 = dual_value_lsmc(model, 0.0, 0.0, [0.0],
                             make_lattice(model, 0.0, 2, 0.0, 25), 2, 20000, 5)
        e1 = dual_value_lsmc(model, 0.1, 0.0, [0.0],
                             make_lattice(model, 0.0, 2, 0.1, 25), 2, 20000, 5)
        noise = 2.0 * np.hypot(e0.std_error, e1.std_error)
        assert e0.value <= e1.value + noise
        # terminal data alone raises the dual by 2 eps
        assert e1.value == pytest.approx(e0.value + 0.2, abs=0.02)

    def test_gamma_doubling_never_decreases_beyond_noise(self):
        # richer control set: adverse singleton vs the full pair
        model = uncertain_vol_model()
        knots = tuple(np.linspace(0.0, 1.0, 3))
        zero = np.zeros(2)
        lat_small = ControlLattice(knots, ((model.A_points[0], zero),), 25)
        lat_full = ControlLattice(
            knots, ((model.A_points[0], zero), (model.A_points[1], zero)), 25,
        )
        small = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat_small, 2, 20000, 23)
        full = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat_full, 2, 20000, 23)
        noise = 2.0 * np.hypot(small.std_error, full.std_error)
        assert full.value >= small.value - noise

    def test_deterministic_given_seed(self):
        model = uncertain_vol_model()
        lat = make_lattice(model, 0.0, 2, 0.0, substeps=10)
        a = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 5000, 3)
        b = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 5000, 3)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_degree_guard(self):
        model = constant_model()
        lat = make_lattice(model, 0.0, 2, 0.0, 5)
        with pytest.raises(HedgeGameError):
            dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, -1, 100, 1)


class TestRegressionFallback:
    def test_rank_deficiency_reduces_degree(self):
        # x^2 == x on {0, 1}: the quadratic feature is collinear
        xs = np.array([[0.0], [1.0]] * 50)
        ys = xs[:, 0] * 2.0 + 1.0
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            basis, coef, fitted = _fit(_Basis(xs, 2), xs, ys)
        assert basis.degree < 2
        pred = basis.features(xs) @ coef
        assert np.array_equal(fitted, pred)
        assert np.allclose(pred, ys, atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_warning_per_deficient_cloud(self, dim):
        # every node of {0, 1}^d: degree 2 is deficient, degree 1 is not. The
        # y fit falls back once; the z fits and the caller's refit reuse the
        # basis it settled on, with the bits of fits made at degree 1
        rng = np.random.default_rng(3)
        xs = np.array(list(np.ndindex(*(2,) * dim)) * 50, dtype=float)
        ys, dW = rng.standard_normal(len(xs)), rng.standard_normal((len(xs), dim))
        with pytest.warns(RuntimeWarning, match="rank-deficient") as caught:
            basis, yhat, zhat = _regress_yz(xs, ys, dW, 0.25, 2)
            refit = _fit(basis, xs, yhat - 0.25 * zhat[:, 0])[2]
        assert len(caught) == 1 and basis.degree == 1
        one = _Basis(xs, 1)
        assert np.array_equal(yhat, _fit(one, xs, ys)[2])
        for k in range(dim):
            assert np.array_equal(zhat[:, k], _fit(one, xs, (ys - yhat) * dW[:, k] / 0.25)[2])
        assert np.array_equal(refit, _fit(one, xs, yhat - 0.25 * zhat[:, 0])[2])


class TestDppCheck:
    def test_constant_driver_zero_difference(self):
        model = constant_model(1.5)
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, lat, 2000, 3)
        assert rep.difference <= 1e-10

    def test_black_scholes_composition(self):
        model = bs_singleton_model()
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, lat, 30000, 3)
        want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
        assert rep.difference <= 2.0 * rep.combined_std_error + 0.01 * want

    def test_mid_time_must_be_knot(self):
        model = constant_model()
        lat = make_lattice(model, 0.0, 4, 0.0, 5)
        with pytest.raises(HedgeGameError, match="knot"):
            dpp_check(model, 0.0, 0.0, [0.0], 0.33, lat, 100, 1)

    def test_mid_time_in_range(self):
        model = constant_model()
        lat = make_lattice(model, 0.0, 4, 0.0, 5)
        with pytest.raises(HedgeGameError):
            dpp_check(model, 0.0, 0.0, [0.0], 1.5, lat, 100, 1)
