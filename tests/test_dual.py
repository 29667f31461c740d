import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from hedgegame.dual import (
    ControlLattice,
    _Basis,
    _feedback,
    _fit,
    _policy_rollout,
    _policy_value,
    _regress_yz,
    _rng,
    dpp_check,
    dual_value_lsmc,
    make_lattice,
    mid_knot,
)
from hedgegame.hjb import GridSpec, ValueSurface, solve
from hedgegame.model import (HedgeGameError, make_finance_model, make_payoff, model_from_config, shake_lattice,
                             shaken_payoff)

from conftest import (
    bs_call_spread,
    bs_singleton_model,
    finance_spec,
    policy_value_oracle,
    readme_sketch_model,
    rollout_oracle,
    uncertain_vol_model,
)

SKETCH_GRID = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))


def first(t, X):
    """The feedback of a one-control lattice: every path plays control 0."""
    return 0


def worst_surface(model, eps=0.0, grid=SKETCH_GRID):
    """The (shaken) solve whose argmin the dual plays, as ``cmd_dual`` builds it."""
    return solve(model, grid, terminal=shaken_payoff(model, eps),
                 shake_points=shake_lattice(eps, model.dim))


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
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 2000, 42, policy=first)
        assert abs(est.value - 2.0) <= 1e-12
        assert est.std_error <= 1e-12

    def test_terminal_collapse(self):
        model = constant_model(2.0)
        lat = ControlLattice((1.0 - 1e-13, 1.0), ((np.array([0.2]), np.zeros(2)),), 5)
        est = dual_value_lsmc(model, 0.1, 1.0, [0.3], lat, 2, 100, 1, policy=first)
        assert est.value == pytest.approx(2.2, abs=1e-12)
        assert est.std_error == 0.0

    def test_black_scholes_agreement(self):
        model = bs_singleton_model()
        want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
        lat = make_lattice(model, 0.0, 2, 0.0, substeps=50)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 40000, 7, policy=first)
        assert abs(est.value - want) <= 2.0 * est.std_error + 0.01 * want

    def test_uncertain_vol_lower_bounds_pde(self):
        model = uncertain_vol_model()
        surface = solve(model, SKETCH_GRID)
        pde = surface.value(0.0, np.array([0.0]))
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 40000, 11, policy=surface)
        assert est.value <= pde + 2.0 * est.std_error
        assert abs(est.value - pde) <= 2.0 * est.std_error + 0.01 * pde

    def test_knot_refinement_never_decreases_beyond_noise(self):
        model = uncertain_vol_model()
        surface = solve(model, SKETCH_GRID)
        ests = []
        for nk in (2, 4, 8):
            lat = make_lattice(model, 0.0, nk, 0.0, substeps=25)
            ests.append(dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 30000, 19, policy=surface))
        for a, b in zip(ests, ests[1:]):
            noise = 2.0 * np.hypot(a.std_error, b.std_error)
            assert b.value >= a.value - noise

    def test_eps_monotone_within_noise(self):
        # each eps plays the argmin of its own shaken solve
        model = uncertain_vol_model()
        e0 = dual_value_lsmc(model, 0.0, 0.0, [0.0], make_lattice(model, 0.0, 2, 0.0, 25), 2, 20000, 5,
                             policy=worst_surface(model, 0.0))
        e1 = dual_value_lsmc(model, 0.1, 0.0, [0.0], make_lattice(model, 0.0, 2, 0.1, 25), 2, 20000, 5,
                             policy=worst_surface(model, 0.1))
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
        small = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat_small, 2, 20000, 23, policy=first)
        full = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat_full, 2, 20000, 23,
                               policy=solve(model, SKETCH_GRID))
        noise = 2.0 * np.hypot(small.std_error, full.std_error)
        assert full.value >= small.value - noise

    def test_deterministic_given_seed(self):
        model = uncertain_vol_model()
        surface = solve(model, SKETCH_GRID)
        lat = make_lattice(model, 0.0, 2, 0.0, substeps=10)
        a = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 5000, 3, policy=surface)
        b = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 5000, 3, policy=surface)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_std_error_is_the_closed_form_of_the_path_mean(self):
        # value and standard error are the mean of the per-path values of one
        # rollout on the seed's generator and their std / sqrt(n), bit for bit
        model = uncertain_vol_model(vols=(0.1, 0.3), r_lend=0.02, r_borrow=0.05)
        surface = solve(model, SKETCH_GRID)
        lat = make_lattice(model, 0.0, 3, 0.0, substeps=5)
        n, seed = 3000, 9
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, n, seed, policy=surface)
        states, picks, dWs = _policy_rollout(model, lat, np.zeros((n, 1)), _feedback(surface, model, lat),
                                             _rng(seed))
        vals = _policy_value(model, lat, states, picks, dWs, shaken_payoff(model, 0.0), 2)
        assert est.value == vals.mean()
        assert est.std_error == np.std(vals) / np.sqrt(n)
        assert est.std_error > 0.0

    def test_one_path_has_zero_std_error_without_warning(self):
        model = uncertain_vol_model()
        lat = make_lattice(model, 0.0, 2, 0.0, substeps=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 1, 4, policy=first)
        assert np.isfinite(est.value) and est.std_error == 0.0

    def test_degree_guard(self):
        model = constant_model()
        lat = make_lattice(model, 0.0, 2, 0.0, 5)
        with pytest.raises(HedgeGameError):
            dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, -1, 100, 1, policy=first)


class TestReadmeSketchConvergence:
    """The README sketch (call spread 1 / 1.4, vols {0.1, 0.3}) at 20k paths:
    playing the solved surface's argmin, the dual rises toward the PDE
    price of the sketch's 400x200 grid from below as the lattice refines."""

    @pytest.mark.parametrize("rates", [(0.02, 0.05), (0.0, 0.0)], ids=["sketch-rates", "zero-rates"])
    def test_knot_ladder_rises_to_the_pde_price(self, rates):
        model = readme_sketch_model(*rates)
        surface = solve(model, SKETCH_GRID)
        pde = surface.value(0.0, np.array([0.0]))
        ests = [dual_value_lsmc(model, 0.0, 0.0, [0.0], make_lattice(model, 0.0, nk, 0.0), 2, 20000, 11,
                                policy=surface) for nk in (4, 8, 16, 32)]
        for a, b in zip(ests, ests[1:]):
            assert b.value >= a.value - 2.0 * np.hypot(a.std_error, b.std_error)
        assert all(e.value <= pde + 3.0 * e.std_error for e in ests)
        assert abs(ests[-1].value - pde) <= 2.0 * ests[-1].std_error + 0.01 * pde

    def test_dpp_composes_at_16_knots(self):
        model = readme_sketch_model()
        surface = solve(model, SKETCH_GRID)
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, make_lattice(model, 0.0, 16, 0.0), 20000, 11,
                        policy=surface)
        pde = surface.value(0.0, np.array([0.0]))
        assert rep.difference <= 2.0 * rep.combined_std_error + 0.01 * pde


class TestRegressionFallback:
    def test_rank_deficiency_reduces_degree(self):
        # x^2 == x on {0, 1}: the quadratic feature is collinear
        xs = np.array([[0.0], [1.0]] * 50)
        ys = xs[:, 0] * 2.0 + 1.0
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            basis, coef, fitted, _ = _fit(_Basis(xs, 2), xs, ys)
        assert basis.degree < 2
        pred = basis.features(xs) @ coef
        assert np.array_equal(fitted, pred)
        assert np.allclose(pred, ys, atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_warning_per_deficient_cloud(self, dim):
        # every node of {0, 1}^d: degree 2 is deficient, degree 1 is not. The
        # y fit falls back once; the delta fits and the caller's refit reuse
        # the basis it settled on, with the bits of fits made at degree 1
        # (sigma = I: the delta targets are (y - yhat) dW / dtau)
        rng = np.random.default_rng(3)
        xs = np.array(list(np.ndindex(*(2,) * dim)) * 50, dtype=float)
        ys, dW = rng.standard_normal(len(xs)), rng.standard_normal((len(xs), dim))
        groups = [(0, slice(None), lambda w: w)]
        with pytest.warns(RuntimeWarning, match="rank-deficient") as caught:
            basis, yhat, delta = _regress_yz(xs, ys, dW, 0.25, 2, groups)
            refit = _fit(basis, xs, yhat - 0.25 * delta[:, 0])[2]
        assert len(caught) == 1 and basis.degree == 1
        one = _Basis(xs, 1)
        assert np.array_equal(yhat, _fit(one, xs, ys)[2])
        for k in range(dim):
            assert np.array_equal(delta[:, k], _fit(one, xs, (ys - yhat) * dW[:, k] / 0.25)[2])
        assert np.array_equal(refit, _fit(one, xs, yhat - 0.25 * delta[:, 0])[2])


class TestDppCheck:
    def test_constant_driver_zero_difference(self):
        model = constant_model(1.5)
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, lat, 2000, 3, policy=first)
        assert rep.difference <= 1e-10

    def test_black_scholes_composition(self):
        model = bs_singleton_model()
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, lat, 30000, 3, policy=first)
        want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
        assert rep.difference <= 2.0 * rep.combined_std_error + 0.01 * want

    def test_mid_time_must_be_knot(self):
        model = constant_model()
        lat = make_lattice(model, 0.0, 4, 0.0, 5)
        with pytest.raises(HedgeGameError, match="knot"):
            dpp_check(model, 0.0, 0.0, [0.0], 0.33, lat, 100, 1, policy=first)

    def test_mid_time_in_range(self):
        model = constant_model()
        lat = make_lattice(model, 0.0, 4, 0.0, 5)
        with pytest.raises(HedgeGameError):
            dpp_check(model, 0.0, 0.0, [0.0], 1.5, lat, 100, 1, policy=first)

    @pytest.mark.parametrize("mid", [0.5 + 1e-7, 0.5 - 1e-9, 0.0, 1.0])
    def test_mid_time_is_a_knot_inside_the_horizon_or_raises(self, no_paths, mid):
        # a relative tolerance would take 0.5 + 1e-7 for the knot 0.5
        model = constant_model()
        lat = make_lattice(model, 0.0, 4, 0.0, 5)
        assert mid_knot(model, 0.0, 0.5, lat) == 2
        with pytest.raises(HedgeGameError, match="must be one of the lattice knots"):
            dpp_check(model, 0.0, 0.0, [0.0], mid, lat, 100, 1, policy=first)


def sketch_config(sigma=None):
    """The README sketch's model section; ``sigma`` replaces its affine_in_a
    volatility stanza (a tabulated_x one makes it custom-tabulated)."""
    return {"kind": "finance" if sigma is None else "custom-tabulated", "dim": 1,
            "A_points": [[0.1], [0.3]], "horizon_T": 1.0, "lipschitz_K": 0.3,
            "finance": {"mu": {"type": "constant", "value": 0.0},
                        "sigma": sigma or {"type": "affine_in_a"},
                        "r_lend": {"type": "constant", "value": 0.02},
                        "r_borrow": {"type": "constant", "value": 0.05}},
            "payoff": {"type": "call_spread", "strike": 1.0, "cap": 1.4}}


def above_zero(t, X):
    """A two-control feedback: the second control where the log-price is positive."""
    return (X[:, 0] > 0.0).astype(np.uint8)


class TestStaticStep:
    """A config model whose coefficients read neither t nor x takes one exact
    step per knot interval; every other model keeps its substeps."""

    def test_static_config_takes_one_step_bit_for_bit(self):
        model = model_from_config(sketch_config())
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        one = ControlLattice(lat.time_knots, lat.gamma_points, 1)
        assert lat.substeps == 1
        got = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 5000, 3, policy=above_zero)
        assert got == dual_value_lsmc(model, 0.0, 0.0, [0.0], one, 2, 5000, 3, policy=above_zero)
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, lat, 5000, 3, policy=above_zero)
        assert rep == dpp_check(model, 0.0, 0.0, [0.0], 0.5, one, 5000, 3, policy=above_zero)

    def test_tabulated_x_sigma_keeps_its_substeps_and_bits(self):
        model = model_from_config(sketch_config({"type": "tabulated_x", "x": [-1.0, 1.0],
                                                 "values": [0.15, 0.25]}))
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        assert lat.substeps == 25
        got = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 5000, 3, policy=above_zero)
        knots, gamma = lat.time_knots, lat.gamma_points
        assert got == dual_value_lsmc(model, 0.0, 0.0, [0.0], ControlLattice(knots, gamma, 25), 2, 5000, 3,
                                      policy=above_zero)
        assert got != dual_value_lsmc(model, 0.0, 0.0, [0.0], ControlLattice(knots, gamma, 1), 2, 5000, 3,
                                      policy=above_zero)

    @pytest.mark.parametrize("sigma", [None, {"type": "tabulated_x", "x": [-1.0, 1.0], "values": [0.15, 0.25]}],
                             ids=["static", "tabulated_x"])
    def test_substeps_below_one_raise_for_every_model(self, sigma):
        for model in (model_from_config(sketch_config(sigma)), readme_sketch_model()):
            with pytest.raises(HedgeGameError, match="substeps must be >= 1"):
                make_lattice(model, 0.0, 4, 0.0, substeps=0)


def run_dual(kind, t0, x0, policy=first, vols=(0.2,)):
    """The estimate (``lsmc``) or the DPP check (``dpp``, mid 0.5) from
    (t0, x0) under ``policy``, on knots from 0."""
    model = uncertain_vol_model(vols=vols)
    lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
    if kind == "lsmc":
        return dual_value_lsmc(model, 0.0, t0, x0, lat, 2, 200, 1, policy=policy)
    return dpp_check(model, 0.0, t0, x0, 0.5, lat, 200, 1, policy=policy)


class TestInputsFailClosed:
    @pytest.mark.parametrize("kind", ["lsmc", "dpp"])
    def test_x0_of_the_wrong_size_raises(self, kind):
        with pytest.raises(HedgeGameError, match="x0 needs 1 finite entries"):
            run_dual(kind, 0.0, [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["lsmc", "dpp"])
    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_x0_not_finite_raises_before_any_regression(self, capfd, kind, x):
        with pytest.raises(HedgeGameError, match="x0 needs 1 finite entries"):
            run_dual(kind, 0.0, [x])
        assert capfd.readouterr().err == ""  # no LAPACK complaint on stderr

    @pytest.mark.parametrize("kind, t0", [("lsmc", 0.5), ("dpp", 0.25), ("lsmc", 1.0)])
    def test_t0_off_the_first_knot_raises(self, kind, t0):
        with pytest.raises(HedgeGameError, match="first knot"):
            run_dual(kind, t0, [0.0])


@pytest.fixture
def no_paths(monkeypatch):
    """Fail any Euler segment: a check that passes under it ran before any
    path was drawn."""
    import hedgegame.dual as dual_mod

    def drawn(*args, **kwargs):
        raise AssertionError("a path was drawn")
    monkeypatch.setattr(dual_mod, "_euler_segment", drawn)


def truncated(surface, k):
    """The surface without its first k time layers."""
    return ValueSurface(surface.grid, surface.model_hash, surface.t[k:], surface.axes, surface.values[k:],
                        surface.policy[k:], surface.a_count, surface.meta)


class TestFeedbackFailsClosed:
    @pytest.fixture(scope="class")
    def two_controls(self):
        return solve(uncertain_vol_model(), SKETCH_GRID)

    @pytest.mark.parametrize("kind", ["lsmc", "dpp"])
    def test_surface_with_other_pairs_raises(self, no_paths, two_controls, kind):
        with pytest.raises(HedgeGameError, match="indexes 2 pairs"):
            run_dual(kind, 0.0, [0.0], policy=two_controls)

    @pytest.mark.parametrize("kind", ["lsmc", "dpp"])
    def test_surface_short_of_the_knots_raises(self, no_paths, two_controls, kind):
        with pytest.raises(HedgeGameError, match="spans"):
            run_dual(kind, 0.0, [0.0], policy=truncated(two_controls, 100), vols=(0.1, 0.3))

    @pytest.mark.parametrize("kind", ["lsmc", "dpp"])
    @pytest.mark.parametrize("index", [-1, 2], ids=["negative", "past-the-last"])
    def test_callable_out_of_range_raises_before_any_path(self, no_paths, kind, index):
        with pytest.raises(HedgeGameError, match=r"in \[0, 2\)"):
            run_dual(kind, 0.0, [0.0], policy=lambda t, X: np.full(len(X), index), vols=(0.1, 0.3))

    def test_callable_out_of_range_at_a_later_knot_raises(self):
        def late(t, X):
            return np.full(len(X), 0 if t < 0.5 else 2)
        with pytest.raises(HedgeGameError, match="at t = 0.5"):
            run_dual("lsmc", 0.0, [0.0], policy=late, vols=(0.1, 0.3))

    def test_neither_surface_nor_callable_raises(self, no_paths):
        with pytest.raises(HedgeGameError, match="ValueSurface or a callable"):
            run_dual("lsmc", 0.0, [0.0], policy=0)


class TestGroupedRoute:
    @pytest.mark.parametrize("dim", [1, 2], ids=["d1", "d2"])
    @pytest.mark.parametrize("vols", [(0.2,), (0.1, 0.3)], ids=["one-control", "two-controls"])
    def test_equals_the_masked_loop_bit_for_bit(self, vols, dim):
        # the rollout groups paths by control with game._split (one slice
        # when one control holds them all, as at the start point) and the
        # backward evaluation reads sigma and the driver per group: every
        # state, increment, index and value equals the boolean-mask loop
        model = uncertain_vol_model(vols=vols, r_lend=0.02, r_borrow=0.05, dim=dim)
        lat = make_lattice(model, 0.0, 3, 0.0, substeps=5)
        n, term = 3000, shaken_payoff(model, 0.0)
        start = np.broadcast_to(np.linspace(0.1, 0.2, dim), (n, dim))

        def policy(t, X):
            return (X[:, 0] > 0.1).astype(np.int64) * (len(vols) - 1)

        states, picks, dWs = _policy_rollout(model, lat, start, _feedback(policy, model, lat), _rng(3))
        want_states, want_picks, want_dWs = rollout_oracle(model, lat, start, policy, _rng(3))
        for got, want in zip(states + picks + dWs, want_states + want_picks + want_dWs):
            assert np.array_equal(got, want)
        assert all(len(np.unique(p)) == len(vols) for p in picks[1:])  # both groups after the start

        want = policy_value_oracle(model, lat, want_states, want_picks, want_dWs, term, 2)
        assert np.array_equal(_policy_value(model, lat, states, picks, dWs, term, 2), want)
        assert states == picks == dWs == []  # each knot's arrays dropped once read


class TestHeldMemory:
    @pytest.mark.parametrize("vols, bound", [((0.2,), 19), ((0.1, 0.3), 23)],
                             ids=["one-control", "two-controls"])
    def test_peak_in_path_arrays(self, vols, bound):
        # 20000 paths, 4 knots: a path array is one (n, 1) float array. The
        # start row, the rollout's states and increments, and one
        # regression's working set (design matrix, its least-squares copy,
        # fitted y, the delta targets, fitted in place, driver) peak at 18.6
        # path arrays with one control and 22.5 with two (tracemalloc): the
        # driver's market read on the larger group sets the peak. Holding the fitted clouds through the rollout, a
        # tiled start cloud and a feature matrix per fit took 34.3 with
        # either; fitting z = sigma^T delta beside its targets took one more.
        model = uncertain_vol_model(vols=vols, r_lend=0.02, r_borrow=0.05)
        surface = solve(model, SKETCH_GRID)
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
        n = 20000
        dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 100, 1, policy=surface)  # caches outside the count
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, n, 5, policy=surface)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * 8

    @pytest.mark.parametrize("mid", [None, 0.5], ids=["lsmc", "dpp"])
    def test_a_surface_the_caller_drops_is_freed_before_any_path(self, monkeypatch, mid):
        # the feedback keeps the policy grid alone (hjb.NearestPolicy): a
        # surface passed without a name is freed, values and all, before
        # the first rollout draws a path, in every leg of the DPP check
        import hedgegame.dual as dual_mod
        model = uncertain_vol_model(vols=(0.1, 0.3), r_lend=0.02, r_borrow=0.05)
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=2)
        refs, alive = [], []

        def surface():
            s = solve(model, SKETCH_GRID)
            refs.append(weakref.ref(s.values))
            return s

        def rollout(*args):
            alive.append(refs[0]() is not None)
            return _policy_rollout(*args)

        monkeypatch.setattr(dual_mod, "_policy_rollout", rollout)
        if mid is None:
            dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 500, 1, policy=surface())
        else:
            dpp_check(model, 0.0, 0.0, [0.0], mid, lat, 500, 1, 2, policy=surface())
        assert alive == [False] * (1 if mid is None else 3)
