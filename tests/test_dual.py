import gc
import tracemalloc

import numpy as np
import pytest

from hedgegame.dual import (
    ControlLattice,
    _Basis,
    _fit,
    _fit_tables,
    _policy_rollout,
    _policy_value,
    _regress_yz,
    _rngs,
    _scores,
    _training_cloud,
    dpp_check,
    dual_value_lsmc,
    make_lattice,
)
from hedgegame.hjb import GridSpec, solve
from hedgegame.model import HedgeGameError, make_finance_model, make_payoff, shaken_payoff

from conftest import (
    advance_oracle,
    bs_call,
    bs_call_spread,
    bs_singleton_model,
    dpp_oracle,
    dual_oracle,
    finance_spec,
    policy_value_oracle,
    training_oracle,
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
            basis, coef, fitted, _ = _fit(_Basis(xs, 2), xs, ys)
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
            basis, yhat, zhat, _ = _regress_yz(xs, ys, dW, 0.25, 2)
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


def run_dual(kind, t0, x0):
    """The estimate (``lsmc``) or the DPP check (``dpp``, mid 0.5) on one vol
    from (t0, x0), on knots from 0."""
    model = uncertain_vol_model(vols=(0.2,))
    lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
    if kind == "lsmc":
        return dual_value_lsmc(model, 0.0, t0, x0, lat, 2, 200, 1)
    return dpp_check(model, 0.0, t0, x0, 0.5, lat, 200, 1)


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

    @pytest.mark.parametrize("kind, t0", [("lsmc", 0.5), ("dpp", 0.25)])
    def test_t0_off_the_first_knot_raises(self, kind, t0):
        with pytest.raises(HedgeGameError, match="first knot"):
            run_dual(kind, t0, [0.0])


class TestOneControlRoute:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_the_masked_loop_bit_for_bit(self, dim):
        # with one control the training cloud draws no picks, the rollout
        # reads no value polynomial, _advance runs the whole cloud as one
        # segment and the driver reads every path at once: every state,
        # increment and policy value equals the masked per-control loop with
        # every path on control 0
        model = uncertain_vol_model(vols=(0.2,), r_lend=0.02, r_borrow=0.05, dim=dim)
        lat = make_lattice(model, 0.0, 3, 0.0, substeps=5)
        assert len(lat.gamma_points) == 1
        n, term, zeros = 3000, shaken_payoff(model, 0.0), np.zeros(3000, dtype=int)
        start = np.broadcast_to(np.linspace(0.1, 0.2, dim), (n, dim))

        clouds = _training_cloud(model, lat, start, *_rngs(1, 2))
        X, rng = start, _rngs(1, 2)[1]
        for j in range(3):
            X = advance_oracle(model, lat, j, X, zeros, rng)[0]
            assert np.array_equal(clouds[j + 1], X)

        tables, _ = _fit_tables(model, lat, list(clouds), 2, _rngs(2, 1)[0], term)

        states, picks, dWs = _policy_rollout(model, lat, start, tables, _rngs(3, 1)[0])
        assert picks == [None] * 3
        X, want_states, want_dWs, rng = start, [start], [], _rngs(3, 1)[0]
        for fits in tables:
            pick = np.argmax(_scores(fits, X), axis=0)
            assert not pick.any()
            X, dW = advance_oracle(model, lat, len(want_dWs), X, pick, rng)
            want_states.append(X)
            want_dWs.append(dW)
        for got, want in zip(states + dWs, want_states + want_dWs):
            assert np.array_equal(got, want)

        want = policy_value_oracle(model, lat, want_states, [zeros] * 3, want_dWs, term, 2)
        assert np.array_equal(_policy_value(model, lat, states, picks, dWs, term, 2), want)
        assert states == picks == dWs == []  # each knot's arrays dropped once read


@pytest.fixture
def fit_spy(monkeypatch):
    """Call counts of the training cloud and the regression pass."""
    import hedgegame.dual as dual_mod

    calls = {"_training_cloud": 0, "_fit_tables": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(dual_mod, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dual_mod, name, counted)
    return calls


class TestOneControlSkipsTheFit:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("terminal", ["payoff", "composed"])
    def test_equals_the_full_flow_bit_for_bit(self, fit_spy, dim, terminal):
        # one control leaves nothing to pick, so no training cloud or
        # regression pass runs, and the rollout and bootstrap streams keep
        # their bits: the estimate equals the full flow (training to T, fit,
        # a rollout whose picks read the fitted tables) with both rates and
        # with the composed leg's fitted terminal function
        model = uncertain_vol_model(vols=(0.2,), r_lend=0.02, r_borrow=0.05, dim=dim)
        lat = make_lattice(model, 0.0, 3, 0.0, substeps=5)
        x0, n = np.linspace(0.1, 0.2, dim), 3000
        term = None
        if terminal == "composed":
            inner = ControlLattice((1.0 / 3.0, 2.0 / 3.0, 1.0), lat.gamma_points, 5)
            rng_mix, rng_path, rng_branch = _rngs(4, 3)
            cloud = training_oracle(model, inner, np.broadcast_to(x0, (n, dim)), rng_mix, rng_path)
            term = _fit_tables(model, inner, cloud, 2, rng_branch, shaken_payoff(model, 0.0))[1]
        want = dual_oracle(model, 0.0, 0.0, x0, lat, 2, n, 9, term)
        fit_spy.update(_training_cloud=0, _fit_tables=0)
        est = dual_value_lsmc(model, 0.0, 0.0, x0, lat, 2, n, 9, terminal_fn=term)
        assert (est.value, est.std_error) == want
        assert fit_spy == {"_training_cloud": 0, "_fit_tables": 0}

    def test_two_controls_still_fit(self, fit_spy):
        model = uncertain_vol_model(vols=(0.1, 0.3), r_lend=0.02, r_borrow=0.05)
        lat = make_lattice(model, 0.0, 3, 0.0, substeps=5)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.1], lat, 2, 3000, 9)
        assert fit_spy == {"_training_cloud": 1, "_fit_tables": 1}
        assert (est.value, est.std_error) == dual_oracle(model, 0.0, 0.0, [0.1], lat, 2, 3000, 9)


class TestTrainingStopsAtTheLastFittedKnot:
    @pytest.mark.parametrize("vols", [(0.2,), (0.1, 0.3)], ids=["one-control", "two-controls"])
    @pytest.mark.parametrize("mid", [0.5, 0.75], ids=["middle-knot", "second-to-last-knot"])
    def test_dpp_equals_training_to_T(self, fit_spy, vols, mid):
        # no fit reads the state at the last knot, so every training cloud
        # stops one interval early (the inner one at mid 0.75 runs none) and
        # the outer cloud still runs to the mid knot; the inner fit runs
        # also with one control, since its value function is the composed
        # leg's terminal data
        model = uncertain_vol_model(vols=vols, r_lend=0.02, r_borrow=0.05)
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
        rep = dpp_check(model, 0.0, 0.0, [0.1], mid, lat, 3000, 6)
        fits = 1 if len(vols) == 1 else 3
        assert fit_spy == {"_training_cloud": fits + 1, "_fit_tables": fits}
        direct, composed = dpp_oracle(model, 0.0, 0.0, [0.1], mid, lat, 3000, 6)
        assert (rep.direct.value, rep.direct.std_error) == direct
        assert (rep.composed.value, rep.composed.std_error) == composed
        assert rep.difference == abs(direct[0] - composed[0])


class TestHeldMemory:
    @pytest.mark.parametrize("vols, bound", [((0.2,), 23), ((0.1, 0.3), 26)],
                             ids=["one-control", "two-controls"])
    def test_peak_in_path_arrays(self, vols, bound):
        # 20000 paths, 4 knots: a path array is one (n, 1) float array. The
        # start row, the training cloud or the rollout's states and
        # increments, and one regression's working set (design matrix, its
        # least-squares copy, fitted y and z, driver) peak at 19.1 path
        # arrays with one control and 21.6 with two (tracemalloc). Holding
        # the fitted clouds through the rollout, a tiled start cloud and a
        # feature matrix per fit took 34.3 with either.
        model = uncertain_vol_model(vols=vols, r_lend=0.02, r_borrow=0.05)
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=5)
        n = 20000
        dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 100, 1)  # caches outside the count
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, n, 5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * 8
