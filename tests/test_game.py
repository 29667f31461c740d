import numpy as np
import pytest

from hedgegame.game import (
    ConstantAdversary,
    MarkovWorstAdversary,
    PiecewiseRandomAdversary,
    SimParams,
    make_strategy,
    simulate,
    superhedge_check,
)
from hedgegame.hjb import GridSpec, ValueSurface, solve
from hedgegame.model import HedgeGameError, ModelSpec, make_finance_model, make_payoff
from hedgegame.regularize import SmoothSurface

from conftest import (
    bs_call_delta_logspace,
    bs_singleton_model,
    finance_spec,
    uncertain_vol_model,
)


def constant_surface(level=1.0, x_lo=-1.0, x_hi=1.0, nx=20, nt=10, T=1.0):
    grid = GridSpec(t_steps=nt, x_min=(x_lo,), x_max=(x_hi,), x_steps=(nx,))
    t = np.linspace(0.0, T, nt + 1)
    vals = np.full((nt + 1, nx + 1), level)
    pol = np.zeros_like(vals, dtype=np.int32)
    return ValueSurface(grid, "const", t, grid.axes(), vals, pol, 1, {})


def frozen_model(level=1.0):
    """Zero dynamics: X and Y never move; the wealth target is exact."""
    return ModelSpec(
        dim=1,
        mu_X=lambda t, x, a: np.zeros(np.asarray(x).shape),
        sigma_X=lambda t, x, a: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        mu_Y=lambda t, x, y, u, a: np.zeros(np.asarray(x).shape[:-1]),
        sigma_Y=lambda t, x, y, u, a: np.zeros(np.asarray(x).shape[:-1] + (1,)),
        u_hat=lambda t, x, y, z, a: np.zeros(np.asarray(z).shape),
        payoff_g=lambda x: np.full(np.asarray(x).shape[:-1], level),
        A_points=[np.array([0.0])],
        horizon_T=1.0,
        lipschitz_K=1.0,
    )


@pytest.fixture(scope="module")
def bs_surface():
    model = bs_singleton_model()
    grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
    return model, solve(model, grid)


@pytest.fixture(scope="module")
def uv_surface():
    model = uncertain_vol_model()
    grid = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))
    return model, solve(model, grid)


class TestStrategyMap:
    def test_constant_surface_zero_rule(self):
        model = bs_singleton_model()
        strat = make_strategy(constant_surface(), model)
        u = strat.rule(0.5, np.array([[0.1]]), np.array([1.0]), model.A_points[0])
        assert np.all(u == 0.0)

    def test_delta_matches_black_scholes(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf, model)
        for xq in np.linspace(-0.3, 0.3, 7):
            u = strat.rule(0.0, np.array([[xq]]), np.array([0.0]), model.A_points[0])[0, 0]
            want = bs_call_delta_logspace(np.exp(xq), 1.0, 0.2, 1.0) \
                - bs_call_delta_logspace(np.exp(xq), 1.4, 0.2, 1.0)
            assert abs(u - want) < 5e-3  # interpolation error of the 200x grid

    def test_rule_independent_of_wealth_and_adversary(self, uv_surface, rng):
        # finance preset: u = Dw regardless of (y, a)
        model, surf = uv_surface
        strat = make_strategy(surf, model)
        for _ in range(1000):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-1.0, 1.0, (1, 1))
            u0 = strat.rule(t, x, np.array([float(rng.normal())]), model.A_points[0])
            u1 = strat.rule(t, x, np.array([float(rng.normal())]), model.A_points[1])
            assert np.max(np.abs(u0 - u1)) <= 1e-10

    def test_grid_gradient_is_eval_p_bitwise(self, uv_surface, rng):
        _, surf = uv_surface
        xs = rng.uniform(-1.5, 1.5, (500, 1))
        for t in (0.0, 0.3712, 1.0):
            assert np.array_equal(surf.gradient(t, xs), surf.eval(t, xs).p)

    def test_smooth_strategy_hedges_with_certified_gradient(self, bs_surface):
        # the hedge reads the exact gradient of the mollified surface, not a
        # re-interpolated cache of it
        model, surf = bs_surface
        smooth = SmoothSurface(surf.t, surf.axes, surf.values, 0.05)
        strat = make_strategy(smooth, model)
        xs = np.linspace(-0.9, 0.9, 37).reshape(-1, 1)
        for t in (0.05, 0.37, 0.8):
            want = smooth.eval_batch(t, xs).p
            assert np.max(np.abs(strat.gradient(t, xs) - want)) <= 1e-12
            assert np.array_equal(smooth.fast_value_grad(t, xs)[1], strat.gradient(t, xs))

    def test_out_of_domain_clamped_and_counted(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf, model)
        before = strat.clamped
        strat.rule(0.5, np.array([[5.0]]), np.array([0.0]), model.A_points[0])
        assert strat.clamped == before + 1


class TestSimulate:
    def test_frozen_dynamics_zero_shortfall(self):
        model = frozen_model(level=1.0)
        strat = make_strategy(constant_surface(level=1.0), model)
        rep = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                       1.0, 500, 20, seed=3)
        assert rep.excluded_paths == 0
        assert np.all(rep.shortfall == 0.0)
        assert np.all(rep.terminal_gap == 0.0)

    def test_bitwise_deterministic(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf, model)
        y0 = surf.value(0.0, np.array([0.0]))
        a = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]), y0, 2000, 100, 11)
        b = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]), y0, 2000, 100, 11)
        assert np.array_equal(a.shortfall, b.shortfall)
        assert a.to_dict(0.02) == b.to_dict(0.02)

    def test_hedging_error_at_value_start(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf, model)
        y0 = surf.value(0.0, np.array([0.0]))
        rep = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                       y0, 10000, 400, seed=11)
        assert rep.excluded_paths == 0
        assert rep.shortfall_mean <= 3e-3  # relative to the unit spot scale
        assert rep.shortfall_prob(0.02) <= 0.05

    def test_shortfall_decay_order_half(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf, model)
        y0 = surf.value(0.0, np.array([0.0]))
        steps = np.array([100, 200, 400, 800])
        means = [
            simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                     y0, 4000, int(s), seed=13).shortfall_mean
            for s in steps
        ]
        slope = -np.polyfit(np.log(steps), np.log(means), 1)[0]
        assert 0.3 <= slope <= 0.7

    def test_surface_domination_reduces_shortfall(self, bs_surface):
        # same Brownian draws, richer start from a dominating surface
        model, surf = bs_surface
        grid = surf.grid
        hi = solve(model, grid, terminal=lambda x: model.payoff_g(x) + 0.05)
        s_lo = make_strategy(surf, model)
        s_hi = make_strategy(hi, model)
        lo_rep = simulate(model, s_lo, ConstantAdversary(0), 0.0, np.array([0.0]),
                          surf.value(0.0, np.array([0.0])), 3000, 200, seed=5)
        hi_rep = simulate(model, s_hi, ConstantAdversary(0), 0.0, np.array([0.0]),
                          hi.value(0.0, np.array([0.0])), 3000, 200, seed=5)
        assert hi_rep.shortfall_mean <= lo_rep.shortfall_mean + 1e-12

    def test_step_guard(self, bs_surface):
        model, surf = bs_surface
        with pytest.raises(HedgeGameError):
            simulate(model, make_strategy(surf, model), ConstantAdversary(0),
                     0.0, np.array([0.0]), 0.1, 10, 0, seed=1)


class TestAdversaries:
    def test_piecewise_random_non_anticipative(self, rng):
        n_steps, n_paths = 40, 64
        su = rng.random((n_steps, n_paths))
        cu = rng.random((n_steps, n_paths))
        base = PiecewiseRandomAdversary.controls_from_draws(su, cu, 3, 0.3)
        n = 17
        su2, cu2 = su.copy(), cu.copy()
        perm = rng.permutation(n_steps - n)
        su2[n:] = su[n:][perm]
        cu2[n:] = cu[n:][perm]
        spliced = PiecewiseRandomAdversary.controls_from_draws(su2, cu2, 3, 0.3)
        assert np.array_equal(base[:n], spliced[:n])

    def test_piecewise_random_in_range(self, rng):
        su = rng.random((30, 50))
        cu = rng.random((30, 50))
        ctl = PiecewiseRandomAdversary.controls_from_draws(su, cu, 4, 0.5)
        assert ctl.min() >= 0 and ctl.max() <= 3

    def test_constant_out_of_range_rejected(self, bs_surface):
        model, surf = bs_surface
        with pytest.raises(HedgeGameError, match="out of range"):
            simulate(model, make_strategy(surf, model), ConstantAdversary(5),
                     0.0, np.array([0.0]), 0.1, 10, 5, seed=1)

    def test_worst_requires_plain_policy(self, uv_surface):
        from hedgegame.regularize import solve_shaken
        model, surf = uv_surface
        grid = GridSpec(t_steps=150, x_min=(-1.8,), x_max=(1.8,), x_steps=(80,))
        shaken = solve_shaken(model, grid, 0.1)
        with pytest.raises(HedgeGameError, match="unshaken"):
            simulate(model, make_strategy(surf, model),
                     MarkovWorstAdversary(shaken.surface),
                     0.0, np.array([0.0]), 0.2, 10, 5, seed=1)


class TestSuperhedgeCheck:
    def test_constant_model_margin_zero_passes(self):
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=1.0), 1,
            [np.array([0.2])], 1.0, 0.2,
        )
        grid = GridSpec(t_steps=100, x_min=(-1.0,), x_max=(1.0,), x_steps=(50,))
        surf = solve(model, grid)
        sim = SimParams(x0=(0.0,), paths=400, steps=50, seed=5)
        check = superhedge_check(model, surf, 0.0, sim)
        assert check.passed
        assert all(r.shortfall_mean == 0.0 for r in check.reports)

    def test_undercapitalized_fails_against_worst(self, uv_surface):
        model, surf = uv_surface
        sim = SimParams(x0=(0.0,), paths=2000, steps=200, seed=9)
        check = superhedge_check(model, surf, -0.05, sim)
        assert not check.passed
        worst = [r for r in check.reports if r.adversary == "worst"][0]
        assert worst.shortfall_prob(0.01) >= 0.20

    def test_value_start_passes_all_adversaries(self, uv_surface):
        model, surf = uv_surface
        sim = SimParams(x0=(0.0,), paths=2000, steps=200, seed=9)
        check = superhedge_check(model, surf, 0.0, sim)
        assert check.passed
        assert {r.adversary for r in check.reports} == {
            "constant:0", "constant:1", "random:4", "worst",
        }
