import dataclasses
import functools

import numpy as np
import pytest

from hedgegame.hjb import GridSpec, solve
from hedgegame.model import (
    DerivativePack,
    FinanceSpec,
    HedgeGameError,
    ModelError,
    ModelSpec,
    adverse_pairs,
    base_point,
    coefficients_at,
    make_finance_model,
    make_payoff,
    min_generator_field,
    model_from_config,
    mu_Y_hat,
    operator_H_eps,
    operator_L,
    operator_La,
    rho,
    shake_lattice,
    u_hat_finance,
    validate_assumptions,
)

from conftest import (
    bs_singleton_model,
    constant_mu,
    constant_rate,
    finance_spec,
    sigma_from_a,
    uncertain_vol_model,
)


def wavy_vol_model(dim=1):
    """sigma(t, x, a) = a (1 + 0.1 sin x_0) I: the adverse set {0.2, 0.3}."""

    def sigma(t, x, a):
        s = float(np.asarray(a).reshape(-1)[0]) * (1.0 + 0.1 * np.sin(np.asarray(x, float)[..., 0]))
        return s[..., None, None] * np.eye(dim)

    fin = FinanceSpec(mu=constant_mu(dim), sigma=sigma,
                      r_lend=constant_rate(0.0), r_borrow=constant_rate(0.0))
    return make_finance_model(fin, make_payoff("constant", level=0.0), dim,
                              [np.array([0.2]), np.array([0.3])], 1.0, 0.5)


def pack(y=0.0, q=0.0, p=0.0, M=0.0, d=1):
    p = np.full(d, float(p)) if np.isscalar(p) else np.asarray(p, float)
    M = float(M) * np.eye(d) if np.isscalar(M) else np.asarray(M, float)
    return DerivativePack(y=y, q=q, p=p, M=M)


class TestRho:
    def setup_method(self):
        self.fin = finance_spec(r_lend=0.02, r_borrow=0.05)

    def test_positive_cash_lends(self):
        x = np.zeros((1, 1))
        out = rho(0.0, x, 1.0, np.array([[0.4]]), self.fin, np.array([0.2]))
        assert out[0] == pytest.approx(0.6 * 0.02, abs=1e-15)

    def test_negative_cash_borrows(self):
        x = np.zeros((1, 1))
        out = rho(0.0, x, 0.4, np.array([[1.0]]), self.fin, np.array([0.2]))
        assert out[0] == pytest.approx(-0.6 * 0.05, abs=1e-15)

    def test_kink_point_is_zero(self):
        x = np.zeros((1, 1))
        out = rho(0.0, x, 0.7, np.array([[0.7]]), self.fin, np.array([0.2]))
        assert out[0] == 0.0


class TestUHatFinance:
    def test_scalar_inversion(self):
        fin = finance_spec()
        u = u_hat_finance(0.0, np.zeros(1), 0.0, np.array([0.1]), np.array([0.2]), fin)
        assert u == pytest.approx(0.5, abs=1e-14)

    def test_zero_z(self):
        fin = finance_spec()
        u = u_hat_finance(0.0, np.zeros(1), 0.0, np.array([0.0]), np.array([0.2]), fin)
        assert u == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_inversion_2d(self):
        fin = FinanceSpec(
            mu=constant_mu(2),
            sigma=lambda t, x, a: np.broadcast_to(
                np.diag([0.1, 0.2]), np.asarray(x).shape[:-1] + (2, 2)
            ),
            r_lend=constant_rate(0.0),
            r_borrow=constant_rate(0.0),
        )
        u = u_hat_finance(0.0, np.zeros(2), 0.0, np.array([0.1, 0.2]), np.array([0.0]), fin)
        assert np.allclose(u, [1.0, 1.0], atol=1e-14)

    def test_singular_sigma_reports_point(self):
        fin = FinanceSpec(
            mu=constant_mu(1),
            sigma=lambda t, x, a: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
            r_lend=constant_rate(0.0),
            r_borrow=constant_rate(0.0),
        )
        with pytest.raises(ModelError, match="singular"):
            u_hat_finance(0.5, np.ones(1), 0.0, np.array([0.1]), np.array([0.3]), fin)

    def test_inversion_identity_randomized(self, rng):
        model = uncertain_vol_model(r_lend=0.01, r_borrow=0.03)
        worst = 0.0
        for _ in range(10):
            x = rng.normal(0.0, 1.0, (1000, 1))
            y = rng.normal(0.0, 1.0, 1000)
            z = rng.normal(0.0, 1.0, (1000, 1))
            for a in model.A_points:
                u = model.u_hat(0.3, x, y, z, a)
                back = model.sigma_Y(0.3, x, y, u, a)
                worst = max(worst, float(np.max(np.abs(back - z))))
        assert worst <= 1e-10


class TestMuYHat:
    def test_zero_control_zero_rates(self):
        model = bs_singleton_model()
        out = mu_Y_hat(0.0, np.zeros((1, 1)), np.array([1.0]), np.zeros((1, 1)),
                       model.A_points[0], model)
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_unit_control(self):
        model = bs_singleton_model()
        out = mu_Y_hat(0.0, np.zeros((1, 1)), np.array([1.0]), np.array([[0.2]]),
                       model.A_points[0], model)
        assert out[0] == pytest.approx(0.02, abs=1e-15)

    def test_composes_rho_and_u_hat(self):
        # independent recomputation: u = z / sigma, drift = rho + u*(mu + gamma/2)
        fin = finance_spec(mu=0.01, r_lend=0.02, r_borrow=0.02)
        from hedgegame.model import make_finance_model, make_payoff
        model = make_finance_model(fin, make_payoff("constant", level=0.0), 1,
                                   [np.array([0.2])], 1.0, 0.25)
        a = model.A_points[0]
        out = mu_Y_hat(0.0, np.zeros((1, 1)), np.array([2.0]), np.array([[0.2]]), a, model)
        u = u_hat_finance(0.0, np.zeros((1, 1)), 2.0, np.array([[0.2]]), a, fin)
        expect = rho(0.0, np.zeros((1, 1)), 2.0, u, fin, a) + u[0, 0] * (0.01 + 0.02)
        assert out[0] == pytest.approx(float(expect[0]), abs=1e-14)
        assert out[0] == pytest.approx(0.05, abs=1e-14)


def skewed_vol_model(dim):
    """Two-rate market (2 % / 5 %) whose vol varies with x; in d = 2 it is
    lower triangular, so the hedge needs a full solve."""
    shape = np.array([[1.0, 0.0], [0.3, 1.0]])[:dim, :dim]

    def sigma(t, x, a):
        s = float(np.asarray(a).reshape(-1)[0]) * (1.0 + 0.1 * np.sin(np.asarray(x, float)[..., 0]))
        return s[..., None, None] * shape

    fin = FinanceSpec(mu=constant_mu(dim, 0.01), sigma=sigma,
                      r_lend=constant_rate(0.02), r_borrow=constant_rate(0.05))
    return make_finance_model(fin, make_payoff("call", strike=1.0), dim,
                              [np.array([0.2]), np.array([0.3])], 1.0, 0.5)


def drifting_vol_model(dim):
    """skewed_vol_model with its vol scaled by 1 + t, so every time reads its
    own coefficients."""
    base = skewed_vol_model(dim)
    sigma = base.finance.sigma
    fin = dataclasses.replace(base.finance, sigma=lambda t, x, a: (1.0 + t) * sigma(t, x, a))
    return make_finance_model(fin, base.payoff_g, dim, base.A_points, 1.0, 0.5)


def closure_drift(model, t, x, y, z, a):
    return model.mu_Y(t, x, y, model.u_hat(t, x, y, z, a), a)


class TestFrozenRead:
    """The read of a finance model through its FinanceSpec: one coefficient
    read whose hedged drift equals mu_Y(u_hat(...)) of the closures bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_closures_bitwise(self, dim, rng):
        model = skewed_vol_model(dim)
        x = rng.uniform(-1.0, 1.0, (200, dim))
        y = rng.uniform(-2.0, 2.0, 200)
        z = rng.normal(0.0, 0.3, (200, dim))
        for a in model.A_points:
            mu, sig, drift = coefficients_at(model, 0.4, x, a)
            assert np.array_equal(mu, model.mu_X(0.4, x, a))
            assert np.array_equal(sig, model.sigma_X(0.4, x, a))
            assert np.array_equal(drift(y, z), closure_drift(model, 0.4, x, y, z, a))
            cash = y - model.u_hat(0.4, x, y, z, a).sum(axis=-1)
            assert np.any(cash > 0.0) and np.any(cash < 0.0)  # both rates are used

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_row(self, dim):
        model = skewed_vol_model(dim)
        x, y, z = np.full((1, dim), 0.3), np.array([0.7]), np.full((1, dim), 0.25)
        a = model.A_points[1]
        got = coefficients_at(model, 0.1, x, a)[2](y, z)
        assert got.shape == (1,)
        assert np.array_equal(got, closure_drift(model, 0.1, x, y, z, a))
        assert np.array_equal(got, mu_Y_hat(0.1, x, y, z, a, model))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_z_equals_row_by_row(self, dim, rng):
        model = skewed_vol_model(dim)
        x = rng.uniform(-1.0, 1.0, (20, dim))
        y = rng.uniform(-2.0, 2.0, 20)
        zs = rng.normal(0.0, 0.3, (3, 20, dim))
        a = model.A_points[0]
        rows = np.array([[closure_drift(model, 0.6, x[r:r + 1], y[r:r + 1], zs[i, r:r + 1], a)[0]
                          for r in range(20)] for i in range(3)])
        assert np.array_equal(coefficients_at(model, 0.6, x, a)[2](y, zs), rows)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_vol_raises(self, dim):
        fin = FinanceSpec(mu=constant_mu(dim),
                          sigma=lambda t, x, a: np.zeros(np.asarray(x).shape[:-1] + (dim, dim)),
                          r_lend=constant_rate(0.0), r_borrow=constant_rate(0.0))
        model = make_finance_model(fin, make_payoff("constant", level=0.0), dim,
                                   [np.array([0.2])], 1.0, 0.5)
        with pytest.raises(ModelError, match="singular"):
            coefficients_at(model, 0.5, np.ones((3, dim)), model.A_points[0])[2](
                np.zeros(3), np.full((3, dim), 0.1))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_vol_at_one_stacked_time_names_it(self, dim):
        X = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 5)] * dim, indexing="ij"), axis=-1)
        bad = (2,) * dim  # the one node whose vol vanishes, and only at t = 0.5

        def sigma(t, x, a):
            s = np.broadcast_to(0.2 * np.eye(dim), x.shape[:-1] + (dim, dim)).copy()
            if t == 0.5:
                s[bad] = 0.0
            return s

        fin = FinanceSpec(mu=constant_mu(dim), sigma=sigma,
                          r_lend=constant_rate(0.0), r_borrow=constant_rate(0.0))
        model = make_finance_model(fin, make_payoff("constant", level=0.0), dim,
                                   [np.array([0.2])], 1.0, 0.5)
        ts = np.array([0.25, 0.5, 0.75])
        lead = (len(ts),) + X.shape[:-1]
        with pytest.raises(ModelError, match="singular") as err:
            min_generator_field(model, ts, X, np.zeros(lead), np.zeros(lead),
                                np.full(lead + (dim,), 0.1), np.zeros(lead + (dim, dim)))
        assert f"t=0.5, x={X[bad]}," in str(err.value)


class TestOperatorLa:
    def test_trace_arithmetic(self):
        # sigma = I (d=2) and mu = -gamma/2 with zero rates: the hedged drift
        # u.(mu + gamma/2) + rho is 0, so with p = 0, q = 1 and M = I, La = -2
        model = make_finance_model(finance_spec(dim=2, mu=-0.5), make_payoff("constant", level=0.0),
                                   2, [np.array([1.0])], 1.0, 2.0)
        out = operator_La(0.0, np.zeros(2), pack(q=1.0, M=1.0, d=2), model.A_points[0], model)
        assert out == pytest.approx(-2.0, abs=1e-14)

    def test_zero_pack(self):
        model = bs_singleton_model()
        out = operator_La(0.0, np.zeros(1), pack(), model.A_points[0], model)
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_finance_drift_cancellation(self, rng):
        # La must equal rho(.,y,p,a) + gamma.p/2 - q - tr(sigma sigma^T M)/2
        fin = finance_spec(mu=0.07, r_lend=0.01, r_borrow=0.04)
        from hedgegame.model import make_finance_model, make_payoff
        model = make_finance_model(fin, make_payoff("constant", level=0.0), 1,
                                   [np.array([0.2])], 1.0, 0.3)
        a = model.A_points[0]
        for _ in range(50):
            y, q = rng.normal(), rng.normal()
            p, M = rng.normal(), rng.normal()
            x = rng.normal(0.0, 1.0, 1)
            got = operator_La(0.1, x, pack(y=y, q=q, p=p, M=M), a, model)
            gam = 0.04
            r = rho(0.1, x.reshape(1, 1), y, np.array([[p]]), fin, a)[0]
            want = r + 0.5 * gam * p - q - 0.5 * gam * M
            assert got == pytest.approx(want, abs=1e-12)

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ModelError, match="symmetric"):
            DerivativePack(y=0.0, q=0.0, p=np.zeros(2), M=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestOperatorL:
    def test_singleton_equals_la(self):
        model = bs_singleton_model()
        pk = pack(y=0.3, q=0.1, p=0.5, M=0.2)
        v, idx = operator_L(0.2, np.zeros(1), pk, model)
        assert idx == 0
        assert v == operator_La(0.2, np.zeros(1), pk, model.A_points[0], model)

    def test_two_point_minimum(self):
        model = uncertain_vol_model()
        v, idx = operator_L(0.0, np.zeros(1), pack(M=1.0), model)
        assert v == pytest.approx(-0.045, abs=1e-14)
        assert idx == 1  # a = 0.3

    def test_matches_bruteforce_loop(self, rng):
        model = uncertain_vol_model(vols=(0.05, 0.1, 0.2, 0.25, 0.3))
        for _ in range(20):
            pk = pack(y=rng.normal(), q=rng.normal(), p=rng.normal(), M=rng.normal())
            v, idx = operator_L(0.4, np.zeros(1), pk, model)
            vals = [operator_La(0.4, np.zeros(1), pk, a, model) for a in model.A_points]
            assert v == min(vals)
            assert idx == int(np.argmin(vals))
            assert all(v <= w for w in vals)


class TestOperatorHEps:
    def test_zero_shake_equals_L(self):
        model = uncertain_vol_model()
        pk = pack(y=0.1, q=0.2, p=0.3, M=0.4)
        got = operator_H_eps(0.5, np.zeros(1), pk, 0.0, None, model)
        want, _ = operator_L(0.5, np.zeros(1), pk, model)
        assert got == want

    def test_translation_invariance_constant_coeffs(self):
        model = uncertain_vol_model()
        pk = pack(y=0.1, q=0.2, p=0.3, M=0.4)
        got = operator_H_eps(0.5, np.zeros(1), pk, 0.25, None, model)
        want, _ = operator_L(0.5, np.zeros(1), pk, model)
        assert got == pytest.approx(want, abs=1e-14)

    def test_brute_force_over_shifts(self):
        # sigma(t,x,a) = a * (1 + 0.1 sin x): shifted minima match a direct loop
        model = wavy_vol_model()
        eps = 0.05
        shakes = np.array([[dt, dx] for dt in (-eps, 0.0, eps) for dx in (-eps, 0.0, eps)
                           if dt * dt + dx * dx <= eps * eps + 1e-15])
        pk = pack(y=0.2, q=0.05, p=1.1, M=0.7)
        got = operator_H_eps(0.5, np.array([0.4]), pk, eps, shakes, model)
        brute = min(
            operator_L(min(max(0.5 + b[0], 0.0), 1.0), np.array([0.4 + b[1]]), pk, model)[0]
            for b in shakes
        )
        assert got == brute

    def test_below_L_when_origin_included(self, rng):
        model = uncertain_vol_model()
        for _ in range(10):
            pk = pack(y=rng.normal(), q=rng.normal(), p=rng.normal(), M=rng.normal())
            h = operator_H_eps(0.3, np.zeros(1), pk, 0.1, None, model)
            l, _ = operator_L(0.3, np.zeros(1), pk, model)
            assert h <= l + 1e-15

    def test_points_outside_ball_rejected(self):
        model = bs_singleton_model()
        with pytest.raises(ModelError, match="ball"):
            operator_H_eps(0.5, np.zeros(1), pack(), 0.1, np.array([[0.2, 0.0]]), model)


class TestMinGeneratorField:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_shaken_field_matches_operator_H_eps(self, dim, rng):
        model = wavy_vol_model(dim)
        eps = 0.05
        shakes = shake_lattice(eps, dim)
        pairs = adverse_pairs(model, shakes)
        n = 30
        X = rng.uniform(-1.5, 1.5, (n, dim))
        y, q = rng.normal(size=n), rng.normal(size=n)
        p = rng.normal(size=(n, dim))
        A = rng.normal(size=(n, dim, dim))
        M = A + np.swapaxes(A, -1, -2)
        for t in (0.4, 0.98):  # at 0.98 the +eps time shifts are clamped to T
            best, idx = min_generator_field(model, t, X, y, q, p, M, pairs=pairs)
            for i in range(n):
                pk = DerivativePack(y=y[i], q=q[i], p=p[i], M=M[i])
                assert best[i] == operator_H_eps(t, X[i], pk, eps, shakes, model)
                per_pair = [operator_La(*base_point(t, X[i], b, model.horizon_T), pk, a, model)
                            for a, b in pairs]
                assert idx[i] == int(np.argmin(per_pair))

    @pytest.mark.parametrize("dim", [1, 2], ids=["1-finance", "2-finance"])
    def test_times_stacked_equals_per_time(self, dim, rng):
        # a 1-d t with a leading layer axis on (y, q, p, M) over one mesh, as
        # hjb.residual reads a block of layers; -0.1 is clamped to t = 0
        model = drifting_vol_model(dim)
        ts = np.array([-0.1, 0.0, 0.35, 0.8, 1.0])
        X = np.stack(np.meshgrid(*[np.linspace(-1.5, 1.5, 9 - dim)] * dim, indexing="ij"), axis=-1)
        lead = (len(ts),) + X.shape[:-1]
        y, q = rng.uniform(-2.0, 2.0, lead), rng.normal(size=lead)
        p = rng.normal(0.0, 2.0, lead + (dim,))
        A = rng.normal(size=lead + (dim, dim))
        M = A + np.swapaxes(A, -1, -2)
        best, idx = min_generator_field(model, ts, X, y, q, p, M)
        assert best.shape == idx.shape == lead
        for i, t in enumerate(ts):
            b_i, j_i = min_generator_field(model, float(t), X, y[i], q[i], p[i], M[i])
            assert np.array_equal(best[i], b_i)
            assert np.array_equal(idx[i], j_i)
        assert set(np.unique(idx)) == {0, 1}

    def test_pairs_are_A_major_like_the_policy(self):
        model = wavy_vol_model()
        shakes = shake_lattice(0.05, 1)
        pairs = adverse_pairs(model, shakes)
        assert len(pairs) == len(model.A_points) * len(shakes)
        for j, (a, b) in enumerate(pairs):
            assert np.array_equal(a, model.A_points[j // len(shakes)])
            assert np.array_equal(b, shakes[j % len(shakes)])
        # a convex payoff makes the largest volatility worst: argmin pairs of the
        # field and policy entries of the shaken solve both land in its block
        model = uncertain_vol_model(vols=(0.1, 0.3), payoff_kind="call")
        pairs = adverse_pairs(model, shakes)
        grid = GridSpec(t_steps=40, x_min=(-1.0,), x_max=(1.0,), x_steps=(20,))
        surf = solve(model, grid, shake_points=shakes, validate=False)
        assert surf.a_count == len(pairs)
        n_s = len(shakes)
        near_money = np.abs(surf.axes[0]) < 0.3
        assert np.all(surf.policy[0][near_money] // n_s == 1)
        x = surf.axes[0][near_money].reshape(-1, 1)
        k = x.shape[0]
        _, idx = min_generator_field(model, 0.5, x, np.zeros(k), np.zeros(k), np.zeros((k, 1)),
                                     np.ones((k, 1, 1)), pairs=pairs)
        assert np.all(idx // n_s == 1)


class TestShakeLattice:
    def test_zero_eps_is_origin(self):
        assert shake_lattice(0.0, 1).shape == (1, 2)

    def test_axis_points_only(self):
        pts = shake_lattice(0.1, 1)
        # corners of the cube exceed the ball radius, only axis shifts survive
        assert pts.shape == (5, 2)
        assert np.all(np.sqrt((pts**2).sum(axis=1)) <= 0.1 + 1e-15)
        assert any(np.all(p == 0.0) for p in pts)


class TestValidateAssumptions:
    def test_finance_preset_passes(self):
        model = uncertain_vol_model(r_lend=0.02, r_borrow=0.05)
        rep = validate_assumptions(model, sample_count=200, rng_seed=1)
        assert rep.ok, rep.summary()

    def test_reversed_rates_report_concavity_witness(self):
        model = uncertain_vol_model(r_lend=0.05, r_borrow=0.02)
        rep = validate_assumptions(model, sample_count=400, rng_seed=2)
        assert not rep.ok
        bad = {c.id for c in rep.failed()}
        assert "concavity_La" in bad or "rates_order_rb_ge_rl" in bad
        assert rep["concavity_La"].witness is not None or rep["rates_order_rb_ge_rl"].witness is not None

    def test_constant_coefficients_zero_lipschitz(self):
        model = bs_singleton_model()
        rep = validate_assumptions(model, sample_count=100, rng_seed=3)
        assert rep["x_lipschitz_muX_sigmaX"].worst == pytest.approx(0.0, abs=1e-12)
        assert rep.ok

    def test_stale_closure_fails_closed(self):
        model = bs_singleton_model(vol=0.2)  # the read through finance.sigma: vol 0.2
        stale = dataclasses.replace(model, sigma_X=lambda t, x, a: np.broadcast_to(
            0.3 * np.eye(1), np.asarray(x).shape[:-1] + (1, 1)))
        grid = GridSpec(t_steps=50, x_min=(-1.0,), x_max=(1.0,), x_steps=(20,))
        assert not validate_assumptions(stale)["frozen_read_matches"].passed
        with pytest.raises(HedgeGameError, match="FAIL frozen_read_matches"):
            solve(stale, grid)
        with pytest.raises(ModelError, match="FinanceSpec"):
            dataclasses.replace(stale, finance=None)

    def test_wrapped_closures_keep_the_read_valid(self):
        # closures wrapped as a call tracer wraps them still return the same values
        def wrapped(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                return fn(*args, **kwargs)
            return inner

        model = bs_singleton_model(vol=0.2)
        traced = dataclasses.replace(model, **{c: wrapped(getattr(model, c)) for c in
                                               ("mu_X", "sigma_X", "mu_Y", "sigma_Y", "u_hat")})
        rep = validate_assumptions(traced)
        assert rep["frozen_read_matches"].passed and rep["frozen_read_matches"].worst == 0.0
        grid = GridSpec(t_steps=50, x_min=(-1.0,), x_max=(1.0,), x_steps=(20,))
        assert np.array_equal(solve(traced, grid).values, solve(model, grid).values)

    def test_sample_count_guard(self):
        with pytest.raises(ModelError):
            validate_assumptions(bs_singleton_model(), sample_count=0)

    def test_concavity_midpoint_violation_at_kink(self):
        # reversed rates make the cash term convex at the kink y = u.1
        fin = finance_spec(r_lend=0.05, r_borrow=0.02)
        a = np.array([0.2])
        x = np.zeros((1, 1))
        mid = rho(0.0, x, 0.0, np.array([[0.0]]), fin, a)[0]
        avg = 0.5 * (rho(0.0, x, 1.0, np.array([[0.0]]), fin, a)[0]
                     + rho(0.0, x, -1.0, np.array([[0.0]]), fin, a)[0])
        assert mid < avg - 1e-3  # convex kink: midpoint strictly below average


class TestModelSpec:
    def test_model_without_finance_spec_raises(self):
        # every solver reads a model through its FinanceSpec, so a model
        # without one is refused when it is built, directly or as a copy
        model = bs_singleton_model()
        closures = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        with pytest.raises(ModelError, match="FinanceSpec"):
            ModelSpec(**{**closures, "finance": None})
        with pytest.raises(ModelError, match="FinanceSpec"):
            dataclasses.replace(model, finance=None)
        with pytest.raises(ModelError, match="FinanceSpec"):
            dataclasses.replace(model, finance=model.sigma_X)


class TestModelHash:
    @staticmethod
    def tabulated_config(last_sigma):
        return {
            "kind": "custom-tabulated", "dim": 1, "A_points": [[0.2]],
            "horizon_T": 1.0, "lipschitz_K": 0.5,
            "finance": {
                "mu": {"type": "constant", "value": 0.0},
                "sigma": {"type": "tabulated_x", "x": [-8.0, -4.0, 0.0, 4.0, 8.0],
                          "values": [0.2, 0.2, 0.2, 0.2, last_sigma]},
                "r_lend": {"type": "constant", "value": 0.0},
                "r_borrow": {"type": "constant", "value": 0.0},
            },
            "payoff": {"type": "call", "strike": 1.0},
        }

    def test_models_differing_away_from_probe_points_hash_apart(self):
        # the sigmas agree on [-4, 4], where the coefficient probe points lie
        a = model_from_config(self.tabulated_config(0.2))
        b = model_from_config(self.tabulated_config(0.45))
        assert a.hash != b.hash

    def test_config_hash_ignores_key_order(self):
        cfg = self.tabulated_config(0.45)
        shuffled = dict(reversed(list(cfg.items())))
        assert model_from_config(cfg).hash == model_from_config(shuffled).hash
