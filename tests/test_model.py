import dataclasses
import functools

import numpy as np
import pytest

import hedgegame
from hedgegame import model as model_module
from hedgegame.dual import _driver, _groups, make_lattice
from hedgegame.hjb import GridSpec, residual, solve
from hedgegame.model import (
    FinanceSpec,
    Generator,
    HedgeGameError,
    ModelError,
    ModelSpec,
    adverse_pairs,
    make_finance_model,
    make_payoff,
    market_read,
    min_generator_field,
    model_from_config,
    shake_lattice,
    validate_assumptions,
)

from conftest import (
    bs_singleton_model,
    closure_form_la,
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
    """One derivative pack (y, q, p, M) as the one-row field (y, q, p, M) of
    ``min_generator_field``."""
    p = np.full(d, float(p)) if np.isscalar(p) else np.asarray(p, float)
    M = float(M) * np.eye(d) if np.isscalar(M) else np.asarray(M, float)
    return np.array([float(y)]), np.array([float(q)]), p[None], M[None]


def at_node(model, t, x, pk, pairs=None):
    """``min_generator_field`` at the single node x: (min, argmin) as (float, int)."""
    best, idx = min_generator_field(model, t, np.asarray(x, float).reshape(1, -1), *pk, pairs=pairs)
    return float(best[0]), int(idx[0])


def la(model, t, x, pk, a):
    return at_node(model, t, x, pk, [(a, None)])[0]


def h_eps(model, t, x, pk, shake_points):
    return at_node(model, t, x, pk, adverse_pairs(model, shake_points))[0]


def spec_model(fin, dim=1, A_points=(np.array([0.2]),)):
    return make_finance_model(fin, make_payoff("constant", level=0.0), dim, list(A_points), 1.0, 0.5)


def cash_term_model(r_lend, r_borrow):
    """Vol 0.5 and mu = -gamma/2 = -0.125, both exact in binary: the hedge
    gain u.(mu + gamma/2) is 0, so mu_Y(t, x, y, u, a) is the cash term
    rho = [y - u.1]+ r_lend - [y - u.1]- r_borrow alone."""
    return spec_model(finance_spec(mu=-0.125, r_lend=r_lend, r_borrow=r_borrow), A_points=[np.array([0.5])])


class TestRho:
    def setup_method(self):
        self.model = cash_term_model(r_lend=0.02, r_borrow=0.05)
        self.a = self.model.A_points[0]

    def test_positive_cash_lends(self):
        x = np.zeros((1, 1))
        out = self.model.mu_Y(0.0, x, 1.0, np.array([[0.4]]), self.a)
        assert out[0] == pytest.approx(0.6 * 0.02, abs=1e-15)

    def test_negative_cash_borrows(self):
        x = np.zeros((1, 1))
        out = self.model.mu_Y(0.0, x, 0.4, np.array([[1.0]]), self.a)
        assert out[0] == pytest.approx(-0.6 * 0.05, abs=1e-15)

    def test_kink_point_is_zero(self):
        x = np.zeros((1, 1))
        out = self.model.mu_Y(0.0, x, 0.7, np.array([[0.7]]), self.a)
        assert out[0] == 0.0


class TestUHatFinance:
    def test_scalar_inversion(self):
        model = spec_model(finance_spec())
        u = model.u_hat(0.0, np.zeros(1), 0.0, np.array([0.1]), np.array([0.2]))
        assert u == pytest.approx(0.5, abs=1e-14)

    def test_zero_z(self):
        model = spec_model(finance_spec())
        u = model.u_hat(0.0, np.zeros(1), 0.0, np.array([0.0]), np.array([0.2]))
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
        u = spec_model(fin, dim=2).u_hat(0.0, np.zeros(2), 0.0, np.array([0.1, 0.2]), np.array([0.0]))
        assert np.allclose(u, [1.0, 1.0], atol=1e-14)

    def test_singular_sigma_reports_point(self):
        fin = FinanceSpec(
            mu=constant_mu(1),
            sigma=lambda t, x, a: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
            r_lend=constant_rate(0.0),
            r_borrow=constant_rate(0.0),
        )
        with pytest.raises(ModelError, match="singular"):
            spec_model(fin).u_hat(0.5, np.ones(1), 0.0, np.array([0.1]), np.array([0.3]))

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
    """The wealth drift at the delta hedge, as the game and the dual read
    it: the BSDE driver ``dual._driver`` at u = delta."""

    def test_zero_control_zero_rates(self):
        model = bs_singleton_model()
        out = _driver(model, (model.A_points[0], None), 0.0, np.zeros((1, 1)), np.array([1.0]), np.zeros((1, 1)))
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_unit_control(self):
        model = bs_singleton_model()
        out = _driver(model, (model.A_points[0], None), 0.0, np.zeros((1, 1)), np.array([1.0]), np.ones((1, 1)))
        assert out[0] == pytest.approx(0.02, abs=1e-15)

    def test_composes_rho_and_u_hat(self):
        # independent recomputation: drift = rho + u*(mu + gamma/2) at the hedge
        # u = delta = 1, which u_hat gives at z = sigma delta = 0.2, and
        # rho = 0.02 (y - u) at the one rate 0.02
        fin = finance_spec(mu=0.01, r_lend=0.02, r_borrow=0.02)
        model = make_finance_model(fin, make_payoff("constant", level=0.0), 1,
                                   [np.array([0.2])], 1.0, 0.25)
        a = model.A_points[0]
        out = _driver(model, (a, None), 0.0, np.zeros((1, 1)), np.array([2.0]), np.array([[1.0]]))
        u = model.u_hat(0.0, np.zeros((1, 1)), 2.0, np.array([[0.2]]), a)
        expect = 0.02 * (2.0 - u[0, 0]) + u[0, 0] * (0.01 + 0.02)
        assert out[0] == pytest.approx(float(expect), abs=1e-14)
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


class TestFrozenRead:
    """The read of a finance model through its FinanceSpec: one coefficient
    read whose wealth drift at the delta hedge, the driver the game and the
    dual read, equals mu_Y(t, x, y, delta, a) of the closures bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_closures_bitwise(self, dim, rng):
        model = skewed_vol_model(dim)
        x = rng.uniform(-1.0, 1.0, (200, dim))
        y = rng.uniform(-2.0, 2.0, 200)
        delta = rng.normal(0.0, 1.5, (200, dim))
        for a in model.A_points:
            mu, sig = market_read(model.finance, 0.4, x, a)[:2]
            assert np.array_equal(mu, model.mu_X(0.4, x, a))
            assert np.array_equal(sig, model.sigma_X(0.4, x, a))
            assert np.array_equal(_driver(model, (a, None), 0.4, x, y, delta), model.mu_Y(0.4, x, y, delta, a))
            cash = y - delta.sum(axis=-1)
            assert np.any(cash > 0.0) and np.any(cash < 0.0)  # both rates are used

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_row(self, dim):
        model = skewed_vol_model(dim)
        x, y, delta = np.full((1, dim), 0.3), np.array([0.7]), np.full((1, dim), 1.25)
        a = model.A_points[1]
        got = _driver(model, (a, None), 0.1, x, y, delta)
        assert got.shape == (1,)
        assert np.array_equal(got, model.mu_Y(0.1, x, y, delta, a))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_z_equals_row_by_row(self, dim, rng):
        # a stack (k,) + x.shape of deltas: each row's drift is its own row's
        model = skewed_vol_model(dim)
        x = rng.uniform(-1.0, 1.0, (20, dim))
        y = rng.uniform(-2.0, 2.0, 20)
        deltas = rng.normal(0.0, 1.5, (3, 20, dim))
        a = model.A_points[0]
        rows = np.array([[model.mu_Y(0.6, x[r:r + 1], y[r:r + 1], deltas[i, r:r + 1], a)[0]
                          for r in range(20)] for i in range(3)])
        assert np.array_equal(_driver(model, (a, None), 0.6, x, y, deltas), rows)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_vol_raises(self, dim):
        # the dual's delta targets need sigma^-T: its control groups fail closed
        fin = FinanceSpec(mu=constant_mu(dim),
                          sigma=lambda t, x, a: np.zeros(np.asarray(x).shape[:-1] + (dim, dim)),
                          r_lend=constant_rate(0.0), r_borrow=constant_rate(0.0))
        model = make_finance_model(fin, make_payoff("constant", level=0.0), dim,
                                   [np.array([0.2])], 1.0, 0.5)
        with pytest.raises(ModelError, match=r"singular volatility at t=0\.5, x=\[1\.( 1\.)?\], a=\[0\.2\]"):
            _groups(model, make_lattice(model, 0.5, 2, 0.0), 0.5, np.ones((3, dim)), 0)

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
        out = la(model, 0.0, np.zeros(2), pack(q=1.0, M=1.0, d=2), model.A_points[0])
        assert out == pytest.approx(-2.0, abs=1e-14)

    def test_zero_pack(self):
        model = bs_singleton_model()
        out = la(model, 0.0, np.zeros(1), pack(), model.A_points[0])
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_finance_drift_cancellation(self, rng):
        # La must equal rho(.,y,p,a) + gamma.p/2 - q - tr(sigma sigma^T M)/2
        fin = finance_spec(mu=0.07, r_lend=0.01, r_borrow=0.04)
        model = make_finance_model(fin, make_payoff("constant", level=0.0), 1,
                                   [np.array([0.2])], 1.0, 0.3)
        a = model.A_points[0]
        for _ in range(50):
            y, q = rng.normal(), rng.normal()
            p, M = rng.normal(), rng.normal()
            x = rng.normal(0.0, 1.0, 1)
            got = la(model, 0.1, x, pack(y=y, q=q, p=p, M=M), a)
            gam = 0.04
            r = max(y - p, 0.0) * 0.01 - max(p - y, 0.0) * 0.04  # the delta hedge u = p
            want = r + 0.5 * gam * p - q - 0.5 * gam * M
            assert got == pytest.approx(want, abs=1e-12)


class TestOperatorL:
    def test_singleton_equals_la(self):
        model = bs_singleton_model()
        pk = pack(y=0.3, q=0.1, p=0.5, M=0.2)
        v, idx = at_node(model, 0.2, np.zeros(1), pk)
        assert idx == 0
        assert v == la(model, 0.2, np.zeros(1), pk, model.A_points[0])

    def test_two_point_minimum(self):
        model = uncertain_vol_model()
        v, idx = at_node(model, 0.0, np.zeros(1), pack(M=1.0))
        assert v == pytest.approx(-0.045, abs=1e-14)
        assert idx == 1  # a = 0.3

    def test_matches_bruteforce_loop(self, rng):
        model = uncertain_vol_model(vols=(0.05, 0.1, 0.2, 0.25, 0.3))
        for _ in range(20):
            pk = pack(y=rng.normal(), q=rng.normal(), p=rng.normal(), M=rng.normal())
            v, idx = at_node(model, 0.4, np.zeros(1), pk)
            vals = [la(model, 0.4, np.zeros(1), pk, a) for a in model.A_points]
            assert v == min(vals)
            assert idx == int(np.argmin(vals))
            assert all(v <= w for w in vals)


class TestOperatorHEps:
    def test_zero_shake_equals_L(self):
        model = uncertain_vol_model()
        pk = pack(y=0.1, q=0.2, p=0.3, M=0.4)
        got = h_eps(model, 0.5, np.zeros(1), pk, shake_lattice(0.0, 1))
        want, _ = at_node(model, 0.5, np.zeros(1), pk)
        assert got == want

    def test_translation_invariance_constant_coeffs(self):
        model = uncertain_vol_model()
        pk = pack(y=0.1, q=0.2, p=0.3, M=0.4)
        got = h_eps(model, 0.5, np.zeros(1), pk, shake_lattice(0.25, 1))
        want, _ = at_node(model, 0.5, np.zeros(1), pk)
        assert got == pytest.approx(want, abs=1e-14)

    def test_brute_force_over_shifts(self):
        # sigma(t,x,a) = a * (1 + 0.1 sin x): shifted minima match a direct loop
        model = wavy_vol_model()
        eps = 0.05
        shakes = np.array([[dt, dx] for dt in (-eps, 0.0, eps) for dx in (-eps, 0.0, eps)
                           if dt * dt + dx * dx <= eps * eps + 1e-15])
        pk = pack(y=0.2, q=0.05, p=1.1, M=0.7)
        got = h_eps(model, 0.5, np.array([0.4]), pk, shakes)
        brute = min(
            at_node(model, min(max(0.5 + b[0], 0.0), 1.0), np.array([0.4 + b[1]]), pk)[0]
            for b in shakes
        )
        assert got == brute

    def test_below_L_when_origin_included(self, rng):
        model = uncertain_vol_model()
        for _ in range(10):
            pk = pack(y=rng.normal(), q=rng.normal(), p=rng.normal(), M=rng.normal())
            h = h_eps(model, 0.3, np.zeros(1), pk, shake_lattice(0.1, 1))
            l, _ = at_node(model, 0.3, np.zeros(1), pk)
            assert h <= l + 1e-15


class TestMinGeneratorField:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_shaken_field_matches_operator_H_eps(self, dim, rng):
        # H_eps at one node is the field's one-row slice: the field is row-wise
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
                row = (X[i:i + 1], y[i:i + 1], q[i:i + 1], p[i:i + 1], M[i:i + 1])
                assert best[i] == min_generator_field(model, t, *row, pairs=pairs)[0][0]
                per_pair = [min_generator_field(model, t, *row, pairs=[pair])[0][0] for pair in pairs]
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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_closed_form_equals_the_closure_form(self, dim):
        # La at the delta hedge, where mu cancels, against the closures'
        # mu_Y(u_hat(sigma^T p)) - q - mu.p - 1/2 Sig : M, hedge map and mu
        # included: sigma moves in t and x (lower triangular in d = 2, so the
        # cross term is on), mu is nonzero and moves in x, and c = y - p.1
        # takes both signs, so both rates enter
        base = drifting_vol_model(dim)
        fin = dataclasses.replace(base.finance, mu=lambda t, x, a: np.broadcast_to(
            (0.3 + 0.2 * np.cos(np.asarray(x)[..., :1])) * np.arange(1.0, dim + 1.0), np.shape(x)))
        model = make_finance_model(fin, base.payoff_g, dim, base.A_points, 1.0, 0.5)
        rng = np.random.default_rng(11)
        n = 400
        X = rng.uniform(-1.5, 1.5, (n, dim))
        y, q = rng.uniform(-2.0, 2.0, n), rng.normal(size=n)
        p, M = rng.normal(size=(n, dim)), rng.normal(size=(n, dim, dim))
        c = y - p.sum(axis=-1)
        assert np.any(c > 0.0) and np.any(c < 0.0)
        for t in (0.1, 0.7):
            for a in model.A_points:
                got = min_generator_field(model, t, X, y, q, p, M, pairs=[(a, None)])[0]
                want = closure_form_la(model, t, X, y, q, p, M, a)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("vols", [(0.1, 0.3), (0.3, 0.1)], ids=["nan-second", "nan-first"])
    def test_a_nan_row_makes_the_minimum_nan_in_any_order(self, vols):
        # the drift of a = 0.3 is NaN at x >= 0: the minimum is NaN there
        # whichever pair comes first, and the argmin names that pair
        def mu(t, x, a):
            return np.where((a[0] == 0.3) & (np.asarray(x)[..., 0] >= 0.0), np.nan, 0.0)[..., None]

        fin = dataclasses.replace(finance_spec(r_lend=0.02, r_borrow=0.05), mu=mu)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                                   [np.array([v]) for v in vols], 1.0, 0.3)
        X = np.linspace(-1.0, 1.0, 9)[:, None]
        n = len(X)
        best, idx = min_generator_field(model, 0.5, X, np.ones(n), np.zeros(n), np.full((n, 1), 0.4),
                                        np.full((n, 1, 1), 2.0))
        bad = X[:, 0] >= 0.0
        assert np.all(np.isnan(best[bad])) and np.all(np.isfinite(best[~bad]))
        assert np.all(idx[bad] == vols.index(0.3))

    @pytest.mark.parametrize("vols", [(0.2,), (0.1, 0.3)], ids=["one-pair", "two-pairs"])
    def test_a_later_call_leaves_the_last_result_alone(self, vols, rng):
        # the generator refills its scratch on every call; the (min, argmin)
        # it returns stay the caller's, unchanged by a call on another pack,
        # and equal to a fresh generator's
        model = uncertain_vol_model(vols=vols, r_lend=0.02, r_borrow=0.05)
        X = np.linspace(-1.0, 1.0, 11)[:, None]
        packs = [(rng.normal(size=11), rng.normal(size=11), rng.normal(size=(11, 1)),
                  rng.normal(size=(11, 1, 1)) ** 2) for _ in range(2)]
        generator = Generator(model)
        first = generator(0.5, X, *packs[0])
        before = [a.copy() for a in first]
        second = generator(0.5, X, *packs[1])
        assert all(np.array_equal(got, was) for got, was in zip(first, before))
        for got, pk in zip((first, second), packs):
            assert all(np.array_equal(g, f) for g, f in zip(got, min_generator_field(model, 0.5, X, *pk)))
        assert not np.array_equal(first[0], second[0])

    @pytest.mark.parametrize("n", [16, model_module._BYTES_COMPARED + 1], ids=["bytes", "int64-views"])
    def test_reads_compare_by_shape_and_bits(self, n):
        # a layer's read compares as bytes, a block's on int64 views: either
        # way equal NaN bits are equal, and -0.0 and 0.0 or shapes stay apart
        mu = np.linspace(-1.0, 1.0, n)[:, None]
        mu[0], mu[1] = 0.0, np.nan
        read = (mu, np.broadcast_to(0.2 * np.eye(1), (n, 1, 1)), np.full(n, 0.02), np.full(n, 0.05))
        same = tuple(np.array(r) for r in read)
        assert model_module._same_read(read, same)
        signed = (same[0].copy(),) + same[1:]
        signed[0][0] = -0.0
        assert not model_module._same_read(read, signed)
        assert not model_module._same_read(read, (same[0][:-1],) + same[1:])

    def test_a_read_whose_shape_changes_over_time_raises_naming_the_time(self):
        # a 1-d t writes each time's read into one array: a read that would
        # broadcast into it (shape (1,) in place of (n,) after t = 0.5) fails
        # closed, naming its time, in the residual's block of layers
        def r_lend(t, x, a):
            n = np.asarray(x).shape[:-1]
            return np.full(n if t <= 0.5 else (1,), 0.02)

        fin = dataclasses.replace(finance_spec(r_lend=0.02, r_borrow=0.05), r_lend=r_lend)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3)
        X = np.linspace(-1.0, 1.0, 9)[:, None]
        ts = np.array([0.25, 0.5, 0.75])
        lead = (len(ts),) + X.shape[:-1]
        with pytest.raises(ModelError, match=r"at t=0\.75, a=\[0\.1\] has shape \(1,\), not \(9,\)"):
            min_generator_field(model, ts, X, np.zeros(lead), np.zeros(lead),
                                np.full(lead + (1,), 0.1), np.zeros(lead + (1, 1)))
        surf = solve(model, GridSpec(t_steps=40, x_min=(-1.0,), x_max=(1.0,), x_steps=(20,)),
                     validate=False)  # a layer's read of shape (1,) broadcasts over its nodes
        with pytest.raises(ModelError, match=r"market read at t=0\.5[0-9]*, a=\[0\.1\] has shape \(1,\)"):
            residual(surf, model)

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

    def test_two_rate_worst_values(self):
        # constant coefficients: the analytic worst value of each check
        rep = validate_assumptions(uncertain_vol_model(r_lend=0.02, r_borrow=0.05))
        assert rep.ok, rep.summary()
        assert rep["bound_muX_sigmaX"].worst == pytest.approx(0.3, rel=1e-12)  # the largest vol
        assert rep["y_lipschitz_muY_sigmaY"].worst == pytest.approx(0.05, rel=1e-9)  # r_borrow
        # |mu + gamma/2 - r_borrow| / sigma at vol 0.1
        assert rep["lambda_bounded"].worst == pytest.approx(abs(0.005 - 0.05) / 0.1, rel=1e-9)
        for cid in ("x_lipschitz_muX_sigmaX", "frozen_read_matches", "lambda_x_independent"):
            assert rep[cid].worst == 0.0, cid

    def test_nan_sample_fails_its_check(self):
        # the drift breaks the Lipschitz bound for x < 0 and is NaN for x > 2: a NaN
        # sample must fail its check, not hide the other samples of its (t, a)
        def mu(t, x, a):
            x0 = np.asarray(x, dtype=float)[..., :1]
            return np.where(x0 > 2.0, np.nan, np.where(x0 < 0.0, 5.0 * x0, 0.0))

        fin = dataclasses.replace(finance_spec(), mu=mu)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1, [np.array([0.2])], 1.0, 0.2)
        rep = validate_assumptions(model)
        for cid, sign in (("x_lipschitz_muX_sigmaX", 1.0), ("bound_muX_sigmaX", 1.0), ("concavity_La", -1.0)):
            check = rep[cid]
            assert not check.passed and check.worst == sign * np.inf, cid
            assert check.witness is not None
        # the witness is a sample in the NaN region
        assert rep["bound_muX_sigmaX"].witness[1][0] > 2.0
        assert rep["concavity_La"].witness[1][0] > 2.0
        lip = rep["x_lipschitz_muX_sigmaX"].witness
        assert max(lip[1][0], lip[2][0]) > 2.0

    def test_sample_count_guard(self):
        with pytest.raises(ModelError):
            validate_assumptions(bs_singleton_model(), sample_count=0)

    def test_concavity_midpoint_violation_at_kink(self):
        # reversed rates make the cash term convex at the kink y = u.1
        model = cash_term_model(r_lend=0.05, r_borrow=0.02)
        a = model.A_points[0]
        x = np.zeros((1, 1))
        mid = model.mu_Y(0.0, x, 0.0, np.array([[0.0]]), a)[0]
        avg = 0.5 * (model.mu_Y(0.0, x, 1.0, np.array([[0.0]]), a)[0]
                     + model.mu_Y(0.0, x, -1.0, np.array([[0.0]]), a)[0])
        assert mid < avg - 1e-3  # convex kink: midpoint strictly below average

    def test_one_read_per_sample_set(self, monkeypatch):
        # each (t, a) reads the spec once on each of its two sample sets, once in
        # the concavity check's one Generator call on its three packs, and the
        # mu_Y closure that frozen_read_matches compares with reads it once more
        calls = []
        read = model_module.market_read
        monkeypatch.setattr(model_module, "market_read", lambda *args: calls.append(1) or read(*args))
        model = uncertain_vol_model(r_lend=0.02, r_borrow=0.05)
        assert validate_assumptions(model, sample_count=50).ok
        assert len(calls) == 3 * 4 * len(model.A_points)


class TestPackageExports:
    def test_all_resolves_and_star_binds_exactly_it(self):
        for name in hedgegame.__all__:
            assert hasattr(hedgegame, name), name
        namespace = {}
        exec("from hedgegame import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(hedgegame.__all__)


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


def finance_config(dim, kind="finance", **stanzas):
    """A config model section in d = ``dim``: constant coefficients (vol 0.2), except ``stanzas``."""
    finance = {"mu": {"type": "constant", "value": 0.0}, "sigma": {"type": "constant", "value": 0.2},
               "r_lend": {"type": "constant", "value": 0.0}, "r_borrow": {"type": "constant", "value": 0.0}}
    finance.update(stanzas)
    return {"kind": kind, "dim": dim, "A_points": [[0.25, 0.15][:dim]], "horizon_T": 1.0,
            "lipschitz_K": 0.5, "finance": finance, "payoff": {"type": "call", "strike": 1.0}}


STATIC_STANZAS = [
    pytest.param(dim, name, stanza, id=f"d{dim}-{name}-{stanza['type']}")
    for dim in (1, 2)
    for name, stanza in [("mu", {"type": "constant", "value": 0.03}), ("mu", {"type": "affine_in_a"}),
                         ("sigma", {"type": "constant", "value": 0.3}), ("sigma", {"type": "affine_in_a"}),
                         ("r_lend", {"type": "constant", "value": 0.02}), ("r_lend", {"type": "affine_in_a"}),
                         ("r_borrow", {"type": "constant", "value": 0.05}), ("r_borrow", {"type": "affine_in_a"})]
] + [pytest.param(2, "mu", {"type": "constant", "value": [0.01, -0.02]}, id="d2-mu-constant-vector"),
     pytest.param(2, "sigma", {"type": "constant", "value": [[0.2, 0.05], [0.0, 0.3]]}, id="d2-sigma-constant-matrix")]


class TestStaticMarker:
    """``FinanceSpec.static``: derived from the stanza types, on which the dual
    takes one exact step per knot interval."""

    @pytest.mark.parametrize("dim, name, stanza", STATIC_STANZAS)
    def test_constant_and_affine_stanzas_read_neither_t_nor_x(self, dim, name, stanza):
        model = model_from_config(finance_config(dim, **{name: stanza}))
        assert model.finance.static
        a = model.A_points[0]
        here = market_read(model.finance, 0.0, np.zeros((6, dim)), a)
        there = market_read(model.finance, 0.83, np.random.default_rng(5).normal(0.0, 3.0, (6, dim)), a)
        assert all(np.array_equal(u, v) for u, v in zip(here, there))

    @pytest.mark.parametrize("name", ["mu", "sigma", "r_lend", "r_borrow"])
    def test_a_tabulated_x_stanza_is_not_static(self, name):
        stanza = {"type": "tabulated_x", "x": [-1.0, 1.0], "values": [0.15, 0.25]}
        model = model_from_config(finance_config(1, "custom-tabulated", **{name: stanza}))
        assert not model.finance.static
        a = model.A_points[0]
        here, there = (market_read(model.finance, 0.0, np.full((1, 1), x), a) for x in (-0.5, 0.5))
        assert not all(np.array_equal(u, v) for u, v in zip(here, there))

    def test_closure_built_specs_and_copies_are_not_static(self):
        assert not finance_spec().static
        assert not bs_singleton_model().finance.static
        built = model_from_config(finance_config(1)).finance
        assert built.static
        assert not dataclasses.replace(built, sigma=lambda t, x, a: (1.0 + t) * built.sigma(t, x, a)).static
        with pytest.raises(TypeError):
            FinanceSpec(mu=built.mu, sigma=built.sigma, r_lend=built.r_lend, r_borrow=built.r_borrow, static=True)
