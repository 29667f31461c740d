"""Regression Monte Carlo dual bound for the worst-case price.

The dual value at (t0, x0) is the supremum, over piecewise-constant
adverse/shake controls on a knot lattice, of backward-SDE values whose
forward state runs under shifted coefficients and whose terminal data is the
payoff raised by 2 eps. Backward induction regresses one-step values on
polynomial features of the forward state (with the martingale-increment
estimator for the Z slot) and takes the pointwise maximum across controls;
with eps = 0 the estimate converges to the primal PDE price from below as
the lattice refines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import HedgeGameError, ModelSpec, adverse_pairs, base_point, mu_Y_hat, shake_lattice

_BOOTSTRAP = 200


@dataclass(frozen=True)
class ControlLattice:
    """Knot grid and control points for piecewise-constant adverse play."""

    time_knots: tuple
    gamma_points: tuple  # pairs (a_point, base-point shift in R^{d+1})
    substeps: int = 25

    def __post_init__(self):
        knots = tuple(float(t) for t in self.time_knots)
        object.__setattr__(self, "time_knots", knots)
        if len(knots) < 2 or any(b <= a for a, b in zip(knots, knots[1:])):
            raise HedgeGameError("time_knots must be strictly increasing with >= 2 entries")
        gp = tuple(
            (np.asarray(a, dtype=float).reshape(-1), np.asarray(b, dtype=float).reshape(-1))
            for a, b in self.gamma_points
        )
        object.__setattr__(self, "gamma_points", gp)
        if len(gp) == 0:
            raise HedgeGameError("gamma_points must be nonempty")
        if self.substeps < 1:
            raise HedgeGameError("substeps must be >= 1")


def make_lattice(model: ModelSpec, t0: float, n_intervals: int, eps: float,
                 substeps: int = 25) -> ControlLattice:
    """Uniform knots on [t0, T]; controls = adverse points x shake lattice."""
    knots = np.linspace(t0, model.horizon_T, n_intervals + 1)
    gamma = adverse_pairs(model, shake_lattice(eps, model.dim))
    return ControlLattice(tuple(knots), tuple(gamma), substeps)


@dataclass
class DualEstimate:
    value: float
    std_error: float
    n_paths: int
    basis_degree: int
    knot_count: int
    eps: float
    seed: int

    def to_dict(self):
        return {
            "value": self.value, "std_error": self.std_error,
            "n_paths": self.n_paths, "basis_degree": self.basis_degree,
            "knot_count": self.knot_count, "eps": self.eps, "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# polynomial regression helpers
# ---------------------------------------------------------------------------


class _Basis:
    """Tensor monomials of the state, standardised for conditioning."""

    def __init__(self, xs: np.ndarray, degree: int):
        self.degree = int(degree)
        self.mean = xs.mean(axis=0)
        self.std = np.where(xs.std(axis=0) > 1e-12, xs.std(axis=0), 1.0)
        d = xs.shape[1]
        self.powers = [p for p in product(range(self.degree + 1), repeat=d)]

    def features(self, xs: np.ndarray) -> np.ndarray:
        z = (xs - self.mean) / self.std
        cols = [np.prod([z[:, i] ** p[i] for i in range(z.shape[1])], axis=0)
                for p in self.powers]
        return np.stack(cols, axis=1)


def _fit(basis: _Basis, xs: np.ndarray, ys: np.ndarray):
    """Least squares onto the basis, reducing degree on rank deficiency.

    Returns the basis actually used, its coefficients and the fitted values.
    """
    B = basis.features(xs)
    coef, _, rank, _ = np.linalg.lstsq(B, ys, rcond=None)
    if rank < B.shape[1] and basis.degree > 0:
        warnings.warn(
            f"rank-deficient regression (rank {rank} < {B.shape[1]}); "
            f"falling back to degree {basis.degree - 1}",
            RuntimeWarning,
        )
        smaller = _Basis(xs, basis.degree - 1)
        return _fit(smaller, xs, ys)
    return basis, coef, B @ coef


def _scores(fits, xs: np.ndarray) -> np.ndarray:
    """Per-control regression polynomials read at xs, stacked on axis 0."""
    return np.stack([b.features(xs) @ c for b, c in fits], axis=0)


def _regress_yz(xj, y_next, dW, dtau, degree):
    """One regression BSDE step: conditional y and martingale-increment z.

    A collapsed cloud (every path at one point) is fitted with constants.
    Returns the basis used, so the caller can regress its own target on it.
    """
    deg = 0 if bool(np.all(xj.std(axis=0) < 1e-12)) else degree
    basis = _Basis(xj, deg)
    yhat = _fit(basis, xj, y_next)[2]
    resid = y_next - yhat
    zhat = np.empty_like(dW)
    for kdim in range(dW.shape[1]):
        zhat[:, kdim] = _fit(basis, xj, resid * dW[:, kdim] / dtau)[2]
    return basis, yhat, zhat


# ---------------------------------------------------------------------------
# forward segments under shifted coefficients
# ---------------------------------------------------------------------------


def _euler_segment(model, gamma, t_from, t_to, X0, substeps, rng):
    """Euler forward run under one control; returns endpoint and summed dW."""
    a, b = gamma
    n, d = X0.shape
    dt = (t_to - t_from) / substeps
    sq = np.sqrt(dt)
    X = X0.copy()
    dW_sum = np.zeros((n, d))
    for m in range(substeps):
        s = t_from + m * dt
        t_eff, x_eff = base_point(s, X, b, model.horizon_T)
        dW = rng.standard_normal((n, d)) * sq
        # mu and sigma alone: a full market_read would add two path-sized rate arrays
        mu = np.asarray(model.finance.mu(t_eff, x_eff, a), dtype=float)
        sig = np.asarray(model.finance.sigma(t_eff, x_eff, a), dtype=float)
        X = X + mu * dt + np.einsum("...ij,...j->...i", sig, dW)
        dW_sum += dW
    return X, dW_sum


def _driver(model, gamma, t, xs, ys, zs):
    """Hedged wealth drift at the shifted base point (the BSDE driver)."""
    a, b = gamma
    t_eff, x_eff = base_point(t, xs, b, model.horizon_T)
    return np.asarray(mu_Y_hat(t_eff, x_eff, ys, zs, a, model), dtype=float)


def _advance(model, lattice, j, X, pick, rng):
    """Run every path over knot interval j under its control index ``pick``.

    Controls run in index order, one Euler segment per control that has
    paths, so the Brownian stream is consumed in that order. Returns the
    states at knot j + 1 and the per-path Brownian sums.
    """
    knots = lattice.time_knots
    X_next = np.empty_like(X)
    dW = np.empty_like(X)
    for i, gamma in enumerate(lattice.gamma_points):
        mask = pick == i
        if np.any(mask):
            X_next[mask], dW[mask] = _euler_segment(
                model, gamma, knots[j], knots[j + 1], X[mask], lattice.substeps, rng)
    return X_next, dW


# ---------------------------------------------------------------------------
# backward induction
# ---------------------------------------------------------------------------


def _rngs(seed, n):
    """n independent Philox generators spawned from one seed."""
    return [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(int(seed)).spawn(n)]


def _training_cloud(model, lattice, X, rng_mix, rng_path):
    """Forward states at every knot from the start cloud X (n_paths, d)
    under uniformly mixed controls."""
    clouds = [X]
    for j in range(len(lattice.time_knots) - 1):
        pick = rng_mix.integers(0, len(lattice.gamma_points), X.shape[0])
        X, _ = _advance(model, lattice, j, X, pick, rng_path)
        clouds.append(X)
    return clouds


def _terminal_payoff(model, eps):
    def terminal_fn(xs):
        return np.asarray(model.payoff_g(xs), dtype=float) + 2.0 * eps

    return terminal_fn


def _fit_tables(model, lattice, clouds, degree, rng_branch, terminal_fn):
    """Backward regression sweep over knots.

    At each knot the one-step BSDE value under every control is regressed on
    state features and the pointwise maximum of the fitted polynomials
    becomes the continuation function. Returns the per-knot per-control
    value fits plus the knot-0 continuation function.
    """
    knots = lattice.time_knots
    tables = [None] * (len(knots) - 1)
    V_next = terminal_fn
    for j in range(len(knots) - 2, -1, -1):
        xj = clouds[j]
        dtau = knots[j + 1] - knots[j]
        fits = []
        for gamma in lattice.gamma_points:
            x_end, dW = _euler_segment(model, gamma, knots[j], knots[j + 1],
                                       xj, lattice.substeps, rng_branch)
            basis, yhat, zhat = _regress_yz(
                xj, np.asarray(V_next(x_end), dtype=float), dW, dtau, degree)
            f = _driver(model, gamma, knots[j], xj, yhat, zhat)
            fits.append(_fit(basis, xj, yhat - dtau * f)[:2])
        tables[j] = fits
        V_next = lambda xs, fits=fits: _scores(fits, xs).max(axis=0)
    return tables, V_next


def _policy_rollout(model, lattice, X, tables, rng):
    """Simulate fresh paths from the start cloud X under the fitted policy.

    Per knot each path plays the control whose fitted value polynomial is
    largest (ties to the lowest index). Returns the per-knot states, the
    chosen control indices and the per-segment Brownian sums.
    """
    states, picks, dWs = [X], [], []
    for j, fits in enumerate(tables):
        pick = np.argmax(_scores(fits, X), axis=0)
        X, dW = _advance(model, lattice, j, X, pick, rng)
        states.append(X)
        picks.append(pick)
        dWs.append(dW)
    return states, picks, dWs


def _policy_value(model, lattice, states, picks, dWs, terminal_fn, degree):
    """Backward BSDE evaluation along the frozen-policy paths.

    Conditional (y, z) are re-regressed on the policy's own state
    distribution, so the driver correction is measure-consistent; the mean
    of the per-path values is then a lower bound for the control supremum
    up to Monte Carlo noise and knot-discretisation error.
    """
    knots = lattice.time_knots
    Y = np.asarray(terminal_fn(states[-1]), dtype=float)
    for j in range(len(knots) - 2, -1, -1):
        xj = states[j]
        dtau = knots[j + 1] - knots[j]
        _, yhat, zhat = _regress_yz(xj, Y, dWs[j], dtau, degree)
        f = np.empty(xj.shape[0])
        for i, gamma in enumerate(lattice.gamma_points):
            mask = picks[j] == i
            if np.any(mask):
                f[mask] = _driver(model, gamma, knots[j], xj[mask], yhat[mask], zhat[mask])
        Y = Y - dtau * f
    return Y


def dual_value_lsmc(model: ModelSpec, eps: float, t0: float, x0, lattice: ControlLattice,
                    basis_degree: int, n_paths: int, seed: int,
                    terminal_fn=None) -> DualEstimate:
    """Dual estimate at (t0, x0) with a bootstrap standard error.

    Regression pass first, then an independent rollout of the fitted control
    policy; the reported value is the rollout mean. Collapsing lattices
    (t0 = T) return the terminal data exactly.
    """
    if basis_degree < 0 or n_paths < 1:
        raise HedgeGameError(f"basis_degree >= 0 and n_paths >= 1 required, "
                             f"got {basis_degree} and {n_paths}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    T = model.horizon_T
    if T - t0 <= 1e-12:
        g = float(np.asarray(model.payoff_g(x0.reshape(1, -1)))[0]) + 2.0 * eps
        return DualEstimate(g, 0.0, n_paths, basis_degree, 1, eps, int(seed))
    if terminal_fn is None:
        terminal_fn = _terminal_payoff(model, eps)
    rng_mix, rng_path, rng_branch, rng_roll, rng_boot = _rngs(seed, 5)
    start = np.tile(x0.reshape(1, model.dim), (n_paths, 1))
    clouds = _training_cloud(model, lattice, start, rng_mix, rng_path)
    tables, _ = _fit_tables(model, lattice, clouds, basis_degree, rng_branch, terminal_fn)
    states, picks, dWs = _policy_rollout(model, lattice, start, tables, rng_roll)
    vals = _policy_value(model, lattice, states, picks, dWs, terminal_fn, basis_degree)
    value = float(vals.mean())
    boots = np.empty(_BOOTSTRAP)
    for bidx in range(_BOOTSTRAP):
        idx = rng_boot.integers(0, n_paths, n_paths)
        boots[bidx] = vals[idx].mean()
    return DualEstimate(value, float(boots.std(ddof=1)), int(n_paths),
                        int(basis_degree), len(lattice.time_knots) - 1,
                        float(eps), int(seed))


@dataclass
class DppReport:
    direct: DualEstimate
    composed: DualEstimate
    mid_time: float
    difference: float
    combined_std_error: float

    def to_dict(self):
        return {
            "direct": self.direct.to_dict(),
            "composed": self.composed.to_dict(),
            "mid_time": self.mid_time,
            "difference": self.difference,
            "combined_std_error": self.combined_std_error,
        }


def dpp_check(model: ModelSpec, eps: float, t0: float, x0, mid_time: float,
              lattice: ControlLattice, n_paths: int, seed: int,
              basis_degree: int = 2) -> DppReport:
    """Compare the direct estimate with the two-leg composition through mid_time.

    The inner leg regresses the dual value at mid_time as a function of the
    state (trained on a mixed-control cloud propagated from (t0, x0)); the
    outer leg then uses that function as terminal data. Inner-regression
    bias is not part of the reported standard error.
    """
    if not (t0 < mid_time < model.horizon_T):
        raise HedgeGameError("need t0 < mid_time < horizon_T")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    knots = np.asarray(lattice.time_knots)
    if not np.any(np.isclose(knots, mid_time, atol=1e-12)):
        raise HedgeGameError("mid_time must be one of the lattice knots")

    direct = dual_value_lsmc(model, eps, t0, x0, lattice, basis_degree, n_paths, seed)

    inner_knots = tuple(float(t) for t in knots[knots >= mid_time - 1e-12])
    outer_knots = tuple(float(t) for t in knots[knots <= mid_time + 1e-12])
    inner_lat = ControlLattice(inner_knots, lattice.gamma_points, lattice.substeps)
    outer_lat = ControlLattice(outer_knots, lattice.gamma_points, lattice.substeps)

    rng_mix, rng_path, rng_cloud, rng_branch = _rngs(seed + 1, 4)
    # cloud at mid_time from mixed play over [t0, mid], then inner backward
    mid_cloud = _training_cloud(model, outer_lat, np.tile(x0, (n_paths, 1)),
                                rng_mix, rng_path)[-1]
    inner_clouds = _training_cloud(model, inner_lat, mid_cloud, rng_cloud, rng_path)
    _, v_mid = _fit_tables(model, inner_lat, inner_clouds, basis_degree, rng_branch,
                           _terminal_payoff(model, eps))
    composed = dual_value_lsmc(model, eps, t0, x0, outer_lat, basis_degree, n_paths,
                               seed + 2, terminal_fn=v_mid)
    diff = abs(direct.value - composed.value)
    combined = float(np.hypot(direct.std_error, composed.std_error))
    return DppReport(direct, composed, float(mid_time), float(diff), combined)
