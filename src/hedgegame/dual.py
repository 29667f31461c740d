"""Regression Monte Carlo dual bound for the worst-case price.

The dual value at (t0, x0) is the supremum, over piecewise-constant
adverse/shake controls on a knot lattice, of backward-SDE values whose
forward state runs under shifted coefficients and whose terminal data is the
payoff raised by 2 eps. Backward induction regresses one-step values on
polynomial features of the forward state (with the martingale-increment
estimator for the Z slot) and takes the pointwise maximum across controls;
with eps = 0 the estimate converges to the primal PDE price from below as
the lattice refines. A single control leaves no policy to fit: its estimate
runs no regression pass, only the rollout and its backward evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import (HedgeGameError, ModelSpec, adverse_pairs, base_point, coefficients_at, shake_lattice,
                    shaken_payoff)

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
    """Tensor monomials of the state, standardised for conditioning. A
    collapsed cloud (every path at one point) gets the constant alone."""

    def __init__(self, xs: np.ndarray, degree: int):
        std = xs.std(axis=0)
        self.degree = 0 if bool(np.all(std < 1e-12)) else int(degree)
        self.mean = xs.mean(axis=0)
        self.std = np.where(std > 1e-12, std, 1.0)
        self.powers = list(product(range(self.degree + 1), repeat=xs.shape[1]))

    def features(self, xs: np.ndarray) -> np.ndarray:
        """Design matrix (len(xs), len(powers)), one monomial per column."""
        z = (xs - self.mean) / self.std
        B = np.empty((xs.shape[0], len(self.powers)))
        for col, p in zip(B.T, self.powers):
            col[:] = z[:, 0] ** p[0]
            for i in range(1, z.shape[1]):
                col *= z[:, i] ** p[i]
        return B


def _lstsq(B: np.ndarray, ys: np.ndarray):
    """Least-squares coefficients of ys on the design matrix B, their rank
    and the fitted values."""
    coef, _, rank, _ = np.linalg.lstsq(B, ys, rcond=None)
    return coef, rank, B @ coef


def _fit(basis: _Basis, xs: np.ndarray, ys: np.ndarray):
    """Least squares onto the basis, reducing degree on rank deficiency.

    Returns the basis actually used, its coefficients, the fitted values and
    the basis's design matrix on xs.
    """
    B = basis.features(xs)
    coef, rank, fitted = _lstsq(B, ys)
    if rank < B.shape[1] and basis.degree > 0:
        warnings.warn(
            f"rank-deficient regression (rank {rank} < {B.shape[1]}); "
            f"falling back to degree {basis.degree - 1}",
            RuntimeWarning,
        )
        del B, fitted
        return _fit(_Basis(xs, basis.degree - 1), xs, ys)
    return basis, coef, fitted, B


def _scores(fits, xs: np.ndarray) -> np.ndarray:
    """Per-control regression polynomials read at xs, stacked on axis 0."""
    return np.stack([b.features(xs) @ c for b, c in fits], axis=0)


def _regress_yz(xj, y_next, dW, dtau, degree):
    """One regression BSDE step: conditional y and martingale-increment z.

    The z fits reuse the basis and the design matrix B that the y fit settled
    on, since a fit's rank depends on the cloud alone. Both are returned, so
    the caller can regress its own target on B without building it again or
    retrying a degree that already failed.
    """
    basis, _, yhat, B = _fit(_Basis(xj, degree), xj, y_next)
    resid = y_next - yhat
    zhat = np.empty_like(dW)
    for kdim in range(dW.shape[1]):
        zhat[:, kdim] = _lstsq(B, resid * dW[:, kdim] / dtau)[2]
    return basis, yhat, zhat, B


# ---------------------------------------------------------------------------
# forward segments under shifted coefficients
# ---------------------------------------------------------------------------


def _euler_segment(model, gamma, t_from, t_to, X0, substeps, rng):
    """Euler forward run under one control; returns endpoint and summed dW.
    X0 is not written; X and dW step in place."""
    a, b = gamma
    n, d = X0.shape
    dt = (t_to - t_from) / substeps
    sq = np.sqrt(dt)
    X, dW = X0.copy(), np.empty((n, d))
    dW_sum = np.zeros((n, d))
    for m in range(substeps):
        s = t_from + m * dt
        t_eff, x_eff = base_point(s, X, b, model.horizon_T)
        rng.standard_normal(out=dW)
        dW *= sq
        # mu and sigma alone: a full market_read would add two path-sized rate arrays
        mu = np.asarray(model.finance.mu(t_eff, x_eff, a), dtype=float)
        sig = np.asarray(model.finance.sigma(t_eff, x_eff, a), dtype=float)
        diffusion = np.einsum("...ij,...j->...i", sig, dW)  # before X moves
        X += mu * dt
        X += diffusion
        dW_sum += dW
    return X, dW_sum


def _driver(model, gamma, t, xs, ys, zs):
    """Hedged wealth drift at the shifted base point (the BSDE driver)."""
    a, b = gamma
    t_eff, x_eff = base_point(t, xs, b, model.horizon_T)
    return np.asarray(coefficients_at(model, t_eff, x_eff, a)[2](ys, zs), dtype=float)


def _advance(model, lattice, j, X, pick, rng):
    """Run every path over knot interval j under its control index ``pick``.

    With one control the whole cloud runs as one segment and ``pick`` is
    not read (callers pass None). Otherwise controls run in index order,
    one Euler segment per control that has paths, on the gathered paths,
    so the Brownian stream is consumed in that order. Returns the states at
    knot j + 1 and the per-path Brownian sums.
    """
    knots = lattice.time_knots
    if len(lattice.gamma_points) == 1:
        return _euler_segment(model, lattice.gamma_points[0], knots[j], knots[j + 1], X,
                              lattice.substeps, rng)
    X_next, dW = np.empty(X.shape), np.empty(X.shape)  # C order, also for a broadcast X
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


def _training_cloud(model, lattice, X, rng_mix, rng_path, n_intervals=None):
    """Forward states at knots 0..n_intervals (all by default; a fit reads
    none at the last) from the start cloud X (n_paths, d) under uniformly
    mixed controls. A single control is played by every path without a
    draw: rng_mix feeds nothing else."""
    clouds = [X]
    n_controls = len(lattice.gamma_points)
    for j in range(len(lattice.time_knots) - 1 if n_intervals is None else n_intervals):
        pick = rng_mix.integers(0, n_controls, X.shape[0]) if n_controls > 1 else None
        X = _advance(model, lattice, j, X, pick, rng_path)[0]
        clouds.append(X)
    return clouds


def _fit_tables(model, lattice, clouds, degree, rng_branch, terminal_fn):
    """Backward regression sweep over knots; ``clouds`` is emptied as it goes.

    At each knot the one-step BSDE value under every control is regressed on
    state features and the pointwise maximum of the fitted polynomials
    becomes the continuation function. A knot's states are dropped once its
    fits are made, a branch's endpoint once its continuation value is read
    and its increments once z is fitted; the design matrix of the y fit
    serves the z fits and the driver-corrected refit. Returns the per-knot
    per-control value fits plus the knot-0 continuation function.
    """
    knots = lattice.time_knots
    tables = [None] * (len(knots) - 1)
    V_next = terminal_fn
    del clouds[len(knots) - 1:]  # no fit reads the last knot's states, if given
    for j in range(len(knots) - 2, -1, -1):
        xj = clouds.pop()
        dtau = knots[j + 1] - knots[j]
        fits = []
        for gamma in lattice.gamma_points:
            x_end, dW = _euler_segment(model, gamma, knots[j], knots[j + 1],
                                       xj, lattice.substeps, rng_branch)
            y_next = np.asarray(V_next(x_end), dtype=float)
            del x_end
            basis, yhat, zhat, B = _regress_yz(xj, y_next, dW, dtau, degree)
            del y_next, dW
            yhat -= dtau * _driver(model, gamma, knots[j], xj, yhat, zhat)
            del zhat
            fits.append((basis, _lstsq(B, yhat)[0]))
            del B, yhat  # before the next branch
        tables[j] = fits
        V_next = lambda xs, fits=fits: _scores(fits, xs).max(axis=0)
    return tables, V_next


def _policy_rollout(model, lattice, X, tables, rng):
    """Simulate fresh paths from the start cloud X under the fitted policy.

    Per knot each path plays the control whose fitted value polynomial is
    largest (ties to the lowest index); picks are kept in the narrowest
    unsigned type that holds every index. With one control ``tables`` is
    not read (it may be None) and each pick is None. Returns the per-knot
    states, the chosen control indices and the per-segment Brownian sums.
    """
    states, picks, dWs = [X], [], []
    n_controls = len(lattice.gamma_points)
    for j in range(len(lattice.time_knots) - 1):
        pick = (None if n_controls == 1 else
                np.argmax(_scores(tables[j], X), axis=0).astype(np.min_scalar_type(n_controls - 1)))
        X, dW = _advance(model, lattice, j, X, pick, rng)
        states.append(X)
        picks.append(pick)
        dWs.append(dW)
    return states, picks, dWs


def _policy_value(model, lattice, states, picks, dWs, terminal_fn, degree):
    """Backward BSDE evaluation along the frozen-policy paths; the three
    lists are emptied as it goes, each knot's entries once read.

    Conditional (y, z) are re-regressed on the policy's own state
    distribution, so the driver correction is measure-consistent; the mean
    of the per-path values is then a lower bound for the control supremum
    up to Monte Carlo noise and knot-discretisation error. With one control
    the driver reads every path at once; otherwise it reads each control's
    paths through a mask.
    """
    knots = lattice.time_knots
    Y = np.asarray(terminal_fn(states.pop()), dtype=float)
    for j in range(len(knots) - 2, -1, -1):
        xj, dW, pick = states.pop(), dWs.pop(), picks.pop()
        dtau = knots[j + 1] - knots[j]
        _, yhat, zhat, B = _regress_yz(xj, Y, dW, dtau, degree)
        del B, dW
        if pick is None:
            f = _driver(model, lattice.gamma_points[0], knots[j], xj, yhat, zhat)
        else:
            f = np.empty(xj.shape[0])
            for i, gamma in enumerate(lattice.gamma_points):
                mask = pick == i
                if np.any(mask):
                    f[mask] = _driver(model, gamma, knots[j], xj[mask], yhat[mask], zhat[mask])
        Y = Y - dtau * f
        del yhat, zhat, f  # before the next knot's regression
    return Y


def _checked_x0(model, x0):
    """x0 as a (dim,) array; raises unless it has dim finite entries."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.dim or not np.all(np.isfinite(x0)):
        raise HedgeGameError(f"x0 needs {model.dim} finite entries, got {x0.tolist()}")
    return x0


def dual_value_lsmc(model: ModelSpec, eps: float, t0: float, x0, lattice: ControlLattice,
                    basis_degree: int, n_paths: int, seed: int,
                    terminal_fn=None) -> DualEstimate:
    """Dual estimate at (t0, x0) with a bootstrap standard error.

    Regression pass first, then an independent rollout of the fitted control
    policy; one control leaves no policy to fit, so the rollout alone runs,
    with the bits of the full flow (each seeded stream keeps its role). The
    reported value is the rollout mean. Collapsing lattices
    (t0 = T) return the terminal data exactly. x0 needs ``model.dim``
    finite entries and t0 must be the lattice's first knot.

    Path-sized arrays (one (n_paths, d) float array each, K knot
    intervals): the start cloud is one broadcast row. The training pass
    keeps the states at knots 0..K-1; the fit drops each once its fits
    are made, and holds one branch at a time next to them: its endpoint
    and increments, one design matrix, fitted y and z, the driver. The
    rollout then holds K states and K increment sums (plus K narrow picks
    with several controls), which the backward evaluation drops knot by
    knot; the bootstrap holds the values and one index draw.
    """
    if basis_degree < 0 or n_paths < 1:
        raise HedgeGameError(f"basis_degree >= 0 and n_paths >= 1 required, "
                             f"got {basis_degree} and {n_paths}")
    x0 = _checked_x0(model, x0)
    T = model.horizon_T
    if T - t0 <= 1e-12:
        g = float(shaken_payoff(model, eps)(x0.reshape(1, -1))[0])
        return DualEstimate(g, 0.0, n_paths, basis_degree, 1, eps, int(seed))
    if abs(t0 - lattice.time_knots[0]) > 1e-12:
        raise HedgeGameError(f"t0 {t0} is not the lattice's first knot {lattice.time_knots[0]}")
    if terminal_fn is None:
        terminal_fn = shaken_payoff(model, eps)
    rng_mix, rng_path, rng_branch, rng_roll, rng_boot = _rngs(seed, 5)
    start = np.broadcast_to(x0, (n_paths, model.dim))
    tables = None  # one control: no pick to read off a fit
    if len(lattice.gamma_points) > 1:
        clouds = _training_cloud(model, lattice, start, rng_mix, rng_path,
                                 len(lattice.time_knots) - 2)
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
    state (trained on a mixed-control cloud propagated from (t0, x0), up to
    the last knot its fit reads); the outer leg then uses that function as
    terminal data, so the inner fit runs also with a single control.
    Inner-regression bias is not part of the reported standard error. The
    direct estimate, the inner fit and the outer estimate run one after the
    other, and the inner clouds go once v_mid is fitted (it keeps
    coefficients only), so the check holds one stage's path-sized arrays at
    a time. x0 and t0 are checked as in ``dual_value_lsmc``.
    """
    if not (t0 < mid_time < model.horizon_T):
        raise HedgeGameError("need t0 < mid_time < horizon_T")
    x0 = _checked_x0(model, x0)
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
    mid_cloud = _training_cloud(model, outer_lat, np.broadcast_to(x0, (n_paths, model.dim)),
                                rng_mix, rng_path)[-1]
    inner_clouds = _training_cloud(model, inner_lat, mid_cloud, rng_cloud, rng_path,
                                   len(inner_knots) - 2)
    del mid_cloud  # inner_clouds[0], dropped by the fit like every inner state
    _, v_mid = _fit_tables(model, inner_lat, inner_clouds, basis_degree, rng_branch,
                           shaken_payoff(model, eps))
    composed = dual_value_lsmc(model, eps, t0, x0, outer_lat, basis_degree, n_paths,
                               seed + 2, terminal_fn=v_mid)
    diff = abs(direct.value - composed.value)
    combined = float(np.hypot(direct.std_error, composed.std_error))
    return DppReport(direct, composed, float(mid_time), float(diff), combined)
