"""Regression Monte Carlo dual bound for the worst-case price.

The dual value at (t0, x0) prices the claim under one adverse feedback,
piecewise constant on a knot lattice: at each knot every path plays the
(adverse point, shake) pair the feedback names, under that pair's shifted
coefficients, to terminal data raised by 2 eps. Any feedback prices the
claim from below, up to Monte Carlo, regression and lattice error; played
with the solved surface's argmin (``ValueSurface.policy``) at eps = 0, the
estimate rises to the PDE price as the lattice refines. The estimator is
the regression scheme of Gobet, Lemor & Warin (Ann. Appl. Probab. 2005) on
the feedback's own paths, its driver the wealth drift at the regressed hedge
ratio delta, the hedge the game plays.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .game import _split
from .hjb import ValueSurface
from .model import (HedgeGameError, ModelSpec, _hedge_map, adverse_pairs, base_point, market_read,
                    read_site, shake_lattice, shaken_payoff, wealth_drift)


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
    """Uniform knots on [t0, T]; controls = adverse points x shake lattice.

    ``substeps`` Euler steps per knot interval, checked first; a model whose
    coefficients read neither t nor x (``FinanceSpec.static``) takes one
    step, exact in law for a Brownian motion with constant drift.
    """
    if substeps < 1:
        raise HedgeGameError("substeps must be >= 1")
    knots = np.linspace(t0, model.horizon_T, n_intervals + 1)
    gamma = adverse_pairs(model, shake_lattice(eps, model.dim))
    return ControlLattice(tuple(knots), tuple(gamma), 1 if model.finance.static else substeps)


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
        return asdict(self)


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


def _regress_yz(xj, y_next, dW, dtau, degree, groups):
    """One regression BSDE step: the basis, the conditional y and the hedge
    ratio delta, regressed on its per-path estimate
    sigma^-T (y_next - y) dW / dtau (``groups`` as ``_groups`` makes them).
    The delta fits reuse the y fit's basis and design matrix, since a fit's
    rank depends on the cloud alone."""
    basis, _, yhat, B = _fit(_Basis(xj, degree), xj, y_next)
    delta = (y_next - yhat)[:, None] * dW
    delta /= dtau
    for _, rows, to_delta in groups:
        delta[rows] = to_delta(delta[rows])
    for kdim in range(delta.shape[1]):
        delta[:, kdim] = _lstsq(B, delta[:, kdim])[2]
    return basis, yhat, delta


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


def _driver(model, gamma, t, xs, ys, deltas):
    """Wealth drift at the hedge ``deltas`` and the shifted base point (the BSDE driver)."""
    a, b = gamma
    t_eff, x_eff = base_point(t, xs, b, model.horizon_T)
    return wealth_drift(*market_read(model.finance, t_eff, x_eff, a))(ys, deltas)


def _advance(model, lattice, j, X, pick, rng):
    """The states at knot j + 1 and the per-path Brownian sums of every path
    run over knot interval j under its control index ``pick``: one Euler
    segment per control that has paths (``game._split``), in index order,
    which is the order the Brownian stream is consumed in."""
    knots = lattice.time_knots
    X_next, dW = np.empty(X.shape), np.empty(X.shape)  # C order, also for a broadcast X
    for i, rows in _split(pick, len(lattice.gamma_points)):
        X_next[rows], dW[rows] = _euler_segment(model, lattice.gamma_points[i], knots[j], knots[j + 1],
                                                X[rows], lattice.substeps, rng)
    return X_next, dW


# ---------------------------------------------------------------------------
# the adverse feedback, its rollout and the backward evaluation
# ---------------------------------------------------------------------------


def _rng(seed):
    """The Philox generator of a seed's first spawned child."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed)).spawn(1)[0]))


def _feedback(policy, model, lattice):
    """The adverse feedback as a read (t, X) -> control index per path.

    A ``ValueSurface`` is read at the nearest node (``policy_at``); it must
    index the lattice's controls and span its knots, else HedgeGameError is
    raised here, before any path is drawn. A callable's indices are checked
    on every read: integers in [0, n_controls), one per path or one for all,
    kept in the narrowest unsigned type that holds every index.
    """
    n_controls, knots = len(lattice.gamma_points), lattice.time_knots
    if isinstance(policy, ValueSurface):
        if policy.a_count != n_controls or policy.dim != model.dim:
            raise HedgeGameError(f"policy surface indexes {policy.a_count} pairs in d = {policy.dim}; "
                                 f"the lattice has {n_controls} controls in d = {model.dim}")
        if policy.t_start > knots[0] + 1e-12 or policy.horizon_T < knots[-1] - 1e-12:
            raise HedgeGameError(f"policy surface spans [{policy.t_start}, {policy.horizon_T}], "
                                 f"not the knots' [{knots[0]}, {knots[-1]}]")
        return policy.policy_at
    if not callable(policy):
        raise HedgeGameError(f"policy must be a ValueSurface or a callable, got {type(policy)!r}")

    def read(t, X):
        pick = np.asarray(policy(t, X))
        if (pick.dtype.kind not in "iu" or pick.shape not in ((), X.shape[:1])
                or not (pick.min() >= 0 and pick.max() < n_controls)):
            raise HedgeGameError(f"policy at t = {t} returned {pick.dtype} indices of shape "
                                 f"{pick.shape}; need integers in [0, {n_controls}) per path")
        return pick.astype(np.min_scalar_type(n_controls - 1), copy=False)

    return read


def _policy_rollout(model, lattice, X, read, rng):
    """Simulate paths from the start cloud X under the feedback ``read``.

    At each knot every path reads its control index, then runs the interval
    under it (``_advance``). Returns the per-knot states, the control
    indices and the per-segment Brownian sums.
    """
    states, picks, dWs = [X], [], []
    for j in range(len(lattice.time_knots) - 1):
        pick = read(lattice.time_knots[j], X)
        X, dW = _advance(model, lattice, j, X, pick, rng)
        states.append(X)
        picks.append(pick)
        dWs.append(dW)
    return states, picks, dWs


def _groups(model, lattice, t, xj, pick):
    """(control, rows, sigma^-T map) for each control that holds paths of
    the cloud xj at knot time t (``game._split``), sigma read alone at the
    control's shifted base point: a full market read would add path-sized
    rate arrays to the fits. A singular sigma raises ModelError naming its
    site."""
    groups = []
    for i, rows in _split(pick, len(lattice.gamma_points)):
        a, b = lattice.gamma_points[i]
        t_eff, x_eff = base_point(t, xj[rows], b, model.horizon_T)
        sig = np.asarray(model.finance.sigma(t_eff, x_eff, a), dtype=float)
        groups.append((i, rows, _hedge_map(sig, *read_site(t_eff, x_eff, a))))
    return groups


def _policy_value(model, lattice, states, picks, dWs, terminal_fn, degree):
    """Per-path values at the first knot, by backward BSDE evaluation along
    the frozen-policy paths; the three lists are emptied as it goes, each
    knot's entries once read. Conditional y and delta (``_regress_yz``) are
    regressed on the policy's own state distribution, so the driver
    correction is measure-consistent."""
    knots = lattice.time_knots
    Y = np.asarray(terminal_fn(states.pop()), dtype=float)
    for j in range(len(knots) - 2, -1, -1):
        xj, dW, pick = states.pop(), dWs.pop(), picks.pop()
        dtau = knots[j + 1] - knots[j]
        groups = _groups(model, lattice, knots[j], xj, pick)
        _, yhat, delta = _regress_yz(xj, Y, dW, dtau, degree, groups)
        del dW
        for i, rows, _ in groups:  # each group's driver values replace its rows of yhat
            yhat[rows] = _driver(model, lattice.gamma_points[i], knots[j], xj[rows], yhat[rows], delta[rows])
        Y = Y - dtau * yhat
        del yhat, delta, groups  # before the next knot's regression
    return Y


def _checked_x0(model, x0):
    """x0 as a (dim,) array; raises unless it has dim finite entries."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.dim or not np.all(np.isfinite(x0)):
        raise HedgeGameError(f"x0 needs {model.dim} finite entries, got {x0.tolist()}")
    return x0


def dual_value_lsmc(model: ModelSpec, eps: float, t0: float, x0, lattice: ControlLattice,
                    basis_degree: int, n_paths: int, seed: int,
                    terminal_fn=None, *, policy) -> DualEstimate:
    """Dual estimate at (t0, x0) under the adverse feedback ``policy``, with
    the standard error of its path mean in closed form, std / sqrt(n_paths).

    ``policy`` is a ``ValueSurface``, whose policy is read at the nearest
    node, or a callable (t, X) -> index into ``lattice.gamma_points``; the
    index order is ``adverse_pairs(model, shake_lattice(eps, d))``, the pair
    order of ``hjb.solve(shake_points=...)`` (``_feedback`` checks it). One
    rollout of that feedback from x0 (``_policy_rollout``) is evaluated
    backward along its own paths (``_policy_value``); the reported value is
    the mean of the per-path values. Collapsing lattices (t0 = T) return the
    terminal data exactly. x0 needs ``model.dim`` finite entries and t0 must
    be the lattice's first knot.

    Memory: the start cloud is one broadcast row; the rollout's K states,
    K increment sums and K narrow indices (K knot intervals) are dropped
    knot by knot by the backward evaluation, next to one regression's
    working set (``TestHeldMemory``).
    """
    if basis_degree < 0 or n_paths < 1:
        raise HedgeGameError(f"basis_degree >= 0 and n_paths >= 1 required, "
                             f"got {basis_degree} and {n_paths}")
    x0 = _checked_x0(model, x0)
    read = _feedback(policy, model, lattice)
    if abs(t0 - lattice.time_knots[0]) > 1e-12:
        raise HedgeGameError(f"t0 {t0} is not the lattice's first knot {lattice.time_knots[0]}")
    if model.horizon_T - t0 <= 1e-12:
        g = float(shaken_payoff(model, eps)(x0.reshape(1, -1))[0])
        return DualEstimate(g, 0.0, n_paths, basis_degree, 1, eps, int(seed))
    if terminal_fn is None:
        terminal_fn = shaken_payoff(model, eps)
    start = np.broadcast_to(x0, (n_paths, model.dim))
    states, picks, dWs = _policy_rollout(model, lattice, start, read, _rng(seed))
    vals = _policy_value(model, lattice, states, picks, dWs, terminal_fn, basis_degree)
    return DualEstimate(float(vals.mean()), float(np.std(vals) / np.sqrt(n_paths)), int(n_paths),
                        int(basis_degree), len(lattice.time_knots) - 1, float(eps), int(seed))


@dataclass
class DppReport:
    direct: DualEstimate
    composed: DualEstimate
    mid_time: float
    difference: float
    combined_std_error: float

    def to_dict(self):
        return asdict(self)


def mid_knot(model: ModelSpec, t0: float, mid_time: float, lattice: ControlLattice) -> int:
    """The index of the lattice knot at mid_time (within 1e-12), which must lie in (t0, horizon_T)."""
    hits = np.flatnonzero(np.abs(np.asarray(lattice.time_knots) - mid_time) <= 1e-12)
    if not t0 < mid_time < model.horizon_T or hits.size == 0:
        raise HedgeGameError(f"mid_time {mid_time} must be one of the lattice knots {lattice.time_knots} "
                             f"in (t0, horizon_T) = ({t0}, {model.horizon_T})")
    return int(hits[0])


def dpp_check(model: ModelSpec, eps: float, t0: float, x0, mid_time: float,
              lattice: ControlLattice, n_paths: int, seed: int,
              basis_degree: int = 2, *, policy) -> DppReport:
    """Compare the direct estimate with the two-leg composition through mid_time,
    both under the adverse feedback ``policy`` (as in ``dual_value_lsmc``).

    The inner leg is one rollout of the feedback from (t0, x0), its states
    at mid_time the mid cloud, evaluated backward from T to that cloud; the
    regression of its per-path values on the mid cloud's basis (the
    driver-corrected knot value, coefficients only) is v_mid. The outer leg
    is the estimate on the knots up to mid_time with v_mid as terminal data.
    Inner-regression bias is not part of the reported standard error. The
    direct estimate, the inner leg and the outer estimate run one after the
    other, and the inner leg drops its states before mid_time once the
    rollout is done, so the check holds one stage's path-sized arrays at a
    time. mid_time is checked by ``mid_knot``, the rest as in ``dual_value_lsmc``.
    """
    mid = mid_knot(model, t0, mid_time, lattice)
    x0 = _checked_x0(model, x0)

    direct = dual_value_lsmc(model, eps, t0, x0, lattice, basis_degree, n_paths, seed, policy=policy)

    inner_lat = ControlLattice(lattice.time_knots[mid:], lattice.gamma_points, lattice.substeps)
    outer_lat = ControlLattice(lattice.time_knots[:mid + 1], lattice.gamma_points, lattice.substeps)
    states, picks, dWs = _policy_rollout(model, lattice, np.broadcast_to(x0, (n_paths, model.dim)),
                                         _feedback(policy, model, lattice), _rng(seed + 1))
    del states[:mid], picks[:mid], dWs[:mid]
    cloud = states[0]
    vals = _policy_value(model, inner_lat, states, picks, dWs, shaken_payoff(model, eps), basis_degree)
    basis, coef = _fit(_Basis(cloud, basis_degree), cloud, vals)[:2]
    del cloud, vals
    composed = dual_value_lsmc(model, eps, t0, x0, outer_lat, basis_degree, n_paths, seed + 2,
                               terminal_fn=lambda xs: basis.features(xs) @ coef, policy=policy)
    diff = abs(direct.value - composed.value)
    combined = float(np.hypot(direct.std_error, composed.std_error))
    return DppReport(direct, composed, float(mid_time), float(diff), combined)
