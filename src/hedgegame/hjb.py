"""Backward finite-difference solver for the worst-case pricing equation.

The terminal-value problem  min_a La(., v, dv/dt, Dv, D^2v) = 0, v(T) = g
is integrated backward with an explicit scheme: central differences, checked
to be monotone node by node, the adverse minimum taken pointwise, and the
semilinear wealth drift evaluated explicitly on the known layer.

Grids are rectangular in (t, x) with d <= 2 spatial axes. Surfaces are
immutable once solved.
"""

from __future__ import annotations

import json
import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import (HedgeGameError, ModelSpec, adverse_pairs, base_point, market_drift,
                    market_read, min_generator_field, read_site, validate_assumptions)

# layers per residual() block; bounds its difference and coefficient stacks
# (the `price` benchmark's peak RSS is 90 MB at 64 layers and at 128)
_RESIDUAL_BLOCK = 64

BINARY_MAGIC = b"HJBSURF1"


class NumericsError(HedgeGameError):
    """Numerical failure of the scheme (instability, a non-finite layer)."""


class CFLError(NumericsError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Rectangular space-time lattice for the solver.

    ``t_steps`` time steps over a model horizon, ``x_steps[i]`` cells on
    spatial axis i spanning [x_min[i], x_max[i]].
    """

    t_steps: int
    x_min: tuple
    x_max: tuple
    x_steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_min", tuple(float(v) for v in np.atleast_1d(self.x_min)))
        object.__setattr__(self, "x_max", tuple(float(v) for v in np.atleast_1d(self.x_max)))
        object.__setattr__(self, "x_steps", tuple(int(v) for v in np.atleast_1d(self.x_steps)))
        if self.t_steps < 1 or any(s < 2 for s in self.x_steps):
            raise HedgeGameError("t_steps >= 1 and x_steps >= 2 required")
        if len(self.x_min) != len(self.x_max) or len(self.x_min) != len(self.x_steps):
            raise HedgeGameError("x_min/x_max/x_steps must have equal length")
        if not all(-np.inf < lo < hi < np.inf for lo, hi in zip(self.x_min, self.x_max)):
            raise HedgeGameError("finite x_min < x_max required componentwise")
        if len(self.x_steps) > 2:
            raise HedgeGameError("grids with d > 2 are not supported")

    @property
    def dim(self) -> int:
        return len(self.x_steps)

    @property
    def dx(self) -> tuple:
        return tuple((hi - lo) / s for lo, hi, s in zip(self.x_min, self.x_max, self.x_steps))

    def axes(self) -> list:
        return [np.linspace(lo, hi, s + 1) for lo, hi, s in zip(self.x_min, self.x_max, self.x_steps)]

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape (n1, ..., nd, d)."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)

    def layer_times(self, T: float, pad_layers: int = 0) -> np.ndarray:
        """Node times of a sweep over [0, T] extended by ``pad_layers`` steps
        below t = 0: T - dt n for n = t_steps + pad_layers, ..., 1, then T."""
        dt = T / self.t_steps
        return np.concatenate([T - dt * np.arange(self.t_steps + pad_layers, 0, -1), [T]])

    def cfl_number(self, lipschitz_K: float, dt: float) -> float:
        """Stability number from the coefficient bound K; must stay <= 1."""
        K = float(lipschitz_K)
        return dt * sum(K * K / h / h + K / h for h in self.dx)


EvalPack = namedtuple("EvalPack", ["value", "p", "M", "q"])


def _policy_dtype(a_count: int) -> np.dtype:
    """The narrowest unsigned type that holds the pair indices 0..a_count-1."""
    return np.min_scalar_type(max(int(a_count) - 1, 0))


class ValueSurface:
    """Solved value/policy fields on a grid; read-only after construction.

    The policy holds pair indices in ``_policy_dtype(a_count)``; an entry
    outside [0, a_count) raises HedgeGameError.
    """

    def __init__(self, grid, model_hash, t, axes, values, policy, a_count, meta):
        self.grid = grid
        self.model_hash = model_hash
        self.t = np.asarray(t, dtype=float)
        self.axes = [np.asarray(ax, dtype=float) for ax in axes]
        self.values = np.asarray(values, dtype=float)
        self.a_count = int(a_count)
        policy = np.asarray(policy)
        if policy.size and not (policy.min() >= 0 and policy.max() < self.a_count):
            raise HedgeGameError(f"policy entries {policy.min()}..{policy.max()} "
                                 f"outside [0, a_count = {self.a_count})")
        self.policy = policy.astype(_policy_dtype(self.a_count), copy=False)
        self.meta = dict(meta)
        for arr in (self.t, self.values, self.policy, *self.axes):
            arr.flags.writeable = False
        self._p = None
        self._q_M = None

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def horizon_T(self) -> float:
        return float(self.t[-1])

    # -- derivative fields -------------------------------------------------

    def _gradient_field(self):
        """Per-node p from finite differences of the stored values, built on
        first use; ``gradient`` reads only this field."""
        if self._p is None:
            hx = [float(ax[1] - ax[0]) for ax in self.axes]
            self._p = [np.gradient(self.values, hx[i], axis=1 + i, edge_order=2)
                       for i in range(self.dim)]
        return self._p

    def _time_hessian_fields(self):
        """Per-node q and M from finite differences of the stored values,
        built on the first ``eval``."""
        if self._q_M is not None:
            return self._q_M
        v = self.values
        dt = float(self.t[1] - self.t[0])
        d = self.dim
        hx = [float(ax[1] - ax[0]) for ax in self.axes]
        q = np.gradient(v, dt, axis=0, edge_order=2)
        M = {}
        for i in range(d):
            h = self.axes[i][1] - self.axes[i][0]
            sec = np.empty_like(v)
            core = [slice(None)] * v.ndim
            core[1 + i] = slice(1, -1)
            up = [slice(None)] * v.ndim
            up[1 + i] = slice(2, None)
            lo = [slice(None)] * v.ndim
            lo[1 + i] = slice(None, -2)
            sec[tuple(core)] = (v[tuple(up)] - 2.0 * v[tuple(core)] + v[tuple(lo)]) / (h * h)
            first = [slice(None)] * v.ndim
            first[1 + i] = slice(0, 1)
            second = [slice(None)] * v.ndim
            second[1 + i] = slice(1, 2)
            sec[tuple(first)] = sec[tuple(second)]
            first[1 + i] = slice(-1, None)
            second[1 + i] = slice(-2, -1)
            sec[tuple(first)] = sec[tuple(second)]
            M[(i, i)] = sec
        if d == 2:
            M[(0, 1)] = np.gradient(np.gradient(v, hx[0], axis=1, edge_order=2),
                                    hx[1], axis=2, edge_order=2)
        self._q_M = (q, M)
        return self._q_M

    def _locate(self, axis, query):
        lo, hi = axis[0], axis[-1]
        q = np.asarray(query, dtype=float)
        if not np.all((q >= lo - 1e-12) & (q <= hi + 1e-12)):
            raise HedgeGameError(f"query outside grid range [{lo}, {hi}]")
        h = axis[1] - axis[0]
        idx = np.clip(((q - lo) / h).astype(int), 0, len(axis) - 2)
        w = np.clip((q - axis[idx]) / h, 0.0, 1.0)
        return idx, w

    def _corners(self, tq, xq):
        """Node indices and multilinear weights of the 2^(1+d) cell corners
        around each query (t, x), each axis located once."""
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        tq = np.broadcast_to(np.asarray(tq, dtype=float), (xq.shape[0],))
        sides = []
        for axis, q in zip([self.t] + self.axes, [tq] + list(xq.T)):
            idx, w = self._locate(axis, q)
            sides.append(((idx, 1.0 - w), (idx + 1, w)))
        corners = []
        for corner in product(*sides):
            wgt = corner[0][1]
            for _, w in corner[1:]:
                wgt = wgt * w
            corners.append((tuple(idx for idx, _ in corner), wgt))
        return corners

    @staticmethod
    def _interp(field, corners):
        """Multilinear interpolation of a node field at located corners."""
        out = np.zeros(corners[0][1].shape)
        for idx, wgt in corners:
            out += wgt * field[idx]
        return out

    def value(self, t, x):
        scalar = np.asarray(x).ndim == 1
        out = self._interp(self.values, self._corners(t, x))
        return float(out[0]) if scalar and np.isscalar(t) else out

    def gradient(self, t, x) -> np.ndarray:
        """Interpolated gradient alone: the ``p`` of ``eval`` bit for bit."""
        p = self._gradient_field()
        corners = self._corners(t, x)
        return np.stack([self._interp(p[i], corners) for i in range(self.dim)], axis=-1)

    def eval(self, t, x) -> EvalPack:
        """Interpolated (value, gradient, hessian, time derivative) at (t, x).

        Exact at grid nodes; derivatives come from finite differences of the
        stored layers, multilinearly interpolated between nodes.
        """
        scalar = np.asarray(x).ndim == 1 and np.isscalar(t)
        p = self._gradient_field()
        q, M = self._time_hessian_fields()
        corners = self._corners(t, x)
        n = corners[0][1].shape[0]
        d = self.dim
        val = self._interp(self.values, corners)
        qv = self._interp(q, corners)
        pv = np.stack([self._interp(p[i], corners) for i in range(d)], axis=-1)
        Mv = np.zeros((n, d, d))
        for i in range(d):
            Mv[:, i, i] = self._interp(M[(i, i)], corners)
        if d == 2:
            cross = self._interp(M[(0, 1)], corners)
            Mv[:, 0, 1] = cross
            Mv[:, 1, 0] = cross
        if scalar:
            return EvalPack(float(val[0]), pv[0], Mv[0], float(qv[0]))
        return EvalPack(val, pv, Mv, qv)


# ---------------------------------------------------------------------------
# scheme internals
# ---------------------------------------------------------------------------


def _shift(vp: np.ndarray, axis: int, off: int, d: int) -> np.ndarray:
    """Core-shaped view of the padded array shifted by ``off`` along ``axis``."""
    sl = []
    for ax in range(d):
        o = off if ax == axis else 0
        sl.append(slice(1 + o, vp.shape[ax] - 1 + o))
    return vp[tuple(sl)]


class _LayerOps:
    """Central differences of one known layer, shared across adverse points.

    ``vp`` is the solve's padded buffer: v with one ghost node per side and
    axis, extrapolated linearly one axis after the other, so a ghost row of
    axis 1 also extrapolates the ghost nodes of axis 0.
    """

    def __init__(self, v: np.ndarray, dx: tuple, vp: np.ndarray):
        d = v.ndim
        vp[(slice(1, -1),) * d] = v
        for ax in range(d):
            lead, tail = (slice(None),) * ax, (slice(1, -1),) * (d - 1 - ax)
            for ghost, near, far in ((0, 1, 2), (-1, -2, -3)):
                vp[lead + (ghost,) + tail] = (2.0 * vp[lead + (near,) + tail]
                                              - vp[lead + (far,) + tail])
        up = [_shift(vp, i, +1, d) for i in range(d)]
        dn = [_shift(vp, i, -1, d) for i in range(d)]
        self.p_cen = np.stack([(up[i] - dn[i]) / (2.0 * dx[i]) for i in range(d)], axis=-1)
        self.sec = [(up[i] - 2.0 * v + dn[i]) / (dx[i] ** 2) for i in range(d)]
        self.cross = None
        if d == 2:
            pp = vp[2:, 2:]
            mm = vp[:-2, :-2]
            pm = vp[2:, :-2]
            mp = vp[:-2, 2:]
            self.cross = (pp + mm - pm - mp) / (4.0 * dx[0] * dx[1])


def _same_read(read, other) -> bool:
    """Two market reads with the same bits (-0.0 and 0.0 stay apart)."""
    return all(r.tobytes() == o.tobytes() for r, o in zip(read, other))


class _PairTerms:
    """What the kept pairs' reads give the generator before any layer value
    enters, stacked on a leading pair axis in kept-pair order: mu, sigma and
    both rates on the mesh, 0.5 Sig_ii, Sig_01 and the hedged drift
    ``at(y, z)`` of the stack (``model.market_drift``). ``sites`` holds each
    pair's (t, x, a), so a singular sigma names its own pair."""

    def __init__(self, reads, sites, shape):
        n, d = math.prod(shape), reads[0][0].shape[-1]
        read = tuple(np.stack([np.broadcast_to(r[c], tail) for r in reads])
                     for c, tail in enumerate([(n, d), (n, d, d), (n,), (n,)]))
        lead = (len(reads),) + shape
        self.mu, self.sig = read[0].reshape(lead + (d,)), read[1].reshape(lead + (d, d))
        self.rates = (read[2].reshape(lead), read[3].reshape(lead))
        Sig = np.einsum("...ik,...jk->...ij", self.sig, self.sig)
        self.half_var = [0.5 * Sig[..., i, i] for i in range(d)]
        self.cov = Sig[..., 0, 1] if d == 2 else None
        named = [read_site(*site)[1] for site in sites]
        self.at = market_drift(read, ((len(reads), n), lambda i: named[i[0]](i[1:])))


def _check_weights(pt: _PairTerms, dt, dx, t, X, a_points):
    """Raise NumericsError at the worst node (NaN first) where the scheme
    weighs a node negatively. With u = p the first differences carry the
    drift r - Sig_ii/2 at either rate, so neighbour weights need the cell
    Peclet number |r - Sig_ii/2| h_i / Sig_ii <= 1; the explicit wealth term
    puts -dt r on the centre node, so the centre weight needs
    1 - dt sum_i Sig_ii/h_i^2 - dt max(r_lend, r_borrow) >= 0. The d = 2
    cross term is not checked. The error names the layer t, the node of
    mesh X and the row's a_points."""
    def worst(score):
        at = np.unravel_index(int(np.argmax(np.where(np.isnan(score), np.inf, score))), score.shape)
        return at, f"scheme not monotone at layer t={t:.6g}, node x={X[at[1:]]}, a={a_points[at[0]]}"

    centre = 1.0
    for i, h in enumerate(dx):
        var = 2.0 * pt.half_var[i]
        peclet = np.maximum(*(np.abs(r - pt.half_var[i]) for r in pt.rates)) * h / var
        if not np.all(peclet <= 1.0):
            at, where = worst(peclet)
            raise NumericsError(f"{where}: cell Peclet number {peclet[at]:.4g} > 1 on axis {i} "
                                f"(h={h:.4g}; h <= {h / peclet[at]:.4g} would pass)")
        centre = centre - dt * var / (h * h)
    centre = centre - dt * np.maximum(*pt.rates)
    if not np.all(centre >= 0.0):
        at, where = worst(-centre)
        raise NumericsError(f"{where}: centre weight {centre[at]:.4g} < 0 "
                            f"(dt={dt:.4g}; dt <= {dt / (1.0 - centre[at]):.4g} would pass)")


def _adverse_terms(pt: _PairTerms, ops: _LayerOps, v: np.ndarray):
    """Discrete generator of the stacked terms ``pt`` on the known layer v,
    of shape (kept pairs,) + mesh: the hedged drift at (v, z = sigma^T p)
    plus -mu.p - 1/2 Sig_ii D2_i v - Sig_01 D01 v, with p the central
    gradient and every difference central.
    """
    mu = pt.mu
    n_p, d = mu.shape[0], mu.shape[-1]
    z = np.einsum("...ji,...j->...i", pt.sig, ops.p_cen)
    const = np.zeros(mu.shape[:-1])
    for i in range(d):
        const -= mu[..., i] * ops.p_cen[..., i]
        const -= pt.half_var[i] * ops.sec[i]
    if d == 2:
        const -= pt.cov * ops.cross
    return const + np.reshape(pt.at(v.reshape(-1), z.reshape(n_p, -1, d)), const.shape)


def solve(model: ModelSpec, grid: GridSpec, *, pad_layers: int = 0,
          terminal=None, shake_points=None, validate: bool = True) -> ValueSurface:
    """Backward sweep for the worst-case value surface.

    ``terminal`` overrides the model payoff as terminal data. With
    ``shake_points`` given, the adverse minimum additionally ranges over the
    listed base-point shifts of (t, x), with shifted times clamped to
    [0, T]. ``pad_layers`` extends the sweep below t = 0 with coefficients
    frozen at their t = 0 values.

    Each layer reads every pair once, on its own shifted mesh. The model is
    read through its ``finance`` spec (``market_read``). A pair whose read
    (mu, sigma and both rates) equals bit for bit a kept read of its adverse
    point is left out of the minimum: its generator row would be the same
    bits, and the policy keeps the lowest pair index of a tie either way.
    The kept pairs run as one stack on a leading pair axis, in pair order:
    the generator (``_adverse_terms``) is one set of array operations per
    layer, with the wealth term explicit: the hedged drift is evaluated once,
    at the known layer and the central z = sigma^T p, so layer k is
    v_{k+1} - dt min_rows(generator). The terms derived from the kept reads
    alone (``_PairTerms``: sigma sigma^T, the hedge map, mu + gamma/2 and
    the rates) are reused while the layer keeps the same pairs and each of
    their reads equals bit for bit the read they were derived from. The
    minimum over the kept rows is an ``np.minimum`` chain, and the policy an
    ``np.less``/``np.where`` chain that keeps the lowest pair of a tie. The
    model is hashed before the first layer.

    Refuses to run when the K-based stability number exceeds 1, and raises
    NumericsError where a derivation of terms puts a negative or NaN weight
    on a node (``_check_weights``) and where a layer holds a non-finite
    value, naming the layer, the node and the first kept pair whose row is
    non-finite there.
    """
    if grid.dim != model.dim:
        raise HedgeGameError(f"grid dim {grid.dim} != model dim {model.dim}")
    if validate:
        rep = validate_assumptions(model, x_box=(min(grid.x_min), max(grid.x_max)))
        if not rep.ok:
            raise HedgeGameError("model violates standing assumptions:\n" + rep.summary())
    T = model.horizon_T
    dt = T / grid.t_steps
    cfl = grid.cfl_number(model.lipschitz_K, dt)
    if cfl > 1.0 + 1e-9:
        raise CFLError(
            f"explicit scheme unstable: CFL {cfl:.3f} > 1 "
            f"(t_steps={grid.t_steps}, dx={grid.dx}); refine the time axis"
        )

    n_layers = grid.t_steps + pad_layers
    t_vals = grid.layer_times(T, pad_layers)
    axes = grid.axes()
    X = grid.mesh()
    dx = grid.dx
    shape = X.shape[:-1]

    model_hash = model.hash  # a model without a config samples its closures here, before any layer
    g_term = terminal if terminal is not None else model.payoff_g
    pairs = adverse_pairs(model, shake_points)

    values = np.empty((n_layers + 1,) + shape)
    policy = np.zeros((n_layers + 1,) + shape, dtype=_policy_dtype(len(pairs)))
    values[-1] = np.asarray(g_term(X), dtype=float)

    Xf = X.reshape(-1, grid.dim)
    vp = np.empty(tuple(n + 2 for n in shape))
    n_b = len(pairs) // len(model.A_points)  # shifts per adverse point (pairs are A-major)
    last = None  # (kept pairs, their reads, _PairTerms) of the last derivation
    for k in range(n_layers - 1, -1, -1):
        t_k = float(t_vals[k])
        v_next = values[k + 1]
        ops = _LayerOps(v_next, dx, vp)
        kept, reads, sites, by_a = [], [], [], {}  # by_a: A index -> kept market reads
        for j, (a, b) in enumerate(pairs):
            t_eff, x_eff = base_point(t_k, Xf, b, T)
            read = market_read(model.finance, t_eff, x_eff, a)
            kept_reads = by_a.setdefault(j // n_b, [])
            if any(_same_read(read, other) for other in kept_reads):
                continue  # its stack row would be a kept pair's, bit for bit
            kept_reads.append(read)
            kept.append(j)
            reads.append(read)
            sites.append((t_eff, x_eff, a))
        derive = last is None or kept != last[0] or not all(map(_same_read, reads, last[1]))
        if derive:
            last = kept, reads, _PairTerms(reads, sites, shape)
        stack = _adverse_terms(last[2], ops, v_next)
        if derive:  # after the hedge map has met every sigma: a singular one is a ModelError
            _check_weights(last[2], dt, dx, t_k, X, [np.asarray(pairs[j][0]) for j in kept])
        s_min = stack[0]
        for row in stack[1:]:
            s_min = np.minimum(s_min, row)
        values[k] = v_next - dt * s_min
        bad = ~np.isfinite(values[k])
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), shape)
            i = int(np.argmax(~np.isfinite(stack[(slice(None),) + at])))
            raise NumericsError(f"non-finite value at layer t={t_k:.6g}, node x={X[at]}, "
                                f"a={np.asarray(pairs[kept[i]][0])}: generator row {stack[(i,) + at]}")
        # the kept pair of the first row that attains the minimum (argmin's tie
        # rule); a NaN row never gets here, it fails the finiteness check above
        best, pol = stack[0], kept[0]
        for row, j in zip(stack[1:], kept[1:]):
            take = np.less(row, best)
            best, pol = np.where(take, row, best), np.where(take, j, pol)
        policy[k] = pol

    meta = {
        "cfl": cfl,
        "dt": dt,
        "pad_layers": pad_layers,
        "fixed_point_max_iters": 1,  # one explicit evaluation per layer; the benchmark tracer reads this key
        "n_pairs": len(pairs),
    }
    return ValueSurface(grid, model_hash, t_vals, axes, values, policy,
                        a_count=len(pairs), meta=meta)


@dataclass
class ResidualReport:
    max_abs: float
    min_value: float
    argmin: tuple


def residual(surface: ValueSurface, model: ModelSpec) -> ResidualReport:
    """Centered-difference residual of the solved surface at interior nodes.

    A numerical certificate that the discrete solution drives the worst-case
    generator to ~0 away from kinks; boundary and terminal nodes are left
    out. The generator is evaluated once per block of layers, and max_abs,
    min_value and argmin are reduced block by block, so the residual makes
    no full-surface array. A surface without a finite interior value (one
    time step has no interior layer) raises HedgeGameError.
    """
    v = surface.values
    t = surface.t
    dt = float(t[1] - t[0])
    d = surface.dim
    dx = [ax[1] - ax[0] for ax in surface.axes]
    X = np.stack(np.meshgrid(*surface.axes, indexing="ij"), axis=-1)
    interior = tuple(slice(1, -1) for _ in range(d))
    max_abs, min_val, loc = 0.0, np.inf, None
    for k0 in range(1, v.shape[0] - 1, _RESIDUAL_BLOCK):
        k1 = min(k0 + _RESIDUAL_BLOCK, v.shape[0] - 1)
        blk = v[k0:k1]
        q = (v[k0 + 1:k1 + 1] - v[k0 - 1:k1 - 1]) / (2.0 * dt)
        p = np.stack([np.gradient(blk, dx[i], axis=1 + i) for i in range(d)], axis=-1)
        M = np.zeros(blk.shape + (d, d))
        for i in range(d):
            M[..., i, i] = np.gradient(np.gradient(blk, dx[i], axis=1 + i), dx[i], axis=1 + i)
        if d == 2:
            cr = np.gradient(np.gradient(blk, dx[0], axis=1), dx[1], axis=2)
            M[..., 0, 1] = cr
            M[..., 1, 0] = cr
        best, _ = min_generator_field(model, t[k0:k1], X, blk, q, p, M)
        res = best[(slice(None),) + interior]
        # the blocks run in C order, so a block's minimum replaces the running
        # one only when strictly smaller: the first occurrence, as nanargmin
        finite = np.isfinite(res)
        if not finite.any():
            continue
        max_abs = max(max_abs, float(np.max(np.abs(res[finite]))))
        arg = np.unravel_index(int(np.argmin(np.where(finite, res, np.inf))), res.shape)
        if res[arg] < min_val:
            min_val = float(res[arg])
            loc = (k0 + arg[0],) + tuple(1 + i for i in arg[1:])
    if loc is None:
        raise HedgeGameError(f"residual has no finite interior value on {len(t)} layers "
                             f"(interior layers need t_steps >= 2)")
    coords = (float(t[loc[0]]),) + tuple(float(surface.axes[i][loc[1 + i]]) for i in range(d))
    return ResidualReport(max_abs, min_val, coords)


# ---------------------------------------------------------------------------
# surface IO
# ---------------------------------------------------------------------------


def save_csv(surface: ValueSurface, path):
    """One row per (layer, node), written to the file one layer at a time."""
    d = surface.dim
    cols = ["t_index", "t"] + [f"x{i}" for i in range(d)] + ["value", "policy_index"]
    mesh = np.stack(np.meshgrid(*surface.axes, indexing="ij"), axis=-1).reshape(-1, d)
    coords = [",".join(f"{c:.17g}" for c in row) for row in mesh.tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(surface.values.shape[0]):
            head = f"{k},{surface.t[k]:.17g},"
            vals, pol = surface.values[k].reshape(-1).tolist(), surface.policy[k].reshape(-1).tolist()
            fh.write("".join([f"{head}{xs},{v:.17g},{p}\n" for xs, v, p in zip(coords, vals, pol)]))


def write_cache(path, magic, header: dict, arrays):
    """Cache layout: 8-byte magic, <Q header length, JSON header, raw arrays."""
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(hb)))
        fh.write(hb)
        for arr in arrays:
            fh.write(arr.tobytes())


def read_cache(path, magic, parse):
    """Read a ``write_cache`` file as ``parse(header, take)``; ``take(dtype,
    shape)`` returns the next array. Wrong magic, short, garbled or overlong
    files, and arrays that ``parse`` rejects, raise HedgeGameError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != magic:
        raise HedgeGameError(f"not a {magic!r} cache file: bad magic {data[:8]!r}")
    pos = 16

    def take(dtype, shape):
        nonlocal pos
        if min(shape) < 0:
            raise ValueError(f"negative array shape {shape}")
        arr = np.frombuffer(data, dtype=dtype, count=math.prod(shape), offset=pos)
        pos += arr.nbytes
        return arr.reshape(shape).copy()

    try:
        pos += struct.unpack_from("<Q", data, 8)[0]
        out = parse(json.loads(data[16:pos].decode()), take)
        if pos != len(data):
            raise ValueError("file size does not match its header")
        return out
    except (struct.error, ValueError, KeyError, TypeError, IndexError, OverflowError,
            ZeroDivisionError, HedgeGameError) as exc:
        raise HedgeGameError(f"corrupt cache file {path}: {exc}") from None


def save_binary(surface: ValueSurface, path):
    """The surface as a ``HJBSURF1`` cache: values as ``<f8``, and the policy
    as ``<i4`` whatever its type in memory, so the bytes do not depend on it."""
    header = {
        "t_steps": surface.grid.t_steps,
        "x_min": list(surface.grid.x_min),
        "x_max": list(surface.grid.x_max),
        "x_steps": list(surface.grid.x_steps),
        "t_start": surface.t_start,
        "horizon_T": surface.horizon_T,
        "n_layers": int(surface.values.shape[0]),
        "a_count": surface.a_count,
        "model_hash": surface.model_hash,
        "meta": {k: v for k, v in surface.meta.items() if isinstance(v, (int, float, str))},
    }
    write_cache(path, BINARY_MAGIC, header, [np.ascontiguousarray(surface.values, dtype="<f8"),
                                             np.ascontiguousarray(surface.policy, dtype="<i4")])


def _surface_from_cache(header, take) -> ValueSurface:
    """The saved surface with the solve's time axis, ``GridSpec.layer_times``
    of its horizon and pad layers, so ``t`` round-trips bit for bit."""
    grid = GridSpec(header["t_steps"], header["x_min"], header["x_max"], header["x_steps"])
    shape = (header["n_layers"],) + tuple(s + 1 for s in grid.x_steps)
    pad_layers = header["n_layers"] - 1 - grid.t_steps
    if pad_layers < 0:
        raise ValueError(f"{header['n_layers']} layers < t_steps + 1 = {grid.t_steps + 1}")
    t = grid.layer_times(header["horizon_T"], pad_layers)
    return ValueSurface(grid, header["model_hash"], t, grid.axes(), take("<f8", shape),
                        take("<i4", shape), header["a_count"], header.get("meta", {}))


def load_binary(path) -> ValueSurface:
    return read_cache(path, BINARY_MAGIC, _surface_from_cache)
