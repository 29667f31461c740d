"""Backward finite-difference solver for the worst-case pricing equation.

The terminal-value problem  min_a La(., v, dv/dt, Dv, D^2v) = 0, v(T) = g
is integrated backward with an explicit monotone scheme: central second
differences, first differences upwinded against the effective drift, and the
adverse minimum taken pointwise inside a damped fixed-point loop that
resolves the semilinear dependence of the wealth drift on the value itself.

Grids are rectangular in (t, x) with d <= 2 spatial axes. Surfaces are
immutable once solved.
"""

from __future__ import annotations

import io
import json
import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import (HedgeGameError, ModelSpec, adverse_pairs, base_point, market_drift,
                    market_read, min_generator_field, validate_assumptions)

_PROBE_H = 1e-6
_FP_TOL = 1e-10
_FP_MAX_ITERS = 50
# layers per residual() block; bounds its difference and coefficient stacks
# (the `price` benchmark's peak RSS is 106 MB at 64 layers and at 128)
_RESIDUAL_BLOCK = 64

BINARY_MAGIC = b"HJBSURF1"


class NumericsError(HedgeGameError):
    """Numerical failure of the scheme (instability, non-convergence)."""


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
        if any(lo >= hi for lo, hi in zip(self.x_min, self.x_max)):
            raise HedgeGameError("x_min < x_max required componentwise")
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


class ValueSurface:
    """Solved value/policy fields on a grid; read-only after construction."""

    def __init__(self, grid, model_hash, t, axes, values, policy, a_count, meta):
        self.grid = grid
        self.model_hash = model_hash
        self.t = np.asarray(t, dtype=float)
        self.axes = [np.asarray(ax, dtype=float) for ax in axes]
        self.values = np.asarray(values, dtype=float)
        self.policy = np.asarray(policy, dtype=np.int32)
        self.a_count = int(a_count)
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
        if np.any(q < lo - 1e-12) or np.any(q > hi + 1e-12):
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
    """Finite differences of one known layer, shared across adverse points.

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
        self.center = v
        self.fwd = [(up[i] - v) / dx[i] for i in range(d)]
        self.bwd = [(v - dn[i]) / dx[i] for i in range(d)]
        self.cen = [(up[i] - dn[i]) / (2.0 * dx[i]) for i in range(d)]
        self.sec = [(up[i] - 2.0 * v + dn[i]) / (dx[i] ** 2) for i in range(d)]
        self.cross = None
        if d == 2:
            pp = vp[2:, 2:]
            mm = vp[:-2, :-2]
            pm = vp[2:, :-2]
            mp = vp[:-2, 2:]
            self.cross = (pp + mm - pm - mp) / (4.0 * dx[0] * dx[1])
        self.p_cen = np.stack(self.cen, axis=-1)


def _same_read(read, other) -> bool:
    """Two market reads with the same bits (-0.0 and 0.0 stay apart)."""
    return all(r.tobytes() == o.tobytes() for r, o in zip(read, other))


class _PairTerms:
    """What one pair's read gives the generator before any layer value
    enters: mu and sigma on the mesh, 0.5 Sig_ii, Sig_01 and the hedged
    drift ``at(z)``, a function of y alone (``model.market_drift``)."""

    def __init__(self, mu, sig, at, shape):
        d = mu.shape[-1]
        self.mu, self.sig = mu.reshape(shape + (d,)), sig.reshape(shape + (d, d))
        Sig = np.einsum("...ik,...jk->...ij", self.sig, self.sig)
        self.half_var = [0.5 * Sig[..., i, i] for i in range(d)]
        self.cov = Sig[..., 0, 1] if d == 2 else None
        self.at = at


def _adverse_terms(pt: _PairTerms, ops: _LayerOps):
    """Discrete-generator pieces of one pair's terms ``pt`` on one layer.

    Returns (const, f0, fy): const = everything except the hedged drift
    (the drift/diffusion terms with the p-dependence linearised around the
    centered gradient and its linear part moved onto upwind differences);
    f0 = the hedged drift at y = v_next (the first round, read with the 2d
    probes); fy = the hedged drift at the centered z as a function of y.
    """
    mu, sig = pt.mu, pt.sig
    d = mu.shape[-1]
    z_c = np.einsum("...ji,...j->...i", sig, ops.p_cen)
    h = _PROBE_H * (1.0 + np.abs(z_c))
    n_z = 2 * d + 1  # z rows: +h and -h on each axis, then z_c
    zs = np.repeat(z_c[None], n_z, axis=0)
    for j in range(d):
        zs[2 * j, ..., j] += h[..., j]
        zs[2 * j + 1, ..., j] -= h[..., j]
    f = np.asarray(pt.at(zs.reshape(n_z, -1, d))(ops.center.reshape(-1))).reshape(zs.shape[:-1])
    fz = np.stack([(f[2 * j] - f[2 * j + 1]) / (2.0 * h[..., j]) for j in range(d)], axis=-1)
    drift_eff = mu - np.einsum("...ij,...j->...i", sig, fz)
    const = np.zeros(ops.center.shape)
    for i in range(d):
        p_up = np.where(drift_eff[..., i] > 0.0, ops.fwd[i], ops.bwd[i])
        const -= mu[..., i] * ops.cen[i]
        const -= drift_eff[..., i] * (p_up - ops.cen[i])
        const -= pt.half_var[i] * ops.sec[i]
    if d == 2:
        const -= pt.cov * ops.cross
    return const, f[-1], pt.at(z_c.reshape(-1, d))


def solve(model: ModelSpec, grid: GridSpec, *, pad_layers: int = 0,
          terminal=None, shake_points=None, validate: bool = True) -> ValueSurface:
    """Backward sweep for the worst-case value surface.

    ``terminal`` overrides the model payoff as terminal data. With
    ``shake_points`` given, the adverse minimum additionally ranges over the
    listed base-point shifts of (t, x), with shifted times clamped to
    [0, T]. ``pad_layers`` extends the sweep below t = 0 with coefficients
    frozen at their t = 0 values.

    Each layer reads every pair once, on its own shifted mesh, for all
    fixed-point rounds; a round at a pair's centered z redoes only the part
    of the hedged drift that depends on y. The model is read through its
    ``finance`` spec (``market_read``). A pair whose read (mu, sigma and both
    rates) equals bit for bit a kept read of its adverse point is left out
    of the minimum: its generator row would be the same bits, and the
    policy keeps the lowest pair index of a tie either way. A kept pair
    whose read equals bit for bit its read of the last layer where it was
    kept reuses the terms derived from that read (``_PairTerms``: sigma
    sigma^T, the hedge map, mu + gamma/2 and the rates), which are functions
    of the read alone. The minimum over the kept rows is an ``np.minimum``
    chain, and the policy an ``np.less``/``np.where`` chain that keeps the
    lowest pair of a tie. The model is hashed before the first layer.

    Refuses to run when the K-based stability number exceeds 1; the
    semilinear wealth term is resolved per node by damped fixed-point
    iteration to 1e-10 (at most 50 rounds).
    """
    if grid.dim != model.dim:
        raise HedgeGameError(f"grid dim {grid.dim} != model dim {model.dim}")
    if validate:
        rep = validate_assumptions(model, sample_count=256, rng_seed=0,
                                   x_box=(min(grid.x_min), max(grid.x_max)))
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
    policy = np.zeros((n_layers + 1,) + shape, dtype=np.int32)
    values[-1] = np.asarray(g_term(X), dtype=float)

    Xf = X.reshape(-1, grid.dim)
    vp = np.empty(tuple(n + 2 for n in shape))
    n_b = len(pairs) // len(model.A_points)  # shifts per adverse point (pairs are A-major)
    last = {}  # pair index -> (read, _PairTerms) of the last layer that kept the pair
    max_iters_seen = 0
    for k in range(n_layers - 1, -1, -1):
        t_k = float(t_vals[k])
        v_next = values[k + 1]
        ops = _LayerOps(v_next, dx, vp)
        terms, kept, reads = [], [], {}  # reads: A index -> kept market reads
        for j, (a, b) in enumerate(pairs):
            t_eff, x_eff = base_point(t_k, Xf, b, T)
            read = market_read(model.finance, t_eff, x_eff, a)
            kept_reads = reads.setdefault(j // n_b, [])
            if any(_same_read(read, other) for other in kept_reads):
                continue  # its stack row would be a kept pair's, bit for bit
            kept_reads.append(read)
            if j not in last or not _same_read(read, last[j][0]):
                last[j] = read, _PairTerms(read[0], read[1], market_drift(read, t_eff, x_eff, a), shape)
            terms.append(_adverse_terms(last[j][1], ops))
            kept.append(j)

        y = v_next.copy()
        stack = np.empty((len(terms),) + shape)
        converged = False
        for it in range(_FP_MAX_ITERS):
            for row, (const, f0, fy) in enumerate(terms):
                f = f0 if it == 0 else fy(y.reshape(-1))
                np.add(np.reshape(f, shape), const, out=stack[row])
            s_min = stack[0]
            for row in stack[1:]:
                s_min = np.minimum(s_min, row)
            y_new = v_next - dt * s_min
            delta = float(np.max(np.abs(y_new - y)))
            omega = 1.0 if it < 8 else 0.5
            y = y + omega * (y_new - y)
            max_iters_seen = max(max_iters_seen, it + 1)
            if delta < _FP_TOL:
                converged = True
                break
        if not converged:
            worst = np.unravel_index(int(np.argmax(np.abs(y_new - y))), y.shape)
            raise NumericsError(
                f"fixed point did not converge at layer t={t_k:.6g}, node {worst}, "
                f"residual {delta:.3e}"
            )
        values[k] = y
        # the kept pair of the first row that attains the minimum (argmin's tie
        # rule); a NaN row never gets here, it fails the fixed point above
        best, pol = stack[0], kept[0]
        for row, j in zip(stack[1:], kept[1:]):
            take = np.less(row, best)
            best, pol = np.where(take, row, best), np.where(take, j, pol)
        policy[k] = pol

    g_abs = float(np.max(np.abs(values[-1])))
    K = model.lipschitz_K
    meta = {
        "cfl": cfl,
        "dt": dt,
        "pad_layers": pad_layers,
        "bound": g_abs * float(np.exp(K * T)) + K * T,
        "max_abs_value": abs(float(np.maximum(values.max(), -values.min()))),
        "fixed_point_max_iters": max_iters_seen,
        "n_pairs": len(pairs),
    }
    return ValueSurface(grid, model_hash, t_vals, axes, values, policy,
                        a_count=len(pairs), meta=meta)


@dataclass
class ResidualReport:
    max_abs: float
    min_value: float
    argmin: tuple

    def to_dict(self):
        return {"max_abs": self.max_abs, "min_value": self.min_value,
                "argmin": [float(v) for v in self.argmin]}


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
    d = surface.dim
    cols = ["t_index", "t"] + [f"x{i}" for i in range(d)] + ["value", "policy_index"]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    mesh = np.stack(np.meshgrid(*surface.axes, indexing="ij"), axis=-1).reshape(-1, d)
    coords = [",".join(f"{c:.17g}" for c in row) for row in mesh.tolist()]
    for k in range(surface.values.shape[0]):
        head = f"{k},{surface.t[k]:.17g},"
        vals, pol = surface.values[k].reshape(-1).tolist(), surface.policy[k].reshape(-1).tolist()
        buf.writelines(f"{head}{xs},{v:.17g},{p}\n" for xs, v, p in zip(coords, vals, pol))
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


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
    files raise HedgeGameError."""
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
            ZeroDivisionError) as exc:
        raise HedgeGameError(f"corrupt cache file {path}: {exc}") from None


def save_binary(surface: ValueSurface, path):
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
    grid = GridSpec(header["t_steps"], header["x_min"], header["x_max"], header["x_steps"])
    shape = (header["n_layers"],) + tuple(s + 1 for s in grid.x_steps)
    n_layers = header["n_layers"] - 1
    dt = (header["horizon_T"] - header["t_start"]) / n_layers
    t = header["t_start"] + dt * np.arange(n_layers + 1)
    t[-1] = header["horizon_T"]
    return ValueSurface(grid, header["model_hash"], t, grid.axes(), take("<f8", shape),
                        take("<i4", shape), header["a_count"], header.get("meta", {}))


def load_binary(path) -> ValueSurface:
    return read_cache(path, BINARY_MAGIC, _surface_from_cache)
