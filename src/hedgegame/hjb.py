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
import os
import struct
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import Generator, HedgeGameError, ModelSpec, adverse_pairs, validate_assumptions
from .model import min_generator_field  # noqa: F401  patched here by the tracer; ROADMAP item 1A drops it

# layer-pairs per residual() block: a block holds _RESIDUAL_BLOCK // (adverse
# points) layers, since the generator stacks the pairs' terms of the whole block
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


def _points(x, dim: int) -> np.ndarray:
    """x as an (n, dim) array of query points; one point may come as (dim,)."""
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise HedgeGameError(f"query points need shape ({dim},) or (n, {dim}), got {np.shape(x)}")
    return xs


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

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def horizon_T(self) -> float:
        return float(self.t[-1])

    def policy_at(self, t, xs) -> np.ndarray:
        """Pair indices of the policy at the node nearest to (t, x) for each
        row x of xs, with time and space clamped to the grid."""
        dt = float(self.t[1] - self.t[0])
        k = int(np.clip(round((t - self.t_start) / dt), 0, len(self.t) - 1))
        idx = []
        for i, ax in enumerate(self.axes):
            h = ax[1] - ax[0]
            idx.append(np.clip(np.round((xs[:, i] - ax[0]) / h).astype(np.int64), 0, len(ax) - 1))
        return self.policy[(k,) + tuple(idx)]

    # -- derivative fields -------------------------------------------------

    def _span(self, corners):
        """``_LayerOps`` on the layers lo..hi-1 that the corners touch (two for
        one t, one at T), the corners with time index shifted by lo, lo, hi."""
        lo, hi = int(np.min(corners[0][0][0])), int(np.max(corners[-1][0][0])) + 1
        vp = np.empty((hi - lo,) + tuple(n + 2 for n in self.values.shape[1:]))
        ops = _LayerOps(vp, self.grid.dx).load(self.values[lo:hi])
        return ops, [((idx[0] - lo,) + idx[1:], w) for idx, w in corners], lo, hi

    def _time_difference(self, lo, hi):
        """q on layers lo..hi-1: the central time difference, second-order
        one-sided on the surface's first and last layer."""
        v, dt = self.values, float(self.t[1] - self.t[0])
        if len(v) < 3:
            raise HedgeGameError("eval needs at least 3 time layers for q")
        ext = v[max(lo - 1, 0):hi + 1]
        first = -1.5 / dt * v[:1] + 2.0 / dt * v[1:2] - 0.5 / dt * v[2:3]
        last = 0.5 / dt * v[-3:-2] - 2.0 / dt * v[-2:-1] + 1.5 / dt * v[-1:]
        return np.concatenate([first] * (lo == 0) + [(ext[2:] - ext[:-2]) / (2.0 * dt)]
                              + [last] * (hi == len(v)))

    def _corners(self, tq, xq):
        """Node indices and multilinear weights of the 2^(1+d) cell corners
        around each query (t, x). A query on a node weighs that node 1 and
        the next 0 on every axis; the weights use the axis step."""
        xq = _points(xq, self.dim)
        sides = []
        for axis, h, q in zip([self.t] + self.axes, [self.t[1] - self.t[0], *self.grid.dx],
                              [np.asarray(tq, dtype=float)] + list(xq.T)):
            lo, hi = axis[0], axis[-1]
            if not np.all((q >= lo - 1e-12) & (q <= hi + 1e-12)):
                raise HedgeGameError(f"query outside grid range [{lo}, {hi}]")
            idx = np.clip(((q - lo) / h).astype(int), 0, len(axis) - 2)
            idx += q >= axis[idx + 1]  # a node that truncation put in the cell to its left
            w = np.clip((q - axis[idx]) / h, 0.0, 1.0)
            sides.append(((idx, 1.0 - w), (np.minimum(idx + 1, len(axis) - 1), w)))
        return [(tuple(idx for idx, _ in corner),
                 math.prod((w for _, w in corner[1:]), start=corner[0][1]))
                for corner in product(*sides)]

    @staticmethod
    def _interp(field, corners):
        """Multilinear interpolation of a node field at located corners; the
        axes of ``field`` after the node axes are carried along."""
        nodes = len(corners[0][0])
        out = np.zeros(corners[0][1].shape + field.shape[nodes:])
        for idx, wgt in corners:
            out += wgt.reshape(wgt.shape + (1,) * (field.ndim - nodes)) * field[idx]
        return out

    def value(self, t, x):
        scalar = np.asarray(x).ndim == 1
        out = self._interp(self.values, self._corners(t, x))
        return float(out[0]) if scalar and np.isscalar(t) else out

    def gradient(self, t, x) -> np.ndarray:
        """Interpolated gradient alone: the ``p`` of ``eval`` bit for bit."""
        ops, corners, _, _ = self._span(self._corners(t, x))
        return self._interp(ops.p_cen, corners)

    def eval(self, t, x) -> EvalPack:
        """Interpolated (value, gradient, hessian, time derivative) at (t, x).

        Exact at grid nodes; p and M are those of ``_LayerOps`` (at a boundary
        node, the linear-extrapolation closure), q the time difference of
        ``_time_difference``, each built per call on the layers the query
        touches and multilinearly interpolated between nodes.
        """
        scalar = np.asarray(x).ndim == 1 and np.isscalar(t)
        ops, corners, lo, hi = self._span(self._corners(t, x))
        pack = EvalPack(*(self._interp(f, corners) for f in
                          (self.values[lo:hi], ops.p_cen, ops.M, self._time_difference(lo, hi))))
        if scalar:
            return EvalPack(float(pack.value[0]), pack.p[0], pack.M[0], float(pack.q[0]))
        return pack


# ---------------------------------------------------------------------------
# scheme internals
# ---------------------------------------------------------------------------


def _shift(vp: np.ndarray, axis: int, off: int, d: int) -> np.ndarray:
    """Core-shaped view of the padded array shifted by ``off`` along spatial
    ``axis``, one of the last ``d`` axes of ``vp``."""
    sl = [slice(None)] * (vp.ndim - d) + [slice(1, -1)] * d
    sl[axis - d] = slice(1 + off, vp.shape[axis - d] - 1 + off)
    return vp[tuple(sl)]


class _LayerOps:
    """Central differences of known layers: the gradient ``p_cen`` and the
    second differences ``M`` (M_ii, and in d = 2 the cross difference as
    M_01 = M_10), as the derivative pack of the generator. This is the one
    place where node values become p and M: the sweep, the residual and
    the surface's ``gradient`` and ``eval`` read them here.

    It binds once to ``vp``, the caller's padded buffer for one layer, or a
    stack of layers along its leading axes, on the ``len(dx)`` spatial axes
    that end its shape. ``load(v)`` writes v inside one ghost node per side
    and axis, extrapolated linearly one axis after the other (a ghost row
    of axis 1 also extrapolates the ghost nodes of axis 0), so at a boundary
    node p is the one-sided difference and M_ii vanishes. It builds
    ``p_cen`` in place and ``M`` on first access after it, also in place, so
    a caller reads both before its next ``load``.
    """

    def __init__(self, vp: np.ndarray, dx: tuple):
        d, k = len(dx), vp.ndim - len(dx)
        core = (slice(None),) * k + (slice(1, -1),) * d  # not an Ellipsis: one layer's ghosts stay scalars
        self.v = vp[core]
        self._ghosts = [tuple((slice(None),) * (k + ax) + (i,) + core[k + ax + 1:] for i in side)
                        for ax in range(d) for side in ((0, 1, 2), (-1, -2, -3))]
        self._shifts = [(_shift(vp, i, +1, d), _shift(vp, i, -1, d)) for i in range(d)]
        self.p_cen = np.empty(self.v.shape + (d,))
        self._vp, self._dx, self._M, self._fresh = vp, dx, None, False  # _fresh: M is the loaded layer's

    def load(self, v: np.ndarray) -> "_LayerOps":
        np.copyto(self.v, v)
        for ghost, near, far in self._ghosts:
            self._vp[ghost] = 2.0 * self._vp[near] - self._vp[far]
        for i, (plus, minus) in enumerate(self._shifts):
            p = self.p_cen[..., i]
            np.divide(np.subtract(plus, minus, out=p), 2.0 * self._dx[i], out=p)
        self._fresh = False
        return self

    @property
    def M(self) -> np.ndarray:
        dx, d, vp = self._dx, len(self._dx), self._vp
        if self._M is None:
            self._M = np.empty(self.v.shape + (d, d))
        if not self._fresh:
            for i, (plus, minus) in enumerate(self._shifts):
                m = self._M[..., i, i]
                np.divide(np.add(np.subtract(plus, np.multiply(self.v, 2.0, out=m), out=m), minus, out=m),
                          dx[i] ** 2, out=m)
            if d == 2:
                cross = vp[..., 2:, 2:] + vp[..., :-2, :-2] - vp[..., 2:, :-2] - vp[..., :-2, 2:]
                self._M[..., 0, 1] = self._M[..., 1, 0] = cross / (4.0 * dx[0] * dx[1])
            self._fresh = True
        return self._M


def _check_weights(terms, dt, dx, t, X, pairs):
    """Raise NumericsError at the worst node (NaN first) where the scheme
    weighs a node negatively, on a generator's stacked ``terms``. With u = p
    the first differences carry the drift r - Sig_ii/2 at either rate, so
    neighbour weights need the cell Peclet number |r - Sig_ii/2| h_i / Sig_ii
    <= 1; the explicit wealth term puts -dt r on the centre node, so the
    centre weight needs
    1 - dt sum_i Sig_ii/h_i^2 - dt max(r_lend, r_borrow) >= 0. The d = 2
    cross term is not checked. The error names the layer t, the node of
    mesh X and the a of the row's kept pair."""
    def worst(score):
        at = np.unravel_index(int(np.argmax(np.where(np.isnan(score), np.inf, score))), score.shape)
        a = pairs[terms.kept[at[0]]][0]
        return at, f"scheme not monotone at layer t={t:.6g}, node x={X[at[1:]]}, a={a}"

    centre = 1.0
    for i, h in enumerate(dx):
        var = 2.0 * terms.half_var[i]
        peclet = np.maximum(*(np.abs(r - terms.half_var[i]) for r in terms.rates)) * h / var
        if not np.all(peclet <= 1.0):
            at, where = worst(peclet)
            raise NumericsError(f"{where}: cell Peclet number {peclet[at]:.4g} > 1 on axis {i} "
                                f"(h={h:.4g}; h <= {h / peclet[at]:.4g} would pass)")
        centre = centre - dt * var / (h * h)
    centre = centre - dt * np.maximum(*terms.rates)
    if not np.all(centre >= 0.0):
        at, where = worst(-centre)
        raise NumericsError(f"{where}: centre weight {centre[at]:.4g} < 0 "
                            f"(dt={dt:.4g}; dt <= {dt / (1.0 - centre[at]):.4g} would pass)")


def solve(model: ModelSpec, grid: GridSpec, *, pad_layers: int = 0,
          terminal=None, shake_points=None, validate: bool = True) -> ValueSurface:
    """Backward sweep for the worst-case value surface.

    ``terminal`` overrides the model payoff as terminal data. With
    ``shake_points`` given, the adverse minimum additionally ranges over the
    listed base-point shifts of (t, x), with shifted times clamped to
    [0, T]. ``pad_layers`` extends the sweep below t = 0 with coefficients
    frozen at their t = 0 values.

    The solve holds one ``model.Generator`` over the pairs, and layer k is
    v_{k+1} - dt min_pairs La(t_k, x, v_{k+1}, 0, p, M), with p and M the
    central differences of v_{k+1} (``_LayerOps``): the wealth term is
    explicit. The policy is the generator's argmin. The model is hashed
    before the first layer.

    Refuses to run when the K-based stability number exceeds 1, and raises
    NumericsError where a derivation of the generator's terms puts a
    negative or NaN weight on a node (``_check_weights``) and where a layer
    holds a non-finite value, naming the layer, the node and the pair of
    the generator's argmin there (the first NaN row).
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

    ops = _LayerOps(np.empty(tuple(n + 2 for n in shape)), dx)
    generator = Generator(model, pairs)
    for k in range(n_layers - 1, -1, -1):
        t_k = float(t_vals[k])
        v_next = values[k + 1]
        ops.load(v_next)
        terms = generator.terms
        best, policy[k] = generator(t_k, X, v_next, 0.0, ops.p_cen, ops.M)
        if generator.terms is not terms:  # after the derivation has checked every sigma
            _check_weights(generator.terms, dt, dx, t_k, X, pairs)
        v_k = np.subtract(v_next, np.multiply(best, dt, out=values[k]), out=values[k])
        if not (math.isfinite(v_k.min()) and math.isfinite(v_k.max())):  # min and max carry a NaN
            at = np.unravel_index(int(np.argmax(~np.isfinite(v_k))), shape)
            raise NumericsError(f"non-finite value at layer t={t_k:.6g}, node x={X[at]}, "
                                f"a={pairs[policy[k][at]][0]}: generator row {best[at]}")

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
    out. q is the central time difference, p and M those of ``_LayerOps``
    on each layer. One ``model.Generator`` runs once per block of layers
    (fewer layers the more adverse points it stacks) on buffers that only
    the last, partial block replaces, and max_abs, min_value and argmin are
    reduced block by block, so the residual makes no full-surface array. A
    surface without a finite interior value (one time step has no interior
    layer) raises HedgeGameError.
    """
    v, t = surface.values, surface.t
    dt = float(t[1] - t[0])
    d = surface.dim
    X = surface.grid.mesh()
    interior = tuple(slice(1, -1) for _ in range(d))
    max_abs, min_val, loc = 0.0, np.inf, None
    block = max(1, _RESIDUAL_BLOCK // len(model.A_points))
    vp = np.empty((block,) + tuple(n + 2 for n in v.shape[1:]))
    ops, q, generator = _LayerOps(vp, surface.grid.dx), np.empty((block,) + v.shape[1:]), Generator(model)
    for k0 in range(1, v.shape[0] - 1, block):
        k1 = min(k0 + block, v.shape[0] - 1)
        if k1 - k0 < len(q):  # the last, partial block
            ops, q = _LayerOps(vp[:k1 - k0], surface.grid.dx), q[:k1 - k0]
        np.divide(np.subtract(v[k0 + 1:k1 + 1], v[k0 - 1:k1 - 1], out=q), 2.0 * dt, out=q)
        ops.load(v[k0:k1])
        best, _ = generator(t[k0:k1], X, v[k0:k1], q, ops.p_cen, ops.M)
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
    """Cache layout: 8-byte magic, <Q header length, JSON header, raw arrays.
    Each C-contiguous array is written from its own buffer, without a copy."""
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(hb)))
        fh.write(hb)
        for arr in arrays:
            fh.write(arr.data)


def read_cache(path, magic, parse):
    """Read a ``write_cache`` file as ``parse(header, take)``; ``take(dtype,
    shape)`` reads the next array straight into a new read-only array.
    Wrong magic, short, garbled or overlong files, and arrays that
    ``parse`` rejects, raise HedgeGameError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:8] != magic:
            raise HedgeGameError(f"not a {magic!r} cache file: bad magic {head[:8]!r}")

        def take(dtype, shape):
            if min(shape) < 0 or math.prod(shape) * np.dtype(dtype).itemsize > size - fh.tell():
                raise ValueError(f"array shape {shape} does not fit the rest of the file")
            arr = np.empty(shape, dtype=dtype)
            fh.readinto(memoryview(arr).cast("B"))
            arr.flags.writeable = False
            return arr

        try:
            out = parse(json.loads(fh.read(min(struct.unpack_from("<Q", head, 8)[0], size)).decode()),
                        take)
            if fh.tell() != size:
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
