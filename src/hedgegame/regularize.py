"""Smooth supersolution construction by coefficient shaking.

Pipeline: solve the pricing equation with shaken coefficients (adverse
minimum extended over small base-point shifts, terminal data raised by 2
eps), take a quadratic inf-convolution (Moreau envelope) of the node values,
then mollify with a one-sided-in-time polynomial bump kernel. Parameters
(eps, k, delta) are selected on a ladder until the result certifies as a
classical supersolution that stays below a prescribed target on a compact
box. The certified output drives the feedback hedge of the game module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from . import hjb
from .model import Generator, HedgeGameError, ModelSpec, shake_lattice, shaken_payoff

# normalised bump constant: int (1-s^2)^4 over [-1,1] is 256/315
_C_SPACE = 315.0 / 256.0


class CertificationError(HedgeGameError):
    """Smooth supersolution construction ran out of ladder rungs."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Box:
    """Compact (t, x) box used for target domination and certification."""

    t_lo: float
    t_hi: float
    x_lo: tuple
    x_hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_lo", tuple(float(v) for v in np.atleast_1d(self.x_lo)))
        object.__setattr__(self, "x_hi", tuple(float(v) for v in np.atleast_1d(self.x_hi)))
        if self.t_lo > self.t_hi or any(a > b for a, b in zip(self.x_lo, self.x_hi)):
            raise HedgeGameError("empty box")

    def holds(self, t, xs):
        """Which times ``t`` and which points ``xs`` (coordinates on the last
        axis) lie in the box, each bound widened by 1e-12: two masks."""
        lo, hi = np.array(self.x_lo) - 1e-12, np.array(self.x_hi) + 1e-12
        return ((t >= self.t_lo - 1e-12) & (t <= self.t_hi + 1e-12),
                np.all((xs >= lo) & (xs <= hi), axis=-1))


# ---------------------------------------------------------------------------
# shaken solve
# ---------------------------------------------------------------------------


@dataclass
class ShakenSurface:
    """Solution of the shaken equation with terminal data g + 2 eps."""

    eps: float
    surface: hjb.ValueSurface
    c_reg: float
    c_eps: float


def solve_shaken(model: ModelSpec, grid: hjb.GridSpec, eps: float, *, pad_layers: int = 0,
                 validate: bool = False) -> ShakenSurface:
    """Solve with base points shaken over ``shake_lattice(eps, dim)`` and
    payoff g + 2 eps.

    With eps = 0 this reproduces the plain solver bit for bit. The empirical
    regularity constant c_reg = max |w - g_eps| / sqrt(T - t) over the
    terminal-adjacent layers calibrates the band [T - c_eps, T] on which
    w >= g + eps is expected; it bounds the ladder's first mollifier width.
    Terminal domination itself is checked on the smooth surface
    (``verify_supersolution``'s terminal margin).
    """
    if not 0.0 <= eps <= 1.0:
        raise HedgeGameError("eps must lie in [0, 1]")
    surface = hjb.solve(model, grid, pad_layers=pad_layers, terminal=shaken_payoff(model, eps),
                        shake_points=shake_lattice(eps, model.dim), validate=validate)
    T = surface.horizon_T
    g_eps = surface.values[-1]
    n_adj = min(10, len(surface.t) - 1)
    c_reg = 0.0
    for k in range(len(surface.t) - 1 - n_adj, len(surface.t) - 1):
        tau = T - float(surface.t[k])
        gap = float(np.max(np.abs(surface.values[k] - g_eps)))
        c_reg = max(c_reg, gap / math.sqrt(tau))
    if c_reg > 0.0:
        c_eps = (eps / c_reg) ** 2
    else:
        c_eps = T - max(surface.t_start, 0.0)
    c_eps = min(c_eps, T - max(surface.t_start, 0.0))
    return ShakenSurface(eps, surface, c_reg, c_eps)


# ---------------------------------------------------------------------------
# quadratic inf-convolution (Moreau envelope) on the grid
# ---------------------------------------------------------------------------


def _axis_pass(arr: np.ndarray, coords: np.ndarray, k: float):
    """Exact 1-d Moreau envelope along axis 0, all lines at once.

    Candidates are restricted to the window guaranteed to contain the
    minimiser by the displacement bound k |z - z*|^2 <= max(w) - min(w);
    within it every candidate is evaluated, so the result equals the full
    quadratic scan exactly (same FP expressions, first-index tie rule).
    Each shift compares on leading-axis slices into buffers allocated once.
    """
    n = arr.shape[0]
    rng = float(np.max(arr) - np.min(arr))
    if k <= 0.0:
        raise HedgeGameError("inf-convolution requires k > 0")
    h = float(np.min(np.diff(coords))) if n > 1 else 1.0
    reach = math.sqrt(max(rng, 0.0) / k)  # a non-finite range raises here
    r = min(n - 1, int(math.ceil(reach / h)) + 1)
    # the buffers take arr's memory layout, so a moved axis comes back C-ordered
    out, arg = np.full_like(arr, np.inf), np.full_like(arr, -1, dtype=np.int64)
    cand, take = np.empty_like(arr), np.empty_like(arr, dtype=bool)
    column = (n,) + (1,) * (arr.ndim - 1)
    c, idx = coords.reshape(column), np.arange(n).reshape(column)
    # ascending shifts with strict replacement: ties keep the lowest source
    # index, matching an ascending full scan
    for s in range(-r, r + 1):
        src, dst = slice(max(s, 0), n + min(s, 0)), slice(max(-s, 0), n + min(-s, 0))
        np.add(arr[src], k * (c[dst] - c[src]) ** 2, out=cand[dst])
        np.less(cand[dst], out[dst], out=take[dst])
        np.copyto(out[dst], cand[dst], where=take[dst])
        np.copyto(arg[dst], idx[src], where=take[dst])
    return out, arg


def inf_convolution(values: np.ndarray, k: float, coords):
    """Discrete quadratic inf-convolution over all grid nodes.

    Computes min over nodes z' of values(z') + k sum_ax (z_ax - z'_ax)^2
    one axis at a time (the separable distance-transform factorisation) and
    returns the envelope together with the argmin multi-index per node.
    """
    values = np.asarray(values, dtype=float)
    coords = [np.asarray(c, dtype=float) for c in coords]
    if len(coords) != values.ndim:
        raise HedgeGameError("one coordinate array per axis required")
    out = values
    args = []
    for ax in range(values.ndim):
        out, win = (np.moveaxis(a, 0, ax)
                    for a in _axis_pass(np.moveaxis(out, ax, 0), coords[ax], k))
        args = [np.take_along_axis(a, win, axis=ax) for a in args] + [win]
    return out, np.stack(args, axis=-1)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


class MollifierKernel:
    """Product bump kernel: support [-1, 0] in time, [-1, 1]^d in space.

    Each factor is the normalised polynomial bump k(s) = C (1 - s^2)^4; the
    time factor is the same bump mapped onto [-1, 0], k_t(s) = 2 k(2 s + 1),
    so time is mollified like a space axis of half-width delta / 2 centred
    at t - delta / 2. Besides the density ("pdf") the mollifier reads the
    CDF Phi and the upper second antiderivative Q(w) = int_w^1 (s - w) k(s) ds,
    each as a polynomial in a point's offset inside its grid cell
    (``columns``).
    """

    def __init__(self):
        pdf = _C_SPACE * Polynomial([1.0, 0.0, -1.0]) ** 4
        cdf = pdf.integ(lbnd=-1.0)
        self.coef = {"pdf": pdf.coef, "cdf": cdf.coef,
                     "upper": (-(1.0 - cdf).integ(lbnd=1.0)).coef}

    def columns(self, name, z):
        """Coefficients in v of the functional at z - v clipped to [-1, 1],
        for every entry of z: re-expanded about z inside (-1, 1), else the
        edge value, which the dyadic coefficients make exact (k = 0, Phi = 0
        or 1, Q = 1 or 0), and for Q below -1 its continuation Q(s) = -s."""
        coef = self.coef[name]
        out = np.empty(np.shape(z) + coef.shape)
        out[...] = coef
        zc = np.clip(z, -1.0, 1.0)
        for i in range(len(coef) - 1):  # Horner's Taylor shift to P(zc + y)
            for j in range(len(coef) - 2, i - 1, -1):
                out[..., j] += zc * out[..., j + 1]
        out *= (-1.0) ** np.arange(len(coef))  # y = -v
        edge, below = np.abs(z) >= 1.0, z <= -1.0
        out[edge, 1:] = 0.0
        if name == "upper":
            out[below, 0] += -1.0 - z[below]
            out[below, 1] = 1.0
        return out


_KERNEL = MollifierKernel()


def _band_size(coords, half):
    # the kernel vanishes to fourth order at its edge, so rounding in
    # 2 half / h may drop a sliver of the support without a visible error
    return int(math.ceil(2.0 * half / float(coords[1] - coords[0]) - 1e-9)) + 2


class _Axis:
    """The three 1-d functionals on one uniform axis, tabulated per cell.

    A query centre c has its band of m nodes j0 .. j0 + m - 1 from
    j0 = floor(pos), pos = (c - w - x0) / h, which covers the support
    [c - w, c + w]. Node indices are clipped only when data is gathered, so
    the multilinear interpolant continues as a constant outside the grid.
    On the band the interpolant f has slopes s_j = (f[j+1] - f[j]) / h, and
    with z_j = (x_j - c) / w the functionals are exact closed forms:

        value   f[j0] + w sum_j s_j (Q(z_j) - Q(z_j+1))
        grad    sum_j s_j (Phi(z_j+1) - Phi(z_j))
        second  sum_j (s_j - s_j-1) k(z_j) / w

    Inside one cell z_j = j rho - 1 - u, with rho = h / w and u = rho
    (pos - j0) the centre's offset, so every weight is a polynomial in u.
    Only column 0 lies below z = -1, and at most one column crosses z = 1
    inside a cell, at u = j rho - 2; that splits the cell in two pieces.
    ``table[kind]`` holds the weight of each node difference as
    coefficients in v = u - mid, about the piece's midpoint, with shape
    (columns, pieces, coefficients).
    """

    def __init__(self, coords, half):
        self.x0, self.h, self.half = float(coords[0]), float(coords[1] - coords[0]), half
        self.n = len(coords)
        self.m = _band_size(coords, half)
        rho = self.h / half
        cross = rho * np.arange(self.m) - 2.0
        cross = cross[(cross > 0.0) & (cross < rho)]
        self.split = float(cross[0]) if cross.size else 0.0
        self.mid = np.array([0.5 * self.split, 0.5 * (self.split + rho)])
        z = rho * np.arange(self.m)[:, None] - 1.0 - self.mid
        q, cdf, pdf = (_KERNEL.columns(name, z) for name in ("upper", "cdf", "pdf"))
        self.table = {"value": (q[:-1] - q[1:]) * (half / self.h),
                      "grad": (cdf[1:] - cdf[:-1]) / self.h,
                      "second": pdf[1:-1] / (half * self.h)}

    def locate(self, centres):
        """Band start j0, piece and offset v from the piece midpoint."""
        # a band wholly outside the grid reads constant data wherever it
        # lies, so far-off starts are clipped before the integer cast
        pos = np.clip((centres - self.half - self.x0) / self.h, -self.m - 1.0, float(self.n))
        j0 = np.floor(pos)
        u = (pos - j0) * (self.h / self.half)
        piece = (u >= self.split).astype(np.intp)
        return j0.astype(np.int64), piece, u - self.mid[piece]

    def weights(self, kind, piece, v):
        """Column weights at located points, shape (columns, points)."""
        return _horner(self.table[kind][:, piece], v)


def _horner(coef, v):
    """Horner's rule in v over the last axis of coef."""
    out = coef[..., -1] * v
    for k in range(coef.shape[-1] - 2, 0, -1):
        out += coef[..., k]
        out *= v
    return out + coef[..., 0]


def _weigh(G, kind, W, at=Ellipsis):
    """The kind's functional of the band running along axis 0 of G: its
    node differences times the column weights W[i], plus f[j0] for the
    value, added at out[at]. Elementwise only, so a point reads the same
    bits in any batch."""
    D = G[2:] - 2.0 * G[1:-1] + G[:-2] if kind == "second" else G[1:] - G[:-1]
    out = D[0] * W[0]
    for i in range(1, len(W)):
        out += D[i] * W[i]
    if kind == "value":
        out[at] += G[0]
    return out


class SmoothSurface:
    """Mollified envelope surface with exact derivatives.

    Holds inf-convolved node values on the (time-extended) solve grid plus
    the mollification parameters. The kernel is a product of 1-d bumps and
    the node interpolant is multilinear, so the mollified surface is the
    separable sum of W[k, i] alpha_k(t) beta_i(x); a derivative swaps one
    factor for its differentiated version. Time is contracted once per
    distinct t (``gradient_lattice``), and only the last such row is kept.
    Space axis 0 is contracted once per grid cell the points touch, into
    polynomial coefficients in the offset inside the cell (``_Axis``); each
    point takes its cell's coefficients, contracts axis 1 (d = 2) with its
    own column weights and ends with one Horner pass.
    """

    _BLOCK = 1 << 17  # coefficients per block of points

    def __init__(self, t_nodes, axes, node_values, delta, *, eps=0.0, k=0.0,
                 model_hash="", meta=None):
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.node_values = np.asarray(node_values, dtype=float)
        self.delta = float(delta)
        self.eps = float(eps)
        self.k = float(k)
        self.model_hash = model_hash
        self.meta = dict(meta or {})
        self.certificate = None
        self._row = (None, None)  # the last (t, gradient_lattice(t))
        if self.delta <= 0.0:
            raise HedgeGameError("delta must be positive")
        self._time = _Axis(self.t_nodes, 0.5 * self.delta)
        self._space = [_Axis(ax, self.delta) for ax in self.axes]
        steps = [self.t_nodes[1] - self.t_nodes[0]] + [a[1] - a[0] for a in self.axes]
        if self.delta < max(steps):
            warnings.warn(
                f"mollifier width {self.delta:.3g}: the kernel is narrower than a grid "
                f"cell ({max(steps):.3g})",
                RuntimeWarning,
            )

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def horizon_T(self) -> float:
        return float(self.t_nodes[-1])

    def _time_row(self, t, kind):
        """Time functional of the nodes at t, edge-padded by one space band
        per side so that every point's band window lies inside it."""
        j0, piece, v = self._time.locate(np.array([t - 0.5 * self.delta]))
        k = np.clip(j0[0] + np.arange(self._time.m), 0, len(self.t_nodes) - 1)
        row = _weigh(self.node_values[k], kind, self._time.weights(kind, piece, v)[:, 0])
        return np.pad(row, [(ax.m, ax.m) for ax in self._space], mode="edge")

    def gradient_lattice(self, t):
        """Time-contracted (padded) value row at t. The last row is kept:
        every caller asks again only for the time it asked for last, as the
        adversaries of a game step do."""
        if self._row[0] != float(t):
            self._row = (float(t), self._time_row(float(t), "value"))
        return self._row[1]

    def _cell_blocks(self, row, kind, starts, pieces):
        """Coefficients in v of axis 0's functional of the padded row, one
        block per (band start, piece) pair, carrying the other axes: shape
        (pairs, ...other axes, coefficients)."""
        T = np.moveaxis(self._space[0].table[kind][:, pieces], -1, 1)
        G = row[starts + np.arange(self._space[0].m)[:, None]]
        out = _weigh(G, kind, T.reshape(T.shape + (1,) * (row.ndim - 1)), at=0)
        return np.ascontiguousarray(np.moveaxis(out, 0, -1))

    def _space_read(self, xs, reads):
        """Space functionals at the points xs, one array per (padded row,
        per-axis kinds) in reads. Points go in blocks so that the per-point
        coefficients stay small."""
        xs = hjb._points(xs, self.dim)
        out = [np.empty(len(xs)) for _ in reads]
        if not len(xs):
            return out
        locs = [ax.locate(xs[:, i]) for i, ax in enumerate(self._space)]
        start = [np.clip(j0, -ax.m, ax.n - 1) + ax.m for ax, (j0, _, _) in zip(self._space, locs)]
        _, piece, v = locs[0]
        # axis 0 is contracted once per (band start, piece) pair in use
        lo, span = int(start[0].min()), int(start[0].max() - start[0].min()) + 1
        pair = piece * span + start[0] - lo
        used = np.zeros(2 * span, dtype=bool)
        used[pair] = True
        block = np.cumsum(used)[pair] - 1
        used = np.flatnonzero(used)
        coefs = [self._cell_blocks(row, kinds[0], used % span + lo, used // span)
                 for row, kinds in reads]
        step = max(1, self._BLOCK // max(c.shape[-1] for c in coefs)
                   // math.prod(ax.m for ax in self._space[1:]))
        for a in range(0, len(xs), step):
            pts = slice(a, a + step)
            for res, coef, (_, kinds) in zip(out, coefs, reads):
                if self.dim == 1:
                    coef = np.take(coef, block[pts], axis=0)
                else:
                    ax, (_, piece1, v1) = self._space[1], locs[1]
                    win = coef[block[pts], start[1][pts] + np.arange(ax.m)[:, None]]
                    coef = _weigh(win, kinds[1], ax.weights(kinds[1], piece1[pts], v1[pts])[..., None])
                res[pts] = _horner(coef, v[pts])
        return out

    def _kinds(self, axis=None, kind=None):
        return tuple(kind if i == axis else "value" for i in range(self.dim))

    def _grad_reads(self, row):
        return [(row, self._kinds(i, "grad")) for i in range(self.dim)]

    def eval_batch(self, ts, xs, need_second: bool = True) -> hjb.EvalPack:
        """(value, gradient, hessian, time derivative) at a batch of points."""
        xs = hjb._points(xs, self.dim)
        n, d = xs.shape[0], self.dim
        ts = np.broadcast_to(np.asarray(ts, dtype=float), (n,))
        vals, qs, ps = np.full(n, np.nan), np.full(n, np.nan), np.full((n, d), np.nan)
        Ms = np.zeros((n, d, d))
        hess = [((i, i), self._kinds(i, "second")) for i in range(d)] if need_second else []
        hess += [((0, 1), ("grad", "grad"))] if need_second and d == 2 else []
        for tv in np.unique(ts):
            sel = ts == tv
            row = self.gradient_lattice(tv)
            reads = [(row, self._kinds()), (self._time_row(tv, "grad"), self._kinds())]
            reads += self._grad_reads(row) + [(row, kinds) for _, kinds in hess]
            vals[sel], qs[sel], *rest = self._space_read(xs[sel], reads)
            ps[sel] = np.stack(rest[:d], axis=-1)
            for ((i, j), _), m in zip(hess, rest[d:]):
                Ms[sel, i, j] = Ms[sel, j, i] = m
        return hjb.EvalPack(vals, ps, Ms, qs)

    def eval(self, t: float, x, need_second: bool = True) -> hjb.EvalPack:
        """(value, gradient, hessian, time derivative) at one point."""
        pk = self.eval_batch(float(t), np.reshape(x, (1, -1)), need_second=need_second)
        return hjb.EvalPack(float(pk.value[0]), pk.p[0], pk.M[0], float(pk.q[0]))

    def value(self, t, x):
        return self.eval(float(t), x, need_second=False).value

    def fast_value_grad(self, t, xs):
        """Exact (value, gradient) at points sharing one time t."""
        row = self.gradient_lattice(t)
        value, *grads = self._space_read(xs, [(row, self._kinds())] + self._grad_reads(row))
        return value, np.stack(grads, axis=-1)

    def gradient(self, t, xs):
        """Exact gradient alone at points sharing one time t: the hedge."""
        return np.stack(self._space_read(xs, self._grad_reads(self.gradient_lattice(t))),
                        axis=-1)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class CertReport:
    passed: bool
    min_residual: float
    argmin: tuple
    terminal_margin: float
    phi_margin: float
    tol: float
    eps: float
    k: float
    delta: float
    n_checked: int
    # (eps, c_B) per rung tried; a pruned rung's entry is its terminal-row
    # gap, a lower bound on c_B, and its eps is in ``pruned``
    c_curve: list = field(default_factory=list)
    pruned: list = field(default_factory=list)

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "min_residual": float(self.min_residual),
            "argmin": [float(v) for v in self.argmin],
            "terminal_margin": float(self.terminal_margin),
            "phi_margin": float(self.phi_margin),
            "tol": float(self.tol),
            "eps": float(self.eps),
            "k": float(self.k),
            "delta": float(self.delta),
            "n_checked": int(self.n_checked),
            "c_curve": [[float(e), float(c)] for e, c in self.c_curve],
            "pruned": [float(e) for e in self.pruned],
        }


def make_check_grid(t_lo, t_hi, x_lo, x_hi, shape=(50, 100)):
    """Rectangular certification lattice: shape[0] times x shape[1] nodes."""
    t_nodes = np.linspace(t_lo, t_hi, shape[0])
    x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
    x_hi = np.atleast_1d(np.asarray(x_hi, dtype=float))
    per_axis = max(2, int(round(shape[1] ** (1.0 / len(x_lo)))))
    axes = [np.linspace(lo, hi, shape[1] if len(x_lo) == 1 else per_axis)
            for lo, hi in zip(x_lo, x_hi)]
    return t_nodes, axes


def verify_supersolution(smooth: SmoothSurface, model: ModelSpec, check_grid,
                         tol: float = 1e-3, phi=None, B_set: Box | None = None) -> CertReport:
    """Evaluate the worst-case generator on the smooth surface.

    PASS iff the minimum residual over the check nodes is finite and
    >= -tol and the terminal layer dominates the payoff to within tol. When
    a target phi and a box are supplied, domination w <= phi on the box is
    checked as well. One ``Generator`` serves every time node. A non-finite
    generator value ranks below every finite one, so it fails the check as
    ``min_residual``, at the first such node in ``argmin``; a NaN in either
    margin fails it too. A lattice without a node fails.
    """
    t_nodes, axes = check_grid
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dim)
    if len(t_nodes) == 0 or mesh.shape[0] == 0:
        return CertReport(False, np.inf, (np.nan,) * (1 + model.dim), np.inf, np.inf,
                          tol, smooth.eps, smooth.k, smooth.delta, 0)
    check_phi = phi is not None and B_set is not None
    if check_phi:
        t_in, sel = B_set.holds(np.asarray(t_nodes, dtype=float), mesh)
    min_res = argmin = None
    rank = np.inf  # the running minimum, a non-finite value ranking lowest
    n_total = 0
    phi_margin = np.inf
    generator = Generator(model)
    for n, tv in enumerate(t_nodes):
        pk = smooth.eval_batch(float(tv), mesh)
        best, _ = generator(float(tv), mesh, pk.value, pk.q, pk.p, pk.M)
        n_total += best.size
        score = np.where(np.isfinite(best), best, -np.inf)
        i = int(np.argmin(score))
        if score[i] < rank:
            rank, min_res, argmin = score[i], float(best[i]), (float(tv),) + tuple(mesh[i])
        if check_phi and t_in[n]:
            target = np.asarray(phi(float(tv), mesh[sel]), dtype=float)
            phi_margin = np.minimum(phi_margin, np.min(target - pk.value[sel]))
    T = model.horizon_T
    term = smooth.eval_batch(T, mesh, need_second=False).value
    g = np.asarray(model.payoff_g(mesh), dtype=float)
    terminal_margin = float(np.min(term - g))
    passed = bool(np.isfinite(min_res) and min_res >= -tol and terminal_margin >= -tol)
    if check_phi:
        passed = passed and bool(phi_margin >= -1e-9)
    return CertReport(passed, min_res, argmin, terminal_margin, phi_margin,
                      tol, smooth.eps, smooth.k, smooth.delta, n_total)


def phi_from_surface(surface: hjb.ValueSurface, margin: float):
    """Target callable phi = v + margin read off a solved surface."""

    def phi(t, xs):
        return surface.value(t, xs) + margin

    return phi


DEFAULT_EPS_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
_DELTA_TRIES = 6  # mollifier widths per rung: delta0, delta0 / 2, ...


def ladder_pad_layers(model: ModelSpec, grid: hjb.GridSpec, eps_ladder) -> int:
    """Layers below t = 0 that every solve of the ladder adds: the reach
    eps/2 of the widest first mollifier, plus two. The ladder needs one or
    more eps, each in (0, 1]."""
    if not eps_ladder or not all(0.0 < eps <= 1.0 for eps in eps_ladder):
        raise HedgeGameError(f"eps_ladder needs one or more eps in (0, 1], got {list(eps_ladder)}")
    return int(math.ceil(0.5 * max(eps_ladder) / (model.horizon_T / grid.t_steps))) + 2


def box_nodes(model: ModelSpec, grid: hjb.GridSpec, B_set: Box, pad_layers: int = 0):
    """The solve-grid nodes in B: layer indices t_sel and a space mask.

    A box that holds no time node or no space node of the grid raises,
    since every gate on B would then pass or fail on zero evidence.
    """
    if len(B_set.x_lo) != grid.dim or grid.dim != model.dim:
        raise HedgeGameError(f"box B has {len(B_set.x_lo)} space axes, grid {grid.dim}, "
                             f"model {model.dim}")
    t = grid.layer_times(model.horizon_T, pad_layers)
    t_in, b_mask = B_set.holds(t, grid.mesh())
    t_sel = np.flatnonzero(t_in)
    if not t_sel.size or not b_mask.any():
        raise HedgeGameError(
            f"box B (t in [{B_set.t_lo:g}, {B_set.t_hi:g}], x from {B_set.x_lo} to {B_set.x_hi}) "
            f"holds no {'space' if t_sel.size else 'time'} node of the solve grid (t from "
            f"{t[0]:.6g} to {t[-1]:.6g} in {len(t) - 1} steps; {grid})")
    return t_sel, b_mask


def build_smooth_supersolution(model: ModelSpec, phi, B_set: Box, eta: float,
                               grid: hjb.GridSpec, *,
                               eps_ladder=DEFAULT_EPS_LADDER,
                               tol: float = 1e-3,
                               check_shape=(50, 100),
                               validate: bool = True) -> SmoothSurface:
    """Certified smooth supersolution below phi on B, built on a ladder.

    Walks eps down until the uniform gap c_B = max_B(w_eps - w_0) falls
    below eta/2, fixes k from the displacement budget (shift at most
    eps/2), then shrinks the mollifier width from eps/2 until the
    certificate passes. When B reaches T, the terminal row of
    w_eps - w_0, (g + 2 eps) - g on B, is known before the rung's solve; a
    rung whose terminal row alone exceeds eta/2 is pruned. It is not
    solved, and it enters ``c_curve`` with that row's max, a lower bound on
    its c_B, and the certificate's ``pruned`` list. Every solve runs on one
    grid padded for the largest eps; a box that holds no node of it raises
    before any solve. When every rung fails, CertificationError carries the
    best report and names the pruned rungs.
    """
    if not eta > 0:
        raise HedgeGameError(f"eta must be positive, got {eta}")
    T = model.horizon_T
    dt = T / grid.t_steps
    pad_layers = ladder_pad_layers(model, grid, eps_ladder)
    t_sel, b_mask = box_nodes(model, grid, B_set, pad_layers)
    base = solve_shaken(model, grid, 0.0, pad_layers=pad_layers, validate=validate)

    # target must clear the base solution by eta on B
    X = grid.mesh()
    xb = X[b_mask]
    for k_idx in t_sel:
        tv = float(base.surface.t[k_idx])
        gap = np.asarray(phi(tv, xb), dtype=float) - base.surface.values[k_idx][b_mask]
        if np.min(gap) < eta - 1e-9:
            raise HedgeGameError(
                f"target fails phi >= v + eta on B at t={tv:.4g} "
                f"(min gap {float(np.min(gap)):.4g} < eta {eta})"
            )

    reject = 0.5 * eta + 1e-12  # a rung with c_B above this is not used
    # B's terminal row of the base, when B reaches T: there each rung's
    # terminal row of w_eps - w_0 is known before its solve
    g_0 = base.surface.values[-1][b_mask] if t_sel[-1] == len(base.surface.t) - 1 else None
    c_curve, pruned = [], []
    best_report = None
    for eps in eps_ladder:
        if g_0 is not None:
            g_eps = shaken_payoff(model, float(eps))(X)[b_mask]
            terminal_gap = float(np.max(g_eps - g_0))
            if terminal_gap > reject:
                c_curve.append((float(eps), terminal_gap))
                pruned.append(float(eps))
                continue
        shaken = solve_shaken(model, grid, float(eps), pad_layers=pad_layers, validate=False)
        diff = shaken.surface.values[t_sel][:, b_mask] - base.surface.values[t_sel][:, b_mask]
        c_B = float(np.max(diff))
        c_curve.append((float(eps), c_B))
        if c_B > reject:
            continue

        w_inf = float(np.max(np.abs(shaken.surface.values)))
        k_conv = math.ceil(8.0 * w_inf / eps**2)
        coords = [shaken.surface.t] + list(shaken.surface.axes)
        conv, _ = inf_convolution(shaken.surface.values, float(k_conv), coords)

        pad_time = -float(shaken.surface.t[0])
        delta0 = min(0.5 * eps, 0.9 * shaken.c_eps if shaken.c_eps > 0 else 0.5 * eps,
                     pad_time)
        delta = delta0
        for _ in range(_DELTA_TRIES):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                smooth = SmoothSurface(
                    shaken.surface.t, shaken.surface.axes, conv, delta,
                    eps=float(eps), k=float(k_conv), model_hash=shaken.surface.model_hash,
                    meta={"c_reg": shaken.c_reg, "c_eps": shaken.c_eps,
                          "c_eps_B": c_B, "pad_layers": pad_layers},
                )
            t_hi = max(T - max(3.0 * delta, 10.0 * dt), 0.5 * T)
            cg = make_check_grid(max(B_set.t_lo, 0.0), min(B_set.t_hi, t_hi),
                                 B_set.x_lo, B_set.x_hi, check_shape)
            report = verify_supersolution(smooth, model, cg, tol=tol, phi=phi, B_set=B_set)
            report.c_curve, report.pruned = list(c_curve), list(pruned)
            if (best_report is None or report.min_residual > best_report.min_residual
                    or not np.isfinite(best_report.min_residual)):
                best_report = report
            if report.passed:
                smooth.certificate = report
                return smooth
            cell = max([dt] + [a[1] - a[0] for a in shaken.surface.axes])
            if delta * 0.5 < cell:
                break  # a kernel under one cell only degrades further
            delta *= 0.5
    raise CertificationError(
        "shaken/mollified ladder exhausted without certification"
        + ("" if best_report is None else
           f" (best min residual {best_report.min_residual:.3e})")
        + ("" if not pruned else
           f"; eps {pruned} pruned, their terminal gap above eta/2 = {0.5 * eta:g}"),
        report=best_report,
    )
