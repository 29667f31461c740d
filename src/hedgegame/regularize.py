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
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial

from . import hjb
from .model import HedgeGameError, ModelSpec, shake_lattice

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


# ---------------------------------------------------------------------------
# shaken solve
# ---------------------------------------------------------------------------


@dataclass
class ShakenSurface:
    """Solution of the shaken equation with terminal data g + 2 eps."""

    eps: float
    surface: hjb.ValueSurface
    shake_points: np.ndarray
    c_reg: float
    c_eps: float
    terminal_band_ok: bool

    @property
    def values(self):
        return self.surface.values


def solve_shaken(model: ModelSpec, grid: hjb.GridSpec, eps: float,
                 shake_points=None, *, pad_layers: int = 0,
                 validate: bool = False) -> ShakenSurface:
    """Solve with base points shaken over the eps-ball and payoff g + 2 eps.

    With eps = 0 this reproduces the plain solver bit for bit. The empirical
    regularity constant c_reg = max |w - g_eps| / sqrt(T - t) over the
    terminal-adjacent layers calibrates the band [T - c_eps, T] on which
    w >= g + eps is expected and checked.
    """
    if not 0.0 <= eps <= 1.0:
        raise HedgeGameError("eps must lie in [0, 1]")
    if shake_points is None:
        shake_points = shake_lattice(eps, model.dim)
    shake_points = np.atleast_2d(np.asarray(shake_points, dtype=float))

    def terminal(x, _g=model.payoff_g, _e=eps):
        return _g(x) + 2.0 * _e

    surface = hjb.solve(model, grid, pad_layers=pad_layers, terminal=terminal,
                        shake_points=shake_points, validate=validate)
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
    band_ok = True
    if eps > 0.0:
        g_plain = g_eps - 2.0 * eps
        for k in range(len(surface.t)):
            if T - float(surface.t[k]) <= c_eps + 1e-12:
                if np.min(surface.values[k] - (g_plain + eps)) < -1e-9:
                    band_ok = False
                    break
    return ShakenSurface(eps, surface, shake_points, c_reg, c_eps, band_ok)


# ---------------------------------------------------------------------------
# quadratic inf-convolution (Moreau envelope) on the grid
# ---------------------------------------------------------------------------


def _axis_pass(arr: np.ndarray, axis: int, coords: np.ndarray, k: float):
    """Exact 1-d Moreau envelope along one axis, all lines at once.

    Candidates are restricted to the window guaranteed to contain the
    minimiser by the displacement bound k |z - z*|^2 <= max(w) - min(w);
    within it every candidate is evaluated, so the result equals the full
    quadratic scan exactly (same FP expressions, first-index tie rule).
    """
    n = arr.shape[axis]
    rng = float(np.max(arr) - np.min(arr))
    if k <= 0.0:
        raise HedgeGameError("inf-convolution requires k > 0")
    h = float(np.min(np.diff(coords))) if n > 1 else 1.0
    reach = math.sqrt(max(rng, 0.0) / k)
    r = min(n - 1, int(math.ceil(reach / h)) + 1)
    moved = np.moveaxis(arr, axis, -1)
    out = None
    arg = None
    c = coords
    big = np.inf
    # ascending shifts with strict replacement: ties keep the lowest source
    # index, matching an ascending full scan
    for s in range(-r, r + 1):
        if s <= 0:
            src = slice(None, n + s) if s < 0 else slice(None)
            dst = slice(-s, None)
        else:
            src = slice(s, None)
            dst = slice(None, n - s)
        cand = np.full(moved.shape, big)
        dist = np.full(n, big)
        dist[dst] = c[dst] - c[src]
        cand[..., dst] = moved[..., src] + k * dist[dst] ** 2
        q_idx = np.full(n, -1, dtype=np.int64)
        q_idx[dst] = np.arange(n)[src]
        if out is None:
            out = cand
            arg = np.broadcast_to(q_idx, moved.shape).copy()
        else:
            take = cand < out
            out = np.where(take, cand, out)
            arg = np.where(take, q_idx, arg)
    return np.moveaxis(out, -1, axis), np.moveaxis(arg, -1, axis)


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
        out, win = _axis_pass(out, ax, coords[ax], k)
        for j in range(len(args)):
            args[j] = np.take_along_axis(np.moveaxis(args[j], ax, -1),
                                         np.moveaxis(win, ax, -1),
                                         axis=-1)
            args[j] = np.moveaxis(args[j], -1, ax)
        args.append(win)
    argmin = np.stack(args, axis=-1)
    return out, argmin


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


class MollifierKernel:
    """Product bump kernel: support [-1, 0] in time, [-1, 1]^d in space.

    Each factor is the normalised polynomial bump k(s) = C (1 - s^2)^4; the
    time factor is the same bump mapped onto [-1, 0], k_t(s) = 2 k(2 s + 1),
    so time is mollified like a space axis of half-width delta / 2 centred
    at t - delta / 2. Besides the density ("pdf") the mollifier reads the
    CDF Phi and the upper second antiderivative Q(w) = int_w^1 (s - w) k(s) ds.
    """

    def __init__(self):
        pdf = _C_SPACE * Polynomial([1.0, 0.0, -1.0]) ** 4
        cdf = pdf.integ(lbnd=-1.0)
        self.coef = {"pdf": pdf.coef, "cdf": cdf.coef,
                     "upper": (-(1.0 - cdf).integ(lbnd=1.0)).coef}

    def __call__(self, name, s):
        """Horner's rule in place on s clipped to [-1, 1]; the dyadic
        coefficients make k = 0, Phi = 0 or 1 and Q = 1 or 0 exact there."""
        coef = self.coef[name]
        s = np.clip(s, -1.0, 1.0)
        out = np.full_like(s, coef[-1])
        for c in coef[-2::-1]:
            out *= s
            out += c
        return out

    def space_value(self, s):
        return self("pdf", s)


_KERNEL = MollifierKernel()


def _band_size(coords, half):
    # the kernel vanishes to fourth order at its edge, so rounding in
    # 2 half / h may drop a sliver of the support without a visible error
    return int(math.ceil(2.0 * half / float(coords[1] - coords[0]) - 1e-9)) + 2


class _Band:
    """Kernel weights on the nodes of one uniform axis within reach of queries.

    For each query centre c the band holds the m nodes j0 .. j0 + m - 1 with
    j0 = floor((c - w - x0) / h), which cover the support [c - w, c + w].
    Node indices are clipped only when data is gathered, so the multilinear
    interpolant continues as a constant outside the grid. On the band the
    interpolant f has slopes s_j = (f[j+1] - f[j]) / h, and with
    z_j = (x_j - c) / w the three 1-d functionals are exact closed forms:

        value   f[j0] + w sum_j s_j (Q(z_j) - Q(z_j+1))
        grad    sum_j s_j (Phi(z_j+1) - Phi(z_j))
        second  sum_j (s_j - s_j-1) k(z_j) / w
    """

    def __init__(self, coords, centres, half):
        x0, self.h, self.half = float(coords[0]), float(coords[1] - coords[0]), half
        self.m = _band_size(coords, half)
        # a band wholly outside the grid reads constant data wherever it
        # lies, so far-off starts are clipped before the integer cast
        pos = np.clip((centres - half - x0) / self.h, -self.m - 1.0, float(len(coords)))
        self.j0 = np.floor(pos).astype(np.int64)
        z0 = (x0 + self.j0 * self.h - centres) / half
        self.z = z0[:, None] + (self.h / half) * np.arange(self.m)

    def apply(self, G, kind):
        """Contract axis 1 of G, which runs along this band, per query."""
        z, h, w = self.z, self.h, self.half
        if kind == "second":
            wts = _KERNEL("pdf", z[:, 1:-1]) / (w * h)
            return np.einsum("nj...,nj->n...", G[:, 2:] - 2.0 * G[:, 1:-1] + G[:, :-2], wts)
        if kind == "grad":
            return np.einsum("nj...,nj->n...", np.diff(G, axis=1),
                             np.diff(_KERNEL("cdf", z), axis=1) / h)
        q = _KERNEL("upper", z) + np.maximum(-1.0 - z, 0.0)  # Q(s) = -s below -1
        return G[:, 0] + np.einsum("nj...,nj->n...", np.diff(G, axis=1),
                                   (q[:, :-1] - q[:, 1:]) * (w / h))


class SmoothSurface:
    """Mollified envelope surface with exact derivatives.

    Holds inf-convolved node values on the (time-extended) solve grid plus
    the mollification parameters. The kernel is a product of 1-d bumps and
    the node interpolant is multilinear, so the mollified surface is the
    separable sum of W[k, i] alpha_k(t) beta_i(x); a derivative swaps one
    factor for its differentiated version. Time is contracted once per
    distinct t (``gradient_lattice``), then space on the band of nodes
    around each point.
    """

    _ROW_CACHE_FLOATS = 1 << 20
    _BLOCK = 1 << 15  # band entries per block of points

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
        self._rows = {}
        if self.delta <= 0.0:
            raise HedgeGameError("delta must be positive")
        self._band_sizes = [_band_size(ax, self.delta) for ax in self.axes]
        steps = [self.t_nodes[1] - self.t_nodes[0]] + [a[1] - a[0] for a in self.axes]
        if self.delta < max(steps):
            warnings.warn(
                f"mollifier width {self.delta:.3g} below one grid cell "
                f"{max(steps):.3g}: quadrature degenerates to interpolation noise",
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
        band = _Band(self.t_nodes, np.array([t - 0.5 * self.delta]), 0.5 * self.delta)
        k = np.clip(band.j0[0] + np.arange(band.m), 0, len(self.t_nodes) - 1)
        row = band.apply(self.node_values[k][None], kind)[0]
        return np.pad(row, [(m, m) for m in self._band_sizes], mode="edge")

    def gradient_lattice(self, t):
        """Time-contracted (padded) value row at t, cached per t so that the
        game's step times share it across adversaries; oldest rows go first."""
        row = self._rows.get(float(t))
        if row is None:
            row = self._time_row(float(t), "value")
            if len(self._rows) * row.size >= self._ROW_CACHE_FLOATS:
                self._rows.pop(next(iter(self._rows)))
            self._rows[float(t)] = row
        return row

    def _space_read(self, xs, reads):
        """Space functionals at the points xs, one array per (padded row,
        per-axis kinds) in reads: each point gathers its band window of the
        row, then every axis is contracted in turn. Points go in blocks so
        that the band temporaries stay small."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = [np.empty(len(xs)) for _ in reads]
        step = max(1, self._BLOCK // math.prod(self._band_sizes))
        for lo in range(0, len(xs), step):
            bands = [_Band(ax, xs[lo:lo + step, i], self.delta) for i, ax in enumerate(self.axes)]
            start = tuple(np.clip(b.j0, -b.m, len(ax) - 1) + b.m
                          for b, ax in zip(bands, self.axes))
            for res, (row, kinds) in zip(out, reads):
                G = sliding_window_view(row, self._band_sizes)[start]
                for b, kind in zip(bands, kinds):
                    G = b.apply(G, kind)
                res[lo:lo + step] = G
        return out

    def _kinds(self, axis=None, kind=None):
        return tuple(kind if i == axis else "value" for i in range(self.dim))

    def _grad_reads(self, row):
        return [(row, self._kinds(i, "grad")) for i in range(self.dim)]

    def eval_batch(self, ts, xs, need_second: bool = True) -> hjb.EvalPack:
        """(value, gradient, hessian, time derivative) at a batch of points."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
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
        pk = self.eval_batch(float(t), np.asarray(x, dtype=float).reshape(1, self.dim),
                             need_second=need_second)
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


def mollify(node_values, t_nodes, axes, delta: float, *, eps: float = 0.0,
            k: float = 0.0, model_hash: str = "", meta=None) -> SmoothSurface:
    """Wrap grid values into a smooth surface mollified at width delta."""
    return SmoothSurface(t_nodes, axes, node_values, delta, eps=eps, k=k,
                         model_hash=model_hash, meta=meta)


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
    c_curve: list = field(default_factory=list)

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

    PASS iff the minimum residual over the check nodes is >= -tol and the
    terminal layer dominates the payoff to within tol. When a target phi and
    a box are supplied, domination w <= phi on the box is checked as well.
    """
    t_nodes, axes = check_grid
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dim)
    min_res = np.inf
    argmin = (np.nan,) * (1 + model.dim)
    n_total = 0
    for tv in t_nodes:
        pk = smooth.eval_batch(float(tv), mesh)
        best, _ = hjb.min_generator_field(model, float(tv), mesh, pk.value, pk.q, pk.p, pk.M)
        n_total += best.size
        i = int(np.argmin(best))
        if best[i] < min_res:
            min_res = float(best[i])
            argmin = (float(tv),) + tuple(mesh[i])
    T = model.horizon_T
    term = smooth.eval_batch(T, mesh, need_second=False).value
    g = np.asarray(model.payoff_g(mesh), dtype=float)
    terminal_margin = float(np.min(term - g))
    phi_margin = np.inf
    if phi is not None and B_set is not None:
        sel = np.ones(mesh.shape[0], dtype=bool)
        for i in range(model.dim):
            sel &= (mesh[:, i] >= B_set.x_lo[i] - 1e-12) & (mesh[:, i] <= B_set.x_hi[i] + 1e-12)
        for tv in t_nodes:
            if not (B_set.t_lo - 1e-12 <= tv <= B_set.t_hi + 1e-12):
                continue
            w = smooth.eval_batch(float(tv), mesh[sel], need_second=False).value
            target = np.asarray(phi(float(tv), mesh[sel]), dtype=float)
            phi_margin = min(phi_margin, float(np.min(target - w)))
    passed = (min_res >= -tol) and (terminal_margin >= -tol)
    if phi is not None and B_set is not None:
        passed = passed and (phi_margin >= -1e-9)
    return CertReport(passed, min_res, argmin, terminal_margin, phi_margin,
                      tol, smooth.eps, smooth.k, smooth.delta, n_total)


def phi_from_surface(surface: hjb.ValueSurface, margin: float):
    """Target callable phi = v + margin read off a solved surface."""

    def phi(t, xs):
        return surface.value(t, xs) + margin

    return phi


DEFAULT_EPS_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
_DELTA_TRIES = 6  # mollifier widths per rung: delta0, delta0 / 2, ...


def build_smooth_supersolution(model: ModelSpec, phi, B_set: Box, eta: float,
                               grid: hjb.GridSpec, *,
                               eps_ladder=DEFAULT_EPS_LADDER,
                               tol: float = 1e-3,
                               check_shape=(50, 100),
                               validate: bool = True) -> SmoothSurface:
    """Certified smooth supersolution below phi on B, built on a ladder.

    Walks eps down until the uniform gap max_B(w_eps - w_0) falls below
    eta/2, fixes k from the displacement budget (shift at most eps/2), then
    shrinks the mollifier width from eps/2 until the certificate passes.
    Raises CertificationError with the best report when every rung fails.
    """
    if eta <= 0:
        raise HedgeGameError("eta must be positive")
    T = model.horizon_T
    dt = T / grid.t_steps
    pad_layers = int(math.ceil(0.5 * max(eps_ladder) / dt)) + 2
    base = solve_shaken(model, grid, 0.0, pad_layers=pad_layers, validate=validate)

    # target must clear the base solution by eta on B
    t_sel = [k for k, tv in enumerate(base.surface.t)
             if B_set.t_lo - 1e-12 <= tv <= B_set.t_hi + 1e-12]
    mesh = np.stack(np.meshgrid(*base.surface.axes, indexing="ij"), axis=-1)
    b_mask = np.ones(mesh.shape[:-1], dtype=bool)
    for i in range(model.dim):
        b_mask &= (mesh[..., i] >= B_set.x_lo[i] - 1e-12) & (mesh[..., i] <= B_set.x_hi[i] + 1e-12)
    xb = mesh[b_mask]
    for k_idx in t_sel:
        tv = float(base.surface.t[k_idx])
        gap = np.asarray(phi(tv, xb), dtype=float) - base.surface.values[k_idx][b_mask]
        if np.min(gap) < eta - 1e-9:
            raise HedgeGameError(
                f"target fails phi >= v + eta on B at t={tv:.4g} "
                f"(min gap {float(np.min(gap)):.4g} < eta {eta})"
            )

    c_curve = []
    best_report = None
    for eps in eps_ladder:
        shaken = solve_shaken(model, grid, float(eps), pad_layers=pad_layers, validate=False)
        diff = shaken.surface.values[t_sel][:, b_mask] - base.surface.values[t_sel][:, b_mask]
        c_B = float(np.max(diff))
        c_curve.append((float(eps), c_B))
        if c_B > 0.5 * eta + 1e-12:
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
            report.c_curve = list(c_curve)
            if best_report is None or report.min_residual > best_report.min_residual:
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
           f" (best min residual {best_report.min_residual:.3e})"),
        report=best_report,
    )
