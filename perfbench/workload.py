"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/workload.py --workload price --seed 1 --seconds 15 \
        --trace 0 --result out.json [--setup-only]

Set-up (imports, models, configs and the inputs the timed region reads) is
timed from process start. The timed region then runs whole batches of the
workload's jobs back to back (one client, closed loop) until ``--seconds``
have passed, at least one batch; a traced run profiles exactly one batch.
Untraced batches run under a ``SpeedProbe``, which records the host's
speed and leaves its own time out of the workload's times. Every batch
checks its results against stated references; each check is one attempted
operation, and a failed check is a failed operation.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("price", "certify", "cli-hedge")
# Runnable by name, not listed in BENCHMARK.json: the README session as
# written, whose dual gate fails at this commit (see README.md).
DIAGNOSTICS = ("cli-hedge-readme",)


def import_package():
    """Import hedgegame from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import hedgegame

    if not os.path.realpath(hedgegame.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"hedgegame imported from {hedgegame.__file__}, not {SRC}")
    return hedgegame


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call(spot, strike, vol, tau, rate=0.0):
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * tau) / sq
    return spot * norm_cdf(d1) - strike * math.exp(-rate * tau) * norm_cdf(d1 - sq)


# ---------------------------------------------------------------------------
# market inputs (log-price dynamics, constant coefficients)
# ---------------------------------------------------------------------------


def finance_spec(r_lend=0.0, r_borrow=0.0):
    import numpy as np
    from hedgegame.model import FinanceSpec

    def rate(value):
        return lambda t, x, a: np.full(np.asarray(x).shape[:-1], float(value))

    def sigma(t, x, a):
        s = float(np.asarray(a).reshape(-1)[0])
        return np.broadcast_to(s * np.eye(1), np.asarray(x).shape[:-1] + (1, 1))

    return FinanceSpec(mu=lambda t, x, a: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                       sigma=sigma, r_lend=rate(r_lend), r_borrow=rate(r_borrow))


def finance_model(vols, payoff, r_lend=0.0, r_borrow=0.0):
    import numpy as np
    from hedgegame.model import make_finance_model

    return make_finance_model(finance_spec(r_lend, r_borrow), payoff, 1,
                              [np.array([v]) for v in vols], 1.0, max(vols))


class Check:
    """Outcome of one correctness gate; fails unless evidence was seen."""

    def __init__(self, name, ok, detail):
        self.name, self.ok, self.detail = name, bool(ok), detail

    def to_list(self):
        return [self.name, self.ok, self.detail]


def failed_checks(names, exc):
    return [Check(n, False, f"not reached: {type(exc).__name__}: {exc}") for n in names]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The benchmark runs on shared 2-vCPU hosts whose speed drifts by up to 30 %
# over minutes, for all kinds of work alike. A fixed probe of the program's
# kind of work (short numpy row operations driven from an interpreter loop)
# measures that speed while the workload runs. A time multiplied by
# host_speed reads as seconds at a fixed reference speed.
PROBE_ITERS = 2500
PROBE_REF_S = 0.02  # the probe's typical time on a 2-vCPU Xeon at 2.0 GHz
PROBE_PERIOD_S = 0.5


class SpeedProbe:
    """Times the probe every ``PROBE_PERIOD_S`` from a SIGALRM handler, so
    the samples spread over the timed region. ``clock`` leaves out the time
    spent in the handler, so the workload's own times exclude the probe."""

    def __init__(self):
        import numpy as np

        self.rows = np.linspace(-1.0, 1.0, 16 * 721).reshape(16, 721)
        self.samples = []
        self.busy_s = 0.0

    def run(self):
        import numpy as np

        rows, acc = self.rows, 0.0
        t0 = time.perf_counter()
        for i in range(PROBE_ITERS):
            acc += float(np.minimum(rows[i % 16] * 1.0001 + 0.5, 0.7)[::7].sum())
        return time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self.busy_s

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.run())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def host_speed(probe_times):
    """Speed relative to the reference; seconds times this are reference seconds."""
    return PROBE_REF_S / statistics.fmean(probe_times)


# ---------------------------------------------------------------------------
# price: a four-claim book through hjb.solve, value and residual
# ---------------------------------------------------------------------------


class Price:
    """Each claim runs the work of ``hedgegame price``: a validated solve,
    the value at (0, 0) and the residual. Independent of the seed."""

    def __init__(self, seed, tracer):
        from hedgegame.hjb import GridSpec
        from hedgegame.model import make_payoff

        narrow = GridSpec(t_steps=4000, x_min=(-1.2,), x_max=(1.2,), x_steps=(720,))
        wide = GridSpec(t_steps=4000, x_min=(-1.8,), x_max=(1.8,), x_steps=(720,))
        call = make_payoff("call", strike=1.0)
        # (name, model, grid, closed-form reference, criterion 1-3 tolerance)
        self.claims = [
            ("bs_call_spread",
             finance_model([0.2], make_payoff("call_spread", strike=1.0, cap=1.4)),
             narrow, bs_call(1, 1, 0.2, 1) - bs_call(1, 1.4, 0.2, 1), 5e-3),
            ("uv_call", finance_model([0.1, 0.3], call), wide, bs_call(1, 1, 0.3, 1), 1e-2),
            ("uv_covered_call",
             finance_model([0.1, 0.3], make_payoff("covered_call", strike=1.0)),
             wide, 1.0 - bs_call(1, 1, 0.1, 1), 1e-2),
            ("two_rate_call", finance_model([0.2], call, 0.02, 0.05), narrow,
             bs_call(1, 1, 0.2, 1, rate=0.05), 5e-3),
        ]
        if tracer is not None:
            self.claims = [(n, tracer.traced_model(m), g, r, tol)
                           for n, m, g, r, tol in self.claims]

    def batch(self, clock):
        import numpy as np
        from hedgegame import hjb

        stages = {"price_solve_s": 0.0, "price_residual_s": 0.0}
        checks, prices, info = [], [], {}
        for name, model, grid, ref, tol in self.claims:
            try:
                t0 = clock()
                surface = hjb.solve(model, grid)
                price = surface.value(0.0, np.array([0.0]))
                t1 = clock()
                res = hjb.residual(surface, model)
                t2 = clock()
            except Exception as exc:  # a failed claim is a failed operation
                checks += failed_checks([f"{name}.rel_err"], exc)
                continue
            stages["price_solve_s"] += t1 - t0
            stages["price_residual_s"] += t2 - t1
            rel = abs(price - ref) / ref
            ok = math.isfinite(price) and rel <= tol
            checks.append(Check(f"{name}.rel_err", ok,
                                f"{price:.8f} vs closed form {ref:.8f}: rel {rel:.2e} <= {tol}"))
            prices.append(price)
            info[name] = {"price": price, "reference": ref, "rel_err": rel,
                          "solve_s": t1 - t0, "residual_s": t2 - t1,
                          "layers": grid.t_steps, "pairs": int(surface.meta["n_pairs"]),
                          "fp_iters_max": int(surface.meta["fixed_point_max_iters"]),
                          "residual_min": res.min_value}
        stages["price_book_s"] = stages["price_solve_s"] + stages["price_residual_s"]
        rel_errs = [v["rel_err"] for v in info.values()]
        info["price_rel_err_max"] = max(rel_errs) if rel_errs else float("nan")
        digests = {"book_prices": sha256(np.asarray(prices, dtype="<f8").tobytes())}
        return stages, checks, digests, info


# ---------------------------------------------------------------------------
# certify: build_smooth_supersolution, then hedge with the certified surface
# ---------------------------------------------------------------------------


class Certify:
    """Certified BS-singleton call spread (520x200 grid, eta = 0.4,
    B = [0,1]x[-0.5,0.5], phi = v + 0.5), then ``superhedge_check`` with the
    SmoothSurface through the library API. Independent of the seed.

    The acceptance-scale instance (uncertain-vol spread on 4000x720) takes
    about 120 s per batch (ROADMAP baseline), which the benchmark's time
    budget cannot hold.
    The hedge goes through the library because ``simulate --surface
    smooth.bin`` exits 2 at this commit.
    """

    CHECKS = ("cert.passed", "cert.min_residual", "cert.terminal_margin",
              "cert.eps_curve_monotone", "hedge.passed", "hedge.adversaries",
              "hedge.paths")

    def __init__(self, seed, tracer):
        from hedgegame import game, hjb, regularize
        from hedgegame.model import make_payoff

        model = finance_model([0.2], make_payoff("call_spread", strike=1.0, cap=1.4))
        self.grid = hjb.GridSpec(t_steps=520, x_min=(-1.0,), x_max=(1.0,), x_steps=(200,))
        self.v = hjb.solve(model, self.grid)
        self.phi = regularize.phi_from_surface(self.v, 0.5)
        self.box = regularize.Box(0.0, 1.0, (-0.5,), (0.5,))
        self.eta = 0.4
        self.sim = game.SimParams(x0=(0.0,), paths=10000, steps=400, seed=7)
        self.adversaries = ({f"constant:{i}" for i in range(len(model.A_points))}
                            | {"random:4", "worst"})
        self.model = model if tracer is None else tracer.traced_model(model)

    def batch(self, clock):
        from hedgegame import game, regularize

        stages, info = {}, {}
        try:
            t0 = clock()
            smooth = regularize.build_smooth_supersolution(
                self.model, self.phi, self.box, self.eta, self.grid, validate=False)
            t1 = clock()
            check = game.superhedge_check(self.model, smooth, 0.0, self.sim,
                                          policy_surface=self.v)
            t2 = clock()
        except Exception as exc:
            return stages, failed_checks(self.CHECKS, exc), {}, {"error": repr(exc)}
        stages = {"certify_s": t1 - t0, "hedge_check_s": t2 - t1}
        cert = smooth.certificate
        gaps = [c for _, c in cert.c_curve]
        monotone = len(gaps) > 0 and all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        seen = [r.adversary for r in check.reports]
        paths_ok = (len(check.reports) > 0
                    and all(r.excluded_paths == 0 and r.shortfall.size == r.n_paths > 0
                            for r in check.reports))
        checks = [
            Check("cert.passed", cert.passed, f"eps={cert.eps}, k={cert.k:.0f}, delta={cert.delta}"),
            Check("cert.min_residual", cert.min_residual >= -1e-3,
                  f"{cert.min_residual:.3e} >= -1e-3 on {cert.n_checked} nodes"),
            Check("cert.terminal_margin", cert.terminal_margin >= 0.0,
                  f"{cert.terminal_margin:.5f} >= 0"),
            Check("cert.eps_curve_monotone", monotone, f"c_curve {gaps}"),
            Check("hedge.passed", check.passed,
                  "worst shortfall prob "
                  f"{max((r.shortfall_prob(self.sim.tol_sim) for r in check.reports), default=float('nan')):.4f}"
                  f" <= {self.sim.p_sim}"),
            Check("hedge.adversaries", sorted(seen) == sorted(self.adversaries),
                  f"{sorted(seen)} == {sorted(self.adversaries)}"),
            Check("hedge.paths", paths_ok,
                  "every run kept all its paths finite, none excluded"),
        ]
        cert_dict = cert.to_dict()
        digests = {"certificate": sha256(json.dumps(cert_dict, sort_keys=True).encode()),
                   "hedge_check": sha256(json.dumps(check.to_dict(), sort_keys=True).encode())}
        info = {"certificate": cert_dict, "y0": check.y0,
                "rungs_rejected": sum(1 for c in gaps if c > 0.5 * self.eta + 1e-12)}
        return stages, checks, digests, info


# ---------------------------------------------------------------------------
# cli-hedge: the README session through cli.main
# ---------------------------------------------------------------------------

# The README sketch prices its call spread under uncertain vol {0.1, 0.3}.
# On it the dual fails its gates at this commit, so the benchmarked session
# runs the sketch with the single vol 0.2: the instance on which acceptance
# criterion 8 asserts both dual gates. See README.md.
README_VOLS = (0.1, 0.3)
BENCH_VOLS = (0.2,)


def readme_config(sim_seed, dual_seed, vols):
    """The README config sketch with adverse vols ``vols``; the benchmark
    seed picks sim and dual seeds."""
    return {
        "model": {
            "kind": "finance", "dim": 1, "A_points": [[v] for v in vols],
            "horizon_T": 1.0, "lipschitz_K": max(vols),
            "finance": {
                "mu": {"type": "constant", "value": 0.0},
                "sigma": {"type": "affine_in_a"},
                "r_lend": {"type": "constant", "value": 0.02},
                "r_borrow": {"type": "constant", "value": 0.05},
            },
            "payoff": {"type": "call_spread", "strike": 1.0, "cap": 1.4},
        },
        "grid": {"t_steps": 400, "x_min": [-1.8], "x_max": [1.8], "x_steps": [200]},
        "regularize": {"eta": 0.1, "tol": 1e-3,
                       "B": {"t": [0.0, 1.0], "x": [[-0.9, 0.9]]}},
        "sim": {"paths": 10000, "steps": 400, "seed": sim_seed},
        "dual": {"knots": 4, "degree": 2, "paths": 100000, "eps": 0.0, "seed": dual_seed},
        "output": {"directory": "out"},
    }


class CliHedge:
    """``solve`` (surface.csv + surface.bin), ``simulate --surface
    surface.bin`` against all adversaries, then ``dual --mid 0.5``.

    ``vols=README_VOLS`` runs the README sketch as written, on which
    ``dual.vs_pde`` fails at this commit.
    """

    CHECKS = ("solve.exit", "simulate.exit", "dual.exit", "simulate.passed",
              "dual.dpp", "dual.vs_pde")
    ARTIFACTS = ("surface.bin", "surface.csv", "sim/simreport.json", "dual/dual.json")

    def __init__(self, seed, tracer, vols=BENCH_VOLS):
        import numpy as np
        from hedgegame import cli  # noqa: F401  (part of set-up)

        sim_seed, dual_seed = (int(s) for s in
                               np.random.SeedSequence(seed).generate_state(2) % 2**31)
        self.seeds = {"sim": sim_seed, "dual": dual_seed}
        self.dir = os.path.join(WORK, f"cli-hedge-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w") as fh:
            json.dump(readme_config(sim_seed, dual_seed, vols), fh, indent=2)

    def batch(self, clock):
        from hedgegame import cli

        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        commands = [
            ("cli_solve_s", ["solve", "-c", self.config, "--out", out]),
            ("cli_simulate_s", ["simulate", "-c", self.config, "--out", f"{out}/sim",
                                "--surface", f"{out}/surface.bin"]),
            ("cli_dual_s", ["dual", "-c", self.config, "--out", f"{out}/dual",
                            "--mid", "0.5"]),
        ]
        stages, codes, rank_warnings = {}, [], 0
        for stage, argv in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                t0 = clock()
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # a traceback is outside the exit-code contract
                    codes.append(f"traceback {type(exc).__name__}: {exc}")
                stages[stage] = clock() - t0
            if stage == "cli_dual_s":
                rank_warnings = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
        checks = [Check(n, c == 0, f"exit {c}") for n, c in zip(self.CHECKS, codes)]
        try:
            with open(f"{out}/summary.json") as fh:
                price = json.load(fh)["price"]
            with open(f"{out}/sim/simreport.json") as fh:
                sim = json.load(fh)
            with open(f"{out}/dual/dual.json") as fh:
                dpp = json.load(fh)
            digests = {a: file_sha256(os.path.join(out, a)) for a in self.ARTIFACTS}
        except (OSError, KeyError, ValueError) as exc:
            return stages, checks + failed_checks(self.CHECKS[3:], exc), {}, {}
        runs = sim.get("runs", [])
        checks.append(Check("simulate.passed",
                            sim.get("passed") is True and len(runs) > 0
                            and all(r["n_paths"] > r["excluded_paths"] for r in runs),
                            f"passed={sim.get('passed')} over {len(runs)} adversaries"))
        direct = dpp["direct"]
        dpp_tol = 2.0 * dpp["combined_std_error"] + 0.01 * price
        checks.append(Check("dual.dpp", dpp["difference"] <= dpp_tol,
                            f"|direct - composed| {dpp['difference']:.3e} <= {dpp_tol:.3e}"))
        gap, tol = abs(direct["value"] - price), 2.0 * direct["std_error"] + 0.01 * price
        checks.append(Check("dual.vs_pde", gap <= tol,
                            f"dual {direct['value']:.6f} vs PDE {price:.6f}: {gap:.3e} <= {tol:.3e}"))
        info = {"pde_price": price, "dual": direct["value"], "dual_se": direct["std_error"],
                "dual_rank_warnings": rank_warnings, "seeds": self.seeds,
                "surface_csv_bytes": os.path.getsize(f"{out}/surface.csv")}
        return stages, checks, digests, info

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


CLASSES = {"price": Price, "certify": Certify, "cli-hedge": CliHedge,
           "cli-hedge-readme": functools.partial(CliHedge, vols=README_VOLS)}


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def environment():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, batch_s, rank_warnings):
    """Per-layer numbers of one traced batch."""
    t = tracer
    c = t.counts.get

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    solve_s = t.total_s("hjb.solve")
    shaken_s = t.total_s("regularize.solve_shaken")
    moll_pts = t.calls("regularize.mollifier_eval")
    sim_s = t.total_s("game.simulate")
    m = {
        "model.coeff_calls": t.calls("model.coeff"),
        "model.coeff_s": t.total_s("model.coeff"),
        "model.validate_s": t.total_s("model.validate_assumptions"),
        "hjb.solve_calls": t.calls("hjb.solve"),
        "hjb.solve_s": solve_s,
        "hjb.layers": c("hjb.layers", 0),
        "hjb.layer_pairs": c("hjb.layer_pairs", 0),
        "hjb.ms_per_layer_pair": per(solve_s, c("hjb.layer_pairs", 0), 1e3),
        "hjb.fp_iters_max": c("hjb.fp_iters_max", 0),
        "hjb.residual_s": t.total_s("hjb.residual"),
        "hjb.surface_eval_calls": t.calls("hjb.surface_eval"),
        "hjb.surface_eval_s": t.total_s("hjb.surface_eval"),
        "hjb.save_csv_s": t.total_s("hjb.save_csv"),
        "hjb.save_binary_s": t.total_s("hjb.save_binary"),
        "hjb.load_binary_s": t.total_s("hjb.load_binary"),
        "hjb.bytes_written": c("hjb.bytes_written", 0),
        "regularize.rungs_solved": c("regularize.rungs_solved", 0),
        "regularize.rungs_rejected": c("regularize.rungs_rejected", 0),
        "regularize.shaken_solve_s": shaken_s,
        "regularize.shaken_ms_per_layer": per(
            shaken_s, c("regularize.shaken_layers", 0), 1e3),
        "regularize.infconv_s": t.total_s("regularize.inf_convolution"),
        "regularize.infconv_nodes": c("regularize.infconv_nodes", 0),
        "regularize.verify_calls": t.calls("regularize.verify_supersolution"),
        "regularize.verify_s": t.total_s("regularize.verify_supersolution"),
        "regularize.mollifier_points": moll_pts,
        "regularize.mollifier_ms_per_point": per(
            t.total_s("regularize.mollifier_eval"), moll_pts, 1e3),
        "regularize.gradient_lattice_s": t.total_s("regularize.gradient_lattice"),
        "game.simulate_calls": t.calls("game.simulate"),
        "game.simulate_s": sim_s,
        "game.path_steps": c("game.path_steps", 0),
        "game.path_steps_per_s": per(c("game.path_steps", 0), sim_s),
        "game.gradient_calls": t.calls("game.gradient"),
        "game.gradient_s": t.total_s("game.gradient"),
        "game.clamped_queries": c("game.clamped_queries", 0),
        "game.excluded_paths": c("game.excluded_paths", 0),
        "dual.lsmc_calls": t.calls("dual.dual_value_lsmc"),
        "dual.lsmc_s": t.total_s("dual.dual_value_lsmc"),
        "dual.path_substeps": c("dual.path_substeps", 0),
        "dual.dpp_s": t.total_s("dual.dpp_check"),
        "dual.rank_warnings": rank_warnings,
        "cli.artifact_bytes": c("cli.artifact_bytes", 0),
        "trace.batch_s": batch_s,
        "trace.spans": len(t.spans),
    }
    for mod in ("model", "hjb", "regularize", "game", "dual", "cli"):
        m[f"{mod}.self_s"] = t.module_self_s(mod)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + DIAGNOSTICS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    import_package()
    tracer = None
    if args.trace:
        import tracer as tracing  # the script directory is on sys.path

        tracer = tracing.Tracer()
    job = CLASSES[args.workload](args.seed, tracer)
    setup_s = time.perf_counter() - T_PROCESS
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "env": environment()}
    try:
        if not args.setup_only:
            if tracer is not None:
                tracing.instrument(tracer)
            probe = None if tracer else SpeedProbe()  # a traced run times spans, not the host
            clock = time.perf_counter if probe is None else probe.clock
            batches = []
            start = time.perf_counter()
            with probe or contextlib.nullcontext():
                while True:
                    first = len(probe.samples) if probe else 0
                    t0 = clock()
                    stages, checks, digests, info = job.batch(clock)
                    batch_s = clock() - t0
                    batches.append({"batch_s": batch_s, "stages": stages,
                                    "checks": [c.to_list() for c in checks],
                                    "digests": digests, "info": info})
                    if probe is not None:
                        window = probe.samples[first:]
                        if not window:
                            raise SystemExit("batch shorter than the probe period")
                        speed = host_speed(window)
                        batches[-1].update(host_speed=speed, probes=len(window),
                                           batch_ref_s=batch_s * speed)
                    if len(batches) == 1:
                        # later batches reuse a fragmented heap, so their peak
                        # depends on how many batches the run had time for
                        record["peak_rss_mb"] = peak_rss_mb()
                    if args.trace or time.perf_counter() - start >= args.seconds:
                        break
            record["batches"] = batches
            if tracer is not None:
                tracer.restore()
                record["layers"] = layer_metrics(
                    tracer, batches[0]["batch_s"],
                    batches[0]["info"].get("dual_rank_warnings", 0))
                if args.spans:
                    with open(args.spans, "w") as fh:
                        json.dump({"stats": tracer.stats, "counts": tracer.counts,
                                   "spans": tracer.span_records()}, fh)
    finally:
        if hasattr(job, "close"):
            job.close()
    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
