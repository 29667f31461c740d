"""In-memory call tracer for the benchmark's traced runs.

Wraps functions and methods of the ``hedgegame`` modules at module or class
attribute level; nothing in the package itself changes. Every wrapped call
keeps a frame on one stack, so each call's self time is its duration minus
the time spent in wrapped calls below it. Calls made millions of times (the
model coefficients, surface reads, mollifier points) are aggregated only;
the rest also leave a span (id, name, start, end, parent id) in memory,
written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time

MODULES = ("model", "hjb", "regularize", "game", "dual", "cli")
COEFF_NAMES = ("mu_X", "sigma_X", "mu_Y", "sigma_Y", "u_hat")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self._stack = []  # frames: [child seconds, enclosing span id]
        self._next_id = 0
        self._undo = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, name, fn, *, span=True, after=None):
        """Return ``fn`` timed under ``name``; ``after(result, args, kwargs)``
        runs on success, outside the timed interval."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_span = stack[-1][1] if stack else -1
            if span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if span:
                    self.spans.append((span_id, name, start, end, parent_span))
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, *, adapt=None, **kw):
        """Replace ``owner.attr`` by its traced version until ``restore``;
        ``adapt(original)`` may substitute the function that is traced."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        fn = original if adapt is None else functools.wraps(original)(adapt(original))
        setattr(owner, attr, self.wrap(name, fn, **kw))

    def patch_function(self, module, attr, name, **kw):
        """Trace a module-level function in every hedgegame module that
        imported it by name, so calls through any namespace are seen."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **kw)
        for mod_name in ("hedgegame",) + tuple(f"hedgegame.{m}" for m in MODULES):
            mod = importlib.import_module(mod_name)
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def traced_model(self, model):
        """Copy of ``model`` whose coefficient callables are aggregated
        under ``model.coeff``."""
        wrapped = {c: self.wrap("model.coeff", getattr(model, c), span=False)
                   for c in COEFF_NAMES}
        return dataclasses.replace(model, **wrapped)

    # -- reading the trace ---------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def module_self_s(self, module):
        prefix = module + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def span_records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in sorted(self.spans)]


def _file_bytes(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


def instrument(tracer: Tracer):
    """Trace the public entry points of the six hedgegame modules.

    Counters are recorded at the same boundaries from the call arguments and
    results, so they repeat exactly for the same inputs.
    """
    from hedgegame import cli, dual, game, hjb, model, regularize

    t = tracer

    # model: validation and config-built models (coefficients are wrapped per
    # model, see Tracer.traced_model)
    t.patch_function(model, "validate_assumptions", "model.validate_assumptions")
    t.patch(cli, "model_from_config", "model.model_from_config",
            adapt=lambda build: lambda cfg: t.traced_model(build(cfg)))

    # hjb: sweep, residual, surface reads and I/O
    def after_solve(surface, args, kwargs):
        layers = len(surface.t) - 1
        t.count("hjb.layers", layers)
        t.count("hjb.layer_pairs", layers * int(surface.meta["n_pairs"]))
        t.peak("hjb.fp_iters_max", int(surface.meta["fixed_point_max_iters"]))

    def after_save(_, args, kwargs):
        t.count("hjb.bytes_written", _file_bytes(args[1]))

    t.patch_function(hjb, "solve", "hjb.solve", after=after_solve)
    t.patch_function(hjb, "residual", "hjb.residual")
    t.patch_function(hjb, "min_generator_field", "hjb.min_generator_field", span=False)
    t.patch_function(hjb, "save_csv", "hjb.save_csv", after=after_save)
    t.patch_function(hjb, "save_binary", "hjb.save_binary", after=after_save)
    t.patch_function(hjb, "load_binary", "hjb.load_binary")
    t.patch(hjb.ValueSurface, "eval", "hjb.surface_eval", span=False)
    t.patch(hjb.ValueSurface, "value", "hjb.surface_eval", span=False)

    # regularize: ladder, shaken solves, inf-convolution, mollifier, checks
    def after_shaken(res, args, kwargs):
        if res.eps > 0.0:
            t.count("regularize.rungs_solved")
            t.count("regularize.shaken_layers", len(res.surface.t) - 1)

    def after_infconv(res, args, kwargs):
        t.count("regularize.infconv_nodes", int(res[0].size))

    def after_build(smooth, args, kwargs):
        eta = float(args[3] if len(args) > 3 else kwargs["eta"])
        t.count("regularize.rungs_rejected",
                sum(1 for _, c in smooth.certificate.c_curve if c > 0.5 * eta + 1e-12))

    t.patch_function(regularize, "build_smooth_supersolution",
                     "regularize.build_smooth_supersolution", after=after_build)
    t.patch_function(regularize, "solve_shaken", "regularize.solve_shaken", after=after_shaken)
    t.patch_function(regularize, "inf_convolution", "regularize.inf_convolution",
                     after=after_infconv)
    t.patch_function(regularize, "verify_supersolution", "regularize.verify_supersolution")
    S = regularize.SmoothSurface
    t.patch(S, "eval", "regularize.mollifier_eval", span=False)
    t.patch(S, "eval_batch", "regularize.eval_batch", span=False)
    t.patch(S, "gradient_lattice", "regularize.gradient_lattice", span=False)
    t.patch(S, "fast_value_grad", "regularize.fast_value_grad", span=False)

    # game: strategy reads, Euler game, super-hedge check
    def after_simulate(rep, args, kwargs):
        t.count("game.path_steps", rep.n_paths * rep.n_steps)
        t.count("game.clamped_queries", rep.clamped_queries)
        t.count("game.excluded_paths", rep.excluded_paths)

    t.patch_function(game, "superhedge_check", "game.superhedge_check")
    t.patch_function(game, "simulate", "game.simulate", after=after_simulate)
    t.patch_function(game, "make_strategy", "game.make_strategy", span=False)
    t.patch(game.StrategyMap, "gradient", "game.gradient", span=False)
    t.patch(game.StrategyMap, "value", "game.strategy_value", span=False)
    t.patch(game.StrategyMap, "rule", "game.rule", span=False)

    # dual: LSMC bound and the DPP check
    def after_lsmc(est, args, kwargs):
        lattice = args[4] if len(args) > 4 else kwargs["lattice"]
        t.count("dual.path_substeps",
                est.n_paths * (len(lattice.time_knots) - 1) * lattice.substeps)

    t.patch_function(dual, "dpp_check", "dual.dpp_check")
    t.patch_function(dual, "dual_value_lsmc", "dual.dual_value_lsmc", after=after_lsmc)
    t.patch_function(dual, "make_lattice", "dual.make_lattice", span=False)

    # cli: entry point, subcommands, config and artifact writers
    def after_main(code, args, kwargs):
        argv = list(args[0] if args else kwargs["argv"])
        if "--out" not in argv:
            return
        out = argv[argv.index("--out") + 1]
        t.count("cli.artifact_bytes",
                sum(_file_bytes(os.path.join(out, f)) for f in os.listdir(out)))

    t.patch_function(cli, "main", "cli.main", after=after_main)
    for cmd in ("cmd_price", "cmd_solve", "cmd_regularize", "cmd_simulate", "cmd_dual"):
        t.patch_function(cli, cmd, f"cli.{cmd}")
    for helper in ("load_config", "write_manifest", "_write_json", "save_smooth",
                   "load_smooth"):
        t.patch_function(cli, helper, f"cli.{helper}", span=False)
