"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

The tracer and speed-probe tests take a few seconds.
``test_exact_counts_repeat`` runs each workload's traced batch twice (about
four minutes on 2 vCPUs) and requires the counts that later changes may
cite, and the output digests, to repeat exactly.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workload  # noqa: E402

EXACT_COUNTS = ("model.coeff_calls", "hjb.layers", "hjb.layer_pairs", "hjb.fp_iters_max",
                "regularize.rungs_rejected", "regularize.mollifier_points",
                "game.path_steps", "dual.path_substeps")


def test_self_time_excludes_wrapped_children():
    t = tracing.Tracer()
    inner = t.wrap("m.inner", lambda: time.sleep(0.02), span=False)

    def body():
        time.sleep(0.01)
        inner()
        inner()

    t.wrap("m.outer", body)()
    calls, total, self_s = t.stats["m.outer"]
    assert calls == 1 and total >= 0.05
    assert self_s == pytest.approx(total - t.total_s("m.inner"), abs=1e-9)
    assert t.calls("m.inner") == 2
    assert t.module_self_s("m") == pytest.approx(total, abs=1e-9)
    assert [s[1] for s in t.spans] == ["m.outer"]  # leaves are aggregated only


def test_span_parent_skips_aggregated_leaves():
    t = tracing.Tracer()
    child = t.wrap("m.child", lambda: None)
    leaf = t.wrap("m.leaf", child, span=False)
    t.wrap("m.root", leaf)()
    spans = {s["name"]: s for s in t.span_records()}
    assert spans["m.root"]["parent"] == -1
    assert spans["m.child"]["parent"] == spans["m.root"]["id"]
    assert spans["m.root"]["start"] <= spans["m.child"]["start"] <= spans["m.child"]["end"] \
        <= spans["m.root"]["end"]


def test_instrument_and_restore_leave_package_unchanged():
    workload.import_package()
    from hedgegame import cli, hjb, regularize

    before = (hjb.solve, cli.validate_assumptions, hjb.ValueSurface.eval,
              regularize.SmoothSurface.eval, cli.model_from_config, cli.main)
    t = tracing.Tracer()
    tracing.instrument(t)
    try:
        assert hjb.solve is not before[0]
        assert cli.validate_assumptions is hjb.validate_assumptions  # one wrapper everywhere
        assert hjb.ValueSurface.eval is not before[2]
    finally:
        t.restore()
    after = (hjb.solve, cli.validate_assumptions, hjb.ValueSurface.eval,
             regularize.SmoothSurface.eval, cli.model_from_config, cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_traced_model_counts_calls_and_keeps_values():
    import numpy as np

    workload.import_package()
    from hedgegame.model import make_payoff

    model = workload.finance_model([0.1, 0.3], make_payoff("call", strike=1.0), 0.02, 0.05)
    t = tracing.Tracer()
    traced = t.traced_model(model)
    x = np.array([[0.0], [0.5]])
    a = model.A_points[1]
    assert np.array_equal(traced.sigma_X(0.0, x, a), model.sigma_X(0.0, x, a))
    assert traced.hash == model.hash
    assert t.calls("model.coeff") > 1


def test_speed_probe_samples_during_the_region_and_leaves_its_time_out():
    probe = workload.SpeedProbe()
    with probe:
        wall0, work0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall0 < 1.6:
            pass
        wall, work = time.perf_counter() - wall0, probe.clock() - work0
    taken = len(probe.samples)
    time.sleep(2 * workload.PROBE_PERIOD_S)
    assert taken >= 2 and len(probe.samples) == taken  # the timer stops on exit
    assert probe.busy_s >= sum(probe.samples)
    assert work == pytest.approx(wall - probe.busy_s, abs=1e-3)
    assert workload.host_speed([workload.PROBE_REF_S / 2]) == pytest.approx(2.0)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "price",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def traced_batch(name, seed, path):
    subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", "0", "--trace", "1",
                    "--result", str(path)],
                   check=True, timeout=600, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_exact_counts_repeat(name, tmp_path):
    first = traced_batch(name, 3, tmp_path / "a.json")
    second = traced_batch(name, 3, tmp_path / "b.json")
    counts = [{k: run["layers"][k] for k in EXACT_COUNTS} for run in (first, second)]
    assert counts[0] == counts[1]
    assert first["batches"][0]["digests"] == second["batches"][0]["digests"]
