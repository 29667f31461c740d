"""Benchmark of the hedgegame pipeline.

    python3 perfbench/run.py --workload price --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in its own child process (``workload.py``) with BLAS
capped at one thread. With ``--trace 0`` the child's timed region runs
whole batches for ``--seconds``. Batch and stage times are reported at a
fixed reference host speed, measured by a probe during the batch
(``workload.SpeedProbe``); ``batch_wall_s`` is the unscaled time. Set-up is
timed in that child and in four more that only set up, and the median is
reported. With ``--trace 1`` an
untraced and a traced child each run one batch: the traced one reports the
per-layer metrics, their difference is the tracing overhead.

Prints a table of every metric by name, unit and sample count, writes the
full record (checks, digests, environment, stages) under
``perfbench/results/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("price", "certify", "cli-hedge")
DIAGNOSTICS = ("cli-hedge-readme",)  # known to fail a gate; see README.md
SETUP_ONLY_RUNS = 4
TIME_LIMIT_S = 170.0
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# named end-to-end numbers per workload: (name, unit) in report order
STAGES = {
    "price": [("price_book_s", "s"), ("price_solve_s", "s"), ("price_residual_s", "s")],
    "certify": [("certify_s", "s"), ("hedge_check_s", "s")],
    "cli-hedge": [("cli_solve_s", "s"), ("cli_simulate_s", "s"), ("cli_dual_s", "s")],
}
STAGES["cli-hedge-readme"] = STAGES["cli-hedge"]


class BenchError(Exception):
    pass


def git_state():
    """Commit and dirty flag when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_child(workload, seed, seconds, deadline, *, trace=0, setup_only=False, spans=None):
    os.makedirs(WORK, exist_ok=True)
    result = os.path.join(WORK, f"child-{os.getpid()}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **BLAS_CAP)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before starting a child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    try:
        if proc.returncode != 0:
            raise BenchError(f"{workload}: child exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        with open(result) as fh:
            return json.load(fh)
    finally:
        if os.path.exists(result):
            os.remove(result)


def median_of(values):
    return statistics.median(values) if values else float("nan")


def tally(children):
    """Attempted/failed checks over every batch of the given children, plus
    one determinism check per batch whose digests differ from the first."""
    checks = []
    first = None
    for child in children:
        for b in child.get("batches", []):
            checks += b["checks"]
            if first is None:
                first = b["digests"]
            else:
                checks.append(["determinism", b["digests"] == first,
                               "digests equal to the first batch of this run"])
    failed = [c for c in checks if not c[1]]
    return len(checks), failed


def run_workload(name, seed, seconds, trace, bench):
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "blas_cap": BLAS_CAP, **git_state()}
    report = []  # (name, value, unit, samples)
    if trace == 0:
        children = [run_child(name, seed, seconds, deadline, setup_only=True)
                    for _ in range(SETUP_ONLY_RUNS)]
        full = run_child(name, seed, seconds, deadline)
        children.append(full)
        batches = full["batches"]
        attempted, failed = tally([full])
        values = {
            "setup_s": (median_of([c["setup_s"] for c in children]), len(children)),
            "batch_s": (median_of([b["batch_ref_s"] for b in batches]), len(batches)),
            "peak_rss_mb": (full["peak_rss_mb"], 1),
        }
        wanted = bench["end_to_end"]
        report += [
            ("batch_wall_s", median_of([b["batch_s"] for b in batches]), "s", len(batches)),
            ("host_speed", median_of([b["host_speed"] for b in batches]), "1",
             sum(b["probes"] for b in batches)),
        ]
        for stage, unit in STAGES[name]:
            samples = [b["stages"][stage] * b["host_speed"]
                       for b in batches if stage in b["stages"]]
            report.append((stage, median_of(samples), unit, len(samples)))
        if name == "price":
            errs = [b["info"]["price_rel_err_max"] for b in batches]
            report.append(("price_rel_err_max", max(errs), "1", len(errs)))
        record.update(setup_samples=[c["setup_s"] for c in children], env=full["env"],
                      batches=batches)
    else:
        plain = run_child(name, seed, 0, deadline)  # exactly one batch
        spans = os.path.join(RESULTS, f"{tag}-spans.json")
        traced = run_child(name, seed, seconds, deadline, trace=1, spans=spans)
        attempted, failed = tally([plain, traced])
        layers = dict(traced["layers"])
        overhead = traced["batches"][0]["batch_s"] - plain["batches"][0]["batch_s"]
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_pct"] = 100.0 * overhead / plain["batches"][0]["batch_s"]
        values = {k: (v, 1) for k, v in layers.items()}
        wanted = bench["per_layer"]
        record.update(env=traced["env"], untraced=plain["batches"], batches=traced["batches"],
                      spans_file=os.path.relpath(spans, ROOT))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: metrics not measured: {missing}")
    report = [(m["name"], values[m["name"]][0], m["unit"], values[m["name"]][1])
              for m in wanted] + report
    report.append(("fail_ratio", len(failed) / attempted if attempted else 1.0, "1", attempted))
    record.update(report=[{"name": n, "value": v, "unit": u, "samples": k}
                          for n, v, u, k in report],
                  attempted=attempted, failed=len(failed), failed_checks=failed)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"== {name}  seed {seed}  trace {trace}  "
          f"checks {attempted - len(failed)}/{attempted} passed  "
          f"nproc {record['env']['nproc']}  "
          f"BLAS threads {BLAS_CAP['OPENBLAS_NUM_THREADS']}")
    for n, v, u, k in report:
        print(f"  {n:34s} {v:>16.6g} {u:6s} n={k}")
    for c in failed:
        print(f"  FAILED {c[0]}: {c[2]}")
    print(f"  record: {os.path.relpath(os.path.join(RESULTS, tag + '.json'), ROOT)}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    return {"correct": attempted > 0 and not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="hedgegame benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + DIAGNOSTICS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "hedgegame", "__init__.py")):
            raise BenchError(f"no hedgegame sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, bench)
                   for w in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
