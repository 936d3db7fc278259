"""Benchmark command: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verdict-scan --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  Each workload runs in a fresh worker process
(``worker.py``) with one caller and no warm-up.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; set-up is repeated in
extra fresh processes and reported as the median.  With ``--trace 1`` a
traced worker runs a fixed number of ops, an untraced worker replays the
same ops, and the last line holds the per-layer metrics; the two answer
digests must match.  The line before the last is a detailed report:
provenance, op counts, family mix, digests and any failures.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["verdict-scan", "refute-search", "ql-transport", "cli-cold"]
# whole schedule cycles, about ten seconds of ops each on the seed code
TRACE_OPS = {"verdict-scan": 132, "refute-search": 96, "ql-transport": 112, "cli-cold": 24}
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
# one caller: keep numeric libraries from starting thread pools
ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class BenchError(RuntimeError):
    pass


def worker(*args):
    """Run ``worker.py`` to completion; returns its JSON plus set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    data = json.loads(out.strip().splitlines()[-1])
    data["setup_s"] = data["setup_end"] - start
    return data


def import_seconds():
    """Seconds to import ``drinfeld.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import drinfeld.cli; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args):
    base = ["--workload", args.workload, "--seed", args.seed]
    setups = [worker(*base, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    length = ["--seconds", args.seconds] if args.ops is None else ["--ops", args.ops]
    run = worker(*base, *length)
    setups.append(run["setup_s"])
    lat = run["latencies"]
    metrics = {
        "ops_per_s": (run["ops"] / run["timed_s"], "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = {"setup_s_samples": setups, "runs": {"timed": summary(run)}}
    return [run], metrics, report


def per_layer(args):
    from tracer import LAYER_METRICS

    base = ["--workload", args.workload, "--seed", args.seed]
    count = args.ops if args.ops is not None else TRACE_OPS[args.workload]
    traced = worker(*base, "--ops", count, "--trace")
    plain = worker(*base, "--ops", count)
    units = dict(LAYER_METRICS)
    metrics = {name: (traced["layers"][name], units[name]) for name in units}
    imports = [import_seconds() for _ in range(3)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_frac"] = (1.0 - plain["timed_s"] / traced["timed_s"], "ratio")
    report = {
        "digests_equal": traced["digest"] == plain["digest"],
        "cli_import_samples": imports,
        "runs": {"traced": summary(traced), "untraced": summary(plain)},
    }
    return [traced, plain], metrics, report


def summary(run):
    keys = ("ops", "cycles", "timed_s", "families", "digest", "digest_checkpoints", "failures")
    return {k: run[k] for k in keys}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, help="fixed op count (for quick checks)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "drinfeld" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'drinfeld'}", file=sys.stderr)
        return 2
    try:
        runs, metrics, report = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["ops"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    correct = failed == 0 and report.get("digests_equal", True)
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        workloads_run=[args.workload],
        op_count=runs[0]["ops"],
        failed_frac=failed / attempted,
        nproc=os.cpu_count(),
        python=runs[0]["python"],
        numpy=runs[0]["numpy"],
        git_commit=git_commit(),
    )
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
