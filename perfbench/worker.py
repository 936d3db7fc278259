"""Run one workload in a fresh process; print raw measurements as one JSON line.

Started by ``run.py``.  Set-up is the package import plus building the
first schedule cycle of inputs; it ends at ``setup_end`` (monotonic clock,
which is shared by every process on the machine).  The timed pass then
runs ops one at a time, whole schedule cycles until ``--seconds`` of op
time have passed (so every run has the same family mix), or exactly
``--ops`` ops.  Later input cycles are built between ops with the clock
stopped.  Answers are checked and digested after the timed pass.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"


def import_package():
    """Import ``drinfeld`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import drinfeld

    if Path(drinfeld.__file__).resolve().parent != (src / "drinfeld").resolve():
        raise SystemExit(f"drinfeld imported from {drinfeld.__file__}, not from {src}")


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def family_table(records, latencies):
    """Op count and median latency (ms) of each input family."""
    by = {}
    for (op, _, _), elapsed in zip(records, latencies):
        by.setdefault(op.family, []).append(elapsed)
    return {f: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3} for f, v in sorted(by.items())}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--ops", type=int, help="run exactly this many ops instead")
    p.add_argument("--trace", action="store_true", help="record spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_package()
    import numpy
    import workloads
    from tracer import Tracer, layer_stats, load_spans

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = WORK / f"{tag}-{'trace' if args.trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    child_spans = None
    tracer = None
    if args.trace and args.workload == "cli-cold":
        child_spans = workdir / "spans"
        child_spans.mkdir()
    elif args.trace:
        tracer = Tracer()
        tracer.install()
    wl = workloads.make(args.workload, workdir, child_spans)
    queue = wl.cycle(args.seed, 0)
    setup_end = time.monotonic()
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_end": setup_end}))
        return 0

    records, latencies = [], []
    cycles, timed = 1, 0.0
    while len(records) < args.ops if args.ops is not None else queue or timed < args.seconds:
        if not queue:
            queue = wl.cycle(args.seed, cycles)
            cycles += 1
        op = queue.pop(0)
        op.index = len(records)
        if tracer is not None:
            tracer.op = op.index
        start = time.perf_counter()
        try:
            answer, error = wl.run(op), None
        except Exception as exc:  # an op that raises is counted as failed
            answer, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        timed += elapsed
        latencies.append(elapsed)
        records.append((op, answer, error))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    checkpoints = {}
    failures = []
    for op, answer, error in records:
        if error is None:
            try:
                error = wl.check(op, answer)
            except Exception as exc:  # a check that raises fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
            doc = wl.answer_json(op, answer)
        else:
            doc = {"error": error.split(":")[0]}
        if error is not None:
            failures.append({"op": op.index, "family": op.family, "error": error})
        digest.update(canonical(doc))
        if (op.index + 1) % 50 == 0:
            checkpoints[op.index + 1] = digest.hexdigest()

    layers = None
    if tracer is not None:
        tracer.dump(WORK / f"spans-{tag}.jsonl")
        layers = layer_stats([tracer.spans])
    elif child_spans is not None:
        groups = [load_spans(f) for f in sorted(child_spans.glob("op-*.jsonl"))]
        layers = layer_stats(groups)
        shutil.copytree(child_spans, WORK / f"spans-{tag}", dirs_exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "setup_end": setup_end,
        "ops": len(records),
        "cycles": cycles,
        "timed_s": timed,
        "latencies": latencies,
        "failures": failures,
        "families": family_table(records, latencies),
        "digest": digest.hexdigest(),
        "digest_checkpoints": checkpoints,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
