"""End-to-end and per-layer benchmark of the ``transopt`` CLI.

    python3 perfbench/run.py --workload {cli-small,large} --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; ``transopt`` runs from ``src/`` as
``python -m transopt.cli``.  Each run

1. generates the workload's instance files from ``--seed`` (``setup_s`` is
   the median of three such set-ups);
2. with ``--trace 0``, has one client run the job list as a closed loop, one
   process per instance, the next spawned only when the last has exited,
   for about ``--seconds`` seconds of whole passes; with ``--trace 1``,
   runs the traced in-process passes of ``tracing.py`` instead;
3. checks every envelope (``check.py``), then prints a report, writes a
   results record under ``.perfbench/results/`` and prints one JSON line
   with the metrics ``BENCHMARK.json`` lists.

``correct`` is false when any job fails its check, except the inputs that
trigger a known, documented defect; those still count in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S is used,
SETUP_MIN_S = 1.0  # up to SETUP_MAX_REPS times
SETUP_MAX_REPS = 50
# a p90 needs at least ten samples beyond it; smaller job lists report none
P90_MIN_SAMPLES = 100


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the checkout read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(workloads, name, seed, work):
    """Generate and write the instance files, repeatedly, into one directory."""
    inst_dir = work / "instances"
    inst_dir.mkdir()
    times = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S
                                      and len(times) < SETUP_MAX_REPS):
        gc.collect()  # each set-up starts from the same heap
        t0 = time.perf_counter()
        w = workloads.build(name, seed)
        nbytes = workloads.write_instances(w, inst_dir)
        times.append(time.perf_counter() - t0)
    return w, inst_dir, nbytes, times


def run_client(w, inst_dir, work, seconds):
    """The timed closed loop, in its own small process (see client.py)."""
    outdir = work / "out"
    outdir.mkdir()
    plan = {"prefix": [sys.executable, "-m", "transopt.cli"],
            "env": {"PYTHONPATH": str(SRC)},
            "jobs": [job.argv + [str(inst_dir / job.file)] for job in w.jobs],
            "outdir": str(outdir), "seconds": seconds}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), str(plan_path)],
                            start_new_session=True)
    try:
        proc.wait(timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("benchmark client timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"benchmark client failed with exit code {proc.returncode}")
    return json.loads((outdir / "timings.json").read_text())["passes"]


def timed_run(w, inst_dir, checker, work, seconds):
    passes = run_client(w, inst_dir, work, seconds)
    reasons = []
    for p in passes:
        results = []
        for row in p["jobs"]:
            out = Path(row["out"])
            results.append((row["rc"], out.read_bytes()))
            out.unlink()
        reasons.append(checker.check_pass(results))
    # one latency per instance, the median over the passes, so that the
    # quantiles do not shift with the number of passes that fit in a run
    latencies = [statistics.median(p["jobs"][j]["latency_s"] for p in passes)
                 for j in range(len(w.jobs))]
    n = len(latencies)
    per = f"{n} instances, each the median of {len(passes)} passes"
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s",
                   "samples": len(walls), "stat": "median pass wall time",
                   "passes_s": walls},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s",
                          "samples": n, "stat": f"p50 of per-instance latency, {per}"},
        "peak_rss_mb": {"value": max(row["max_rss_kb"] for p in passes
                                     for row in p["jobs"]) / 1024.0,
                        "unit": "MB", "samples": n * len(passes),
                        "stat": "max of each solver process's max-RSS"},
    }
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latencies, n=10)[8]
        metrics["latency_p90_s"] = {
            "value": p90, "unit": "s", "samples": n,
            "stat": f"p90 of per-instance latency, {per}, "
                    f"{sum(x > p90 for x in latencies)} beyond it"}
    return metrics, reasons


def summarize_failures(w, reasons):
    failures, unexpected = [], 0
    for p, per_job in enumerate(reasons):
        for j, reason in enumerate(per_job):
            if reason is None:
                continue
            job = w.jobs[j]
            failures.append({"pass": p, "job": job.name, "reason": reason,
                             "known_defect": job.defect})
            unexpected += job.defect is None
    return failures, unexpected


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds the finally blocks that stop the client


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "transopt" / "cli.py").is_file():
        print(f"perfbench: no transopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import numpy
    from check import Checker

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        w, inst_dir, nbytes, setup_times = setup(workloads, args.workload, args.seed, work)
        checker = Checker(w, small=args.workload == "cli-small")
        # warm the file and bytecode caches before anything is timed
        subprocess.run([sys.executable, "-c", "import transopt.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        if args.trace:
            import tracing
            metrics, reasons, tracer = tracing.traced_run(
                w, args.seed, inst_dir, checker, SRC, args.seconds)
            names = tracing.ALL_METRICS
            wanted = spec["per_layer"]
        else:
            metrics, reasons = timed_run(w, inst_dir, checker, work, args.seconds)
            names = ["setup_s", "wall_s", "latency_p50_s", "latency_p90_s",
                     "peak_rss_mb", "fail_frac"]
            wanted = spec["end_to_end"]
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                              "samples": len(setup_times),
                              "stat": "median set-up time"}
        failures, unexpected = summarize_failures(w, reasons)
        attempted = sum(len(r) for r in reasons)
        metrics["fail_frac"] = {"value": len(failures) / attempted, "unit": "ratio",
                                "samples": attempted,
                                "stat": "failed checks / instances attempted"}
    finally:
        shutil.rmtree(work)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "instance_files": len(w.instances), "jobs_per_pass": len(w.jobs),
        "instance_bytes": nbytes,
        "metrics": metrics, "missing": [m for m in names if m not in metrics],
        "correct": unexpected == 0, "attempted": attempted,
        "failed": len(failures), "failures": failures,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(out.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(w.jobs)} instance bytes={nbytes}")
    for name in names:
        m = metrics.get(name)
        if m is None:
            print(f"{name:26s} missing (not measured on this workload)")
        else:
            print(f"{name:26s} {m['value']:.6g} {m['unit']}  "
                  f"[{m['stat']}, n={m['samples']}]")
    for f in failures:
        if f["pass"] == 0:
            tag = "known defect" if f["known_defect"] else "FAIL"
            print(f"{tag}: {f['job']}: {f['reason'][:200]}")
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"], "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
