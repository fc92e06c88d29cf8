"""Closed-loop client: one ``transopt`` process per job, one at a time.

Runs as its own small process so that the peak RSS each solver process
reports is its own: on Linux a child's max-RSS starts from the high-water
mark of the process that spawned it, and ``run.py`` holds every generated
instance in memory.  So this client imports little and streams
each envelope to a file instead of keeping it.

Usage: ``python3 client.py PLAN.json``.  The plan names the interpreter
arguments, the jobs, the output directory and the time budget; the client
writes ``timings.json`` into the output directory.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time


def run_job(argv, env, out_path):
    """Spawn one process, read its envelope to the end, reap it.

    Returns (latency_s, exit_code, max_rss_kb); the latency runs from just
    before the spawn until the exit status is collected.
    """
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=env)
        shutil.copyfileobj(proc.stdout, out, 1 << 16)
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, usage.ru_maxrss


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    env = dict(os.environ, **plan["env"])
    prefix, jobs, outdir = plan["prefix"], plan["jobs"], plan["outdir"]
    passes = []
    start = time.perf_counter()
    while True:
        p = len(passes)
        rows = []
        t0 = time.perf_counter()
        for j, argv in enumerate(jobs):
            out = os.path.join(outdir, f"p{p}-j{j}.out")
            latency, code, rss = run_job(prefix + argv, env, out)
            rows.append({"latency_s": latency, "rc": code, "max_rss_kb": rss,
                         "out": out})
        passes.append({"wall_s": time.perf_counter() - t0, "jobs": rows})
        # start another pass only if a typical pass still fits the budget
        typical = statistics.median(q["wall_s"] for q in passes)
        if time.perf_counter() - start + typical > plan["seconds"]:
            break
    with open(os.path.join(outdir, "timings.json"), "w") as fh:
        json.dump({"passes": passes}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
