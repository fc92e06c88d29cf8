"""``transopt`` as a process of its own.

Both ways a shell starts it, the console script and ``python -m
transopt.cli``, go through ``cli.run``, which flushes the output and ends
with ``os._exit``, skipping interpreter teardown.  So these tests read exit
codes and output through pipes, as a shell or the benchmark client would.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import transopt
from transopt.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(transopt.__file__)))
SCHEMA = "transopt-instance/1"
STAR = {"schema": SCHEMA, "problem": "ovrp", "n": 3,
        "edges": [[1, 2, 2], [1, 3, 3]], "p": 2}
# 100001 plans: an envelope of about 2.8 MB
JEEP_BIG = {"schema": SCHEMA, "problem": "jeep", "x": 9.005, "k": 100_000,
            "m": 1.0, "g": 1.0}


def write(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# The child's environment.  Without PYTHONUNBUFFERED a short envelope waits
# in stdout's buffer, so it reaches the pipe only through the final flush.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = SRC


def console_script_target():
    """The ``module:function`` pyproject.toml gives the console script."""
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as f:
        return re.search(r'^transopt = "([\w.]+):(\w+)"$', f.read(),
                         re.M).groups()


# The console script's wrapper runs sys.exit(<target>()).
ENTRIES = {
    "script": [sys.executable, "-c",
               "import sys; from {0} import {1}; sys.exit({1}())".format(
                   *console_script_target())],
    "module": [sys.executable, "-m", "transopt.cli"],
}


@pytest.fixture(params=sorted(ENTRIES))
def transopt_cmd(request):
    return ENTRIES[request.param]


@pytest.fixture
def cli(transopt_cmd):
    def run(*args):
        return subprocess.run([*transopt_cmd, *args], env=ENV,
                              capture_output=True, timeout=120)
    return run


INFEASIBLE = {"schema": SCHEMA, "problem": "jeep", "x": 2.5, "k": 0,
              "m": 1.0, "g": 1.0}
OUTCOMES = pytest.mark.parametrize("payload, code, status", [
    (STAR, 0, "ok"),
    (dict(STAR, p=0), 1, "error"),
    (INFEASIBLE, 2, "infeasible"),
], ids=["ok", "error", "infeasible"])


@OUTCOMES
def test_exit_code_and_envelope(tmp_path, cli, payload, code, status):
    proc = cli("solve", write(tmp_path, payload))
    assert proc.returncode == code
    assert proc.stderr == b""
    (line,) = proc.stdout.decode().splitlines()
    assert json.loads(line)["status"] == status
    if status == "ok":
        assert json.loads(line)["objective"] == 5.0


def test_bad_argv_and_help(tmp_path, cli):
    bad = cli("solve", "--algo", "no-such-algo", write(tmp_path, STAR))
    assert bad.returncode == 2
    assert bad.stdout == b"" and b"invalid choice" in bad.stderr
    assert cli().returncode == 2  # no command
    helped = cli("--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith(b"usage: transopt")


def test_multi_mb_envelope_reaches_the_pipe(tmp_path, cli, capsys):
    path = write(tmp_path, JEEP_BIG)
    proc = cli("solve", "--algo", "jeep-exact", path)
    assert proc.returncode == 0
    assert main(["solve", "--algo", "jeep-exact", path]) == 0
    in_process = capsys.readouterr().out.encode()
    assert len(proc.stdout) > 2_000_000

    def untimed(out):
        return re.sub(rb'"wall_time": [^,]+,', b"", out)

    assert untimed(proc.stdout) == untimed(in_process)


def test_parallel_batch_prints_one_line_per_file(tmp_path, cli):
    files = [write(tmp_path, dict(STAR, p=p), f"star{p}.json")
             for p in (1, 2, 0, 3)]
    proc = cli("solve", "--jobs", "2", *files)
    assert proc.returncode == 1  # the worst of the lines: p = 0 is an error
    lines = [json.loads(l) for l in proc.stdout.decode().splitlines()]
    assert [e["status"] for e in lines] == ["ok", "ok", "error", "ok"]
    assert [e.get("objective") for e in lines] == [7.0, 5.0, None, 5.0]


@pytest.mark.parametrize("payload", [STAR, JEEP_BIG],
                         ids=["at-final-flush", "inside-main"])
def test_closed_pipe_exits_1_without_traceback(tmp_path, transopt_cmd,
                                               payload):
    # The read end is closed before the child starts, so its first write
    # to stdout fails: the short envelope's at the flush after main, the
    # long one's inside print.
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [*transopt_cmd, "solve", "--algo",
             "jeep-exact" if payload is JEEP_BIG else "ovrp-interval",
             write(tmp_path, payload)],
            env=ENV, stdout=w, stderr=subprocess.PIPE,
            timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""


@OUTCOMES
def test_closed_stdout_keeps_the_exit_code(tmp_path, transopt_cmd, payload,
                                           code, status):
    # With fd 1 closed at start, Python sets sys.stdout to None and print
    # writes nothing; the command's own exit code must still come through.
    proc = subprocess.run([*transopt_cmd, "solve", write(tmp_path, payload)],
                          env=ENV, stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1), timeout=120)
    assert proc.returncode == code
    assert proc.stderr == b""


# a 3000-vertex path, all gas and lengths 1: deeper than the interpreter's
# recursion limit, which the fuel oracle once recursed into
FUEL_PATH = {"schema": SCHEMA, "problem": "fuel", "n": 3000,
             "edges": [[v, v + 1, 1] for v in range(1, 3000)],
             "gas": [1] * 3000}
# the budget is the continuous optimum at x = 2 (to 5e-16), which no k meets;
# stepping k by one up to the cap would evaluate about 5e11 segments
ADDITIVE_THRESHOLD = {"schema": SCHEMA, "problem": "jeep", "x": 2.0,
                      "m": 1.0, "g": 1.0, "budget": 7.672993672993677,
                      "schedule": "additive", "ct": 1}


@pytest.mark.parametrize("payload, args, code, status, objective", [
    (FUEL_PATH, ["oracle"], 0, "ok", 2998.0),
    (FUEL_PATH, ["check"], 0, "ok", 2998.0),
    (ADDITIVE_THRESHOLD, ["solve", "--algo", "jeep-threshold"], 2,
     "infeasible", None),
], ids=["fuel-oracle", "fuel-check", "threshold"])
def test_deep_or_long_inputs_give_one_envelope_in_time(tmp_path, payload,
                                                       args, code, status,
                                                       objective):
    proc = subprocess.run([*ENTRIES["module"], *args, write(tmp_path, payload)],
                          env=ENV, capture_output=True, timeout=10)
    assert proc.returncode == code
    assert proc.stderr == b""
    (line,) = proc.stdout.decode().splitlines()
    env = json.loads(line, parse_constant=lambda c: pytest.fail(c))
    assert env["status"] == status
    assert env.get("objective") == objective
