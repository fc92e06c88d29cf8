"""The package loads a solver module only when a request runs it, and numpy
only for an interval DP past the ``transopt.rows`` gate; no request loads
``dataclasses`` or ``__future__``, and a batch job's command does not load
``argparse``."""

import json
import os
import subprocess
import sys
import textwrap

import transopt
from transopt.cli import ALGOS

SCHEMA = "transopt-instance/1"
INSTANCES = {
    "fuel": {"schema": SCHEMA, "problem": "fuel", "n": 3,
             "edges": [[1, 2, 1], [1, 3, 5]], "gas": [1, 0, 4]},
    "jeep": {"schema": SCHEMA, "problem": "jeep", "x": 1.0, "k": 4,
             "m": 1.0, "g": 1.0},
    "hampath": {"schema": SCHEMA, "problem": "hampath",
                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    "curve": {"schema": SCHEMA, "problem": "curve", "gaps": [1, 2, 3],
              "weights": [1, 0, 2], "start": 0},
    "ovrp": {"schema": SCHEMA, "problem": "ovrp", "n": 3,
             "edges": [[1, 2, 2], [1, 3, 3]], "p": 2},
    "jeep-graph": {"schema": SCHEMA, "problem": "jeep-graph", "n": 3,
                   "edges": [[1, 2, 0.3], [2, 3, 0.3]], "m": 1.0, "g": 1.0},
}
# fields only some algos read; the default solvers ignore them
EXTRA = {"jeep": {"budget": 2.0}, "hampath": {"start": 1}}


def _run_script(tmp_path, body, instances=INSTANCES):
    """Run ``body`` in a fresh interpreter with ``paths`` (tag -> instance
    file) and ``main`` defined; returns its stdout lines."""
    paths = {}
    for tag, payload in instances.items():
        paths[tag] = str(tmp_path / f"{tag}.json")
        with open(paths[tag], "w") as fh:
            json.dump(payload, fh)
    script = f"import sys\nfrom transopt.cli import main\npaths = {paths!r}\n" \
        + textwrap.dedent(body)
    src = os.path.dirname(os.path.dirname(os.path.abspath(transopt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_solve_without_ovrp_does_not_import_numpy(tmp_path):
    n = 4959  # a star: p = 10 is not capped, so dp2 runs 4957 full merges
    star = {"schema": SCHEMA, "problem": "ovrp", "n": n, "p": 10,
            "edges": [[1, v, 1 + v % 7] for v in range(2, n + 1)]}
    lines = _run_script(tmp_path, """
        for tag in ("fuel", "jeep", "hampath", "curve"):
            assert main(["solve", paths[tag]]) == 0, tag
        assert "numpy" not in sys.modules, "numpy loaded without an ovrp solver"
        from transopt import oracles  # a submodule outside the export table
        assert "numpy" not in sys.modules
        for algo in ("ovrp-greedy", "ovrp-dp1", "ovrp-interval"):
            assert main(["solve", "--algo", algo, paths["ovrp"]]) == 0, algo
        assert "numpy" not in sys.modules, "numpy loaded by a pure-Python solver"
        assert main(["solve", paths["ovrp"]]) == 0  # the default, ovrp-interval
        assert main(["check", paths["ovrp"]]) == 0
        assert "numpy" not in sys.modules, "numpy loaded by ovrp solve/check"
        for tag in ("ovrp", "star"):
            assert main(["solve", "--algo", "ovrp-dp2", paths[tag]]) == 0, tag
        assert "numpy" not in sys.modules, "numpy loaded by ovrp-dp2"
    """, dict(INSTANCES, star=star))
    assert len(lines) == 11


def test_interval_dp_loads_numpy_only_past_the_gate(tmp_path):
    from transopt.rows import N_ARRAY

    def curve(n):
        return {"schema": SCHEMA, "problem": "curve", "start": 0,
                "gaps": [1 + i % 3 for i in range(n)],
                "weights": [i % 2 for i in range(n)]}
    instances = dict(INSTANCES, below=curve(N_ARRAY - 1), at=curve(N_ARRAY))
    lines = _run_script(tmp_path, """
        for tag in ("hampath", "curve", "below"):
            assert main(["solve", paths[tag]]) == 0, tag
        assert "numpy" not in sys.modules, "numpy loaded below the array gate"
        # control: the check above can see numpy once an instance reaches it
        assert main(["solve", paths["at"]]) == 0
        assert "numpy" in sys.modules
    """, instances)
    assert len(lines) == 4


def test_no_command_loads_dataclasses(tmp_path):
    instances = {tag: dict(payload, **EXTRA.get(tag, {}))
                 for tag, payload in INSTANCES.items()}
    lines = _run_script(tmp_path, """
        from transopt.cli import ALGOS
        for algo, tag in ALGOS.items():
            assert main(["solve", "--algo", algo, paths[tag]]) == 0, algo
        for tag, path in paths.items():
            main(["solve", path])
            main(["oracle", path])  # jeep-graph has no oracle: rc 1
            main(["check", path])
        assert "dataclasses" not in sys.modules, "a command loaded dataclasses"
    """, instances)
    assert len(lines) == len(ALGOS) + 3 * len(instances)


def test_job_commands_leave_argparse_unloaded(tmp_path):
    lines = _run_script(tmp_path, """
        for tag, path in paths.items():
            main(["solve", path])
            main(["oracle", path])  # jeep-graph has no oracle: rc 1
            main(["check", path])
        sys.argv = ["transopt", "solve", "--algo", "fuel", paths["fuel"]]
        assert main() == 0  # the process's own arguments
        for name in ("argparse", "__future__"):
            assert name not in sys.modules, f"a job command loaded {name}"
        # control: the checks above can see argparse once a command needs it
        main(["bench-jeep", "--x", "1", "--k-list", "2"])
        assert "argparse" in sys.modules
    """)
    assert len(lines) == 3 * len(INSTANCES) + 2


def test_help_loads_argparse(tmp_path):
    lines = _run_script(tmp_path, """
        try:
            main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0
        assert "argparse" in sys.modules
    """)
    assert lines[0].startswith("usage: transopt")


def test_a_tree_or_jeep_check_leaves_geometry_unloaded(tmp_path):
    lines = _run_script(tmp_path, """
        for tag in ("fuel", "ovrp", "jeep"):
            assert main(["check", paths[tag]]) == 0, tag
        assert "transopt.geometry" not in sys.modules
        # control: a polygon check loads it
        assert main(["check", paths["hampath"]]) == 0
        assert "transopt.geometry" in sys.modules
    """)
    assert len(lines) == 4


def test_every_public_name_resolves():
    for name in transopt.__all__:
        assert getattr(transopt, name) is not None, name
    assert set(transopt.__all__) <= set(dir(transopt))


def test_a_polygon_job_loads_no_rational_arithmetic(tmp_path):
    # exact signs come from float.as_integer_ratio, not fractions or decimal
    room = {"schema": SCHEMA, "problem": "hampath",
            "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    lines = _run_script(tmp_path, """
        for tag in ("hampath", "room"):
            assert main(["solve", paths[tag]]) == 0, tag
            assert main(["check", paths[tag]]) == 0, tag
        for name in ("fractions", "decimal"):
            assert name not in sys.modules, f"a polygon job loaded {name}"
    """, dict(INSTANCES, room=room))
    assert len(lines) == 4
