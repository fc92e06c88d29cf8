"""The package loads a solver module, and numpy, only when a request runs it."""

import json
import os
import subprocess
import sys
import textwrap

import transopt

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
}


def test_solve_without_ovrp_does_not_import_numpy(tmp_path):
    paths = {}
    for tag, payload in INSTANCES.items():
        paths[tag] = str(tmp_path / f"{tag}.json")
        with open(paths[tag], "w") as fh:
            json.dump(payload, fh)
    script = textwrap.dedent(f"""
        import sys
        from transopt.cli import main

        paths = {paths!r}
        for tag in ("fuel", "jeep", "hampath", "curve"):
            assert main(["solve", paths[tag]]) == 0, tag
        assert "numpy" not in sys.modules, "numpy loaded without an ovrp solver"
        from transopt import oracles  # a submodule outside the export table
        assert "numpy" not in sys.modules
        for algo in ("ovrp-greedy", "ovrp-dp1"):  # pure-Python ovrp solvers
            assert main(["solve", "--algo", algo, paths["ovrp"]]) == 0, algo
        assert "numpy" not in sys.modules, "numpy loaded by ovrp-greedy/dp1"
        # control: the check above can see numpy once an ovrp solver runs
        assert main(["solve", "--algo", "ovrp-dp2", paths["ovrp"]]) == 0
        assert "numpy" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(transopt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 7


def test_every_public_name_resolves():
    for name in transopt.__all__:
        assert getattr(transopt, name) is not None, name
    assert set(transopt.__all__) <= set(dir(transopt))
