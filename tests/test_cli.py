import gc
import importlib
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transopt import cli, tree
from transopt.cli import bench_jeep, main

STAR = {
    "schema": "transopt-instance/1",
    "problem": "ovrp",
    "n": 3,
    "edges": [[1, 2, 2], [1, 3, 3]],
    "p": 1,
}


def write(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.splitlines() if l]
    return code, lines


def test_solve_ovrp(tmp_path, capsys):
    path = write(tmp_path, STAR)
    code, lines = run(capsys, ["solve", path])
    assert code == 0
    env = lines[0]
    assert env["schema"] == "transopt-result/1"
    assert env["status"] == "ok"
    assert env["objective"] == 7.0
    assert env["solver"] == "ovrp-interval"
    assert env["solution"]["routes"]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_and_restores_the_collector(tmp_path, capsys, monkeypatch,
                                                enabled):
    seen = []

    def load(path):
        seen.append(gc.isenabled())
        return load_instance(path)

    load_instance = cli.load_instance
    monkeypatch.setattr(cli, "load_instance", load)
    ok = write(tmp_path, STAR)
    bad = write(tmp_path, dict(STAR, p=0), "bad.json")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, ["solve", ok])[1][0]["status"] == "ok"
        assert gc.isenabled() is enabled
        assert run(capsys, ["solve", bad])[1][0]["status"] == "error"
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["solve", "--algo", "no-such-algo", ok])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]  # paused while each command ran


def test_solve_all_ovrp_algos_agree(tmp_path, capsys):
    path = write(tmp_path, STAR)
    for algo in ("ovrp-greedy", "ovrp-dp1", "ovrp-dp2", "ovrp-interval"):
        code, lines = run(capsys, ["solve", "--algo", algo, path])
        assert code == 0 and lines[0]["objective"] == 7.0


def test_solve_jeep_exact(tmp_path, capsys):
    path = write(tmp_path, {"schema": "transopt-instance/1", "problem": "jeep",
                            "x": 1.0, "k": 4, "m": 1.0, "g": 1.0})
    code, lines = run(capsys, ["solve", path])
    assert code == 0
    assert lines[0]["objective"] == 1.0
    assert len(lines[0]["solution"]["plans"]) == 5


def test_solve_multiple_files_with_jobs(tmp_path, capsys):
    paths = [write(tmp_path, STAR, f"i{t}.json") for t in range(3)]
    code, lines = run(capsys, ["solve", "--jobs", "2"] + paths)
    assert code == 0
    assert [l["objective"] for l in lines] == [7.0, 7.0, 7.0]


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = write(tmp_path, {"schema": "transopt-instance/1", "problem": "jeep",
                            "x": 2.0, "k": 0, "m": 1.0, "g": 1.0})
    code, lines = run(capsys, ["solve", path])
    assert code == 2
    assert lines[0]["status"] == "infeasible"
    assert "objective" not in lines[0]


def test_solve_missing_field_names_it(tmp_path, capsys):
    bad = dict(STAR)
    del bad["edges"]
    code, lines = run(capsys, ["solve", write(tmp_path, bad)])
    assert code == 1
    assert lines[0]["status"] == "error"
    assert "missing field 'edges'" in lines[0]["diagnostics"]["reason"]


def test_solve_wrong_type_named(tmp_path, capsys):
    bad = dict(STAR, p="one")
    code, lines = run(capsys, ["solve", write(tmp_path, bad)])
    assert code == 1
    assert "field 'p'" in lines[0]["diagnostics"]["reason"]


def test_solve_unknown_problem(tmp_path, capsys):
    code, lines = run(capsys, ["solve", write(tmp_path, dict(STAR, problem="x"))])
    assert code == 1 and lines[0]["status"] == "error"


def test_solve_algo_problem_mismatch(tmp_path, capsys):
    code, lines = run(capsys, ["solve", "--algo", "fuel", write(tmp_path, STAR)])
    assert code == 1
    assert "expects" in lines[0]["diagnostics"]["reason"]


def test_solve_rejects_unknown_algo(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--algo", "bogus", write(tmp_path, STAR)])


def test_solve_unreadable_file(capsys):
    code, lines = run(capsys, ["solve", "/nonexistent/inst.json"])
    assert code == 1 and lines[0]["status"] == "error"


def test_oracle(tmp_path, capsys):
    code, lines = run(capsys, ["oracle", write(tmp_path, STAR)])
    assert code == 0
    assert lines[0]["solver"] == "oracle"
    assert lines[0]["objective"] == 7.0


def test_check_agreement(tmp_path, capsys):
    square = {"schema": "transopt-instance/1", "problem": "hampath",
              "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    path = write(tmp_path, square)
    code, lines = run(capsys, ["check", path])
    assert code == 0
    assert lines[0]["agreement"] is True
    assert lines[0]["solver_objective"] == lines[0]["oracle_objective"] == 3.0
    assert lines[0]["objective"] == 3.0
    _, solved = run(capsys, ["solve", path])
    assert set(lines[0]) == set(solved[0]) | {
        "agreement", "solver_objective", "oracle_objective"}
    assert isinstance(lines[0]["wall_time"], float)


def test_check_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parse", lambda payload, algo: lambda algo: (
        (3.0 if algo == "oracle" else 4.0), None, None))
    code, lines = run(capsys, ["check", write(tmp_path, STAR)])
    assert code == 1 and len(lines) == 1
    assert lines[0]["status"] == "ok" and lines[0]["agreement"] is False
    assert (lines[0]["solver_objective"], lines[0]["oracle_objective"]) == (4.0, 3.0)


def test_check_honors_fixed_start(tmp_path, capsys):
    inst = {"schema": "transopt-instance/1", "problem": "hampath",
            "vertices": [[0, 0], [1, 0], [0, 1]], "start": 0}
    code, lines = run(capsys, ["check", write(tmp_path, inst)])
    assert code == 0
    assert lines[0]["solver"] == "hampath-fixed"
    assert lines[0]["agreement"] is True


def test_result_round_trips_through_json(tmp_path, capsys):
    path = write(tmp_path, {"schema": "transopt-instance/1", "problem": "jeep",
                            "x": 4.0 / 3.0, "k": 10, "m": 1.0, "g": 1.0})
    _, lines = run(capsys, ["solve", path])
    env = lines[0]
    assert json.loads(json.dumps(env)) == env
    assert isinstance(env["objective"], float)


def test_bench_jeep_rows(capsys):
    code, lines = run(capsys, ["bench-jeep", "--x", "2.0", "--k-list", "4,8"])
    assert code == 0 and len(lines) == 2
    for row, k in zip(lines, (4, 8)):
        assert row["k"] == k
        assert row["g"] >= row["f"] > 0
        assert row["r1"] > 0 and row["r2"] > 0


def test_bench_jeep_bad_args(capsys):
    assert main(["bench-jeep", "--x", "2.0", "--k-list", ""]) == 1
    assert main(["bench-jeep", "--x", "-1.0", "--k-list", "4"]) == 1
    capsys.readouterr()


def test_bench_jeep_function():
    rows = bench_jeep(2.0, 1.0, 1.0, [4, 16], repeats_budget=100)
    assert rows[0]["points_touched"] <= 6
    assert rows[1]["f"] <= rows[0]["f"]


def test_bench_jeep_touch_ratio_is_a_share_of_the_points():
    # every run of Method 2 holds one index: it touches all k + 2 points
    row, = bench_jeep(3.7631578947368425, 1.0, 1.0, [10], repeats_budget=10)
    assert row["points_touched"] == 12 and row["touch_ratio"] == 1.0


# Argument lists over the CLI's grammar: each command and none, each option
# form, and zero to two files, one of which may look like an option; each
# option goes before the files and after them.
ARGV_COMMANDS = [[], ["solve"], ["oracle"], ["check"], ["bench-jeep"], ["bogus"]]
ARGV_OPTIONS = [[]] + [["--algo", a] for a in [*cli.ALGOS, "bogus"]] + [
    ["--algo=fuel"], ["--al", "fuel"], ["--jobs", "2"], ["-h"], ["--"]]
ARGV_FILES = [[], ["a.json"], ["a.json", "b.json"], ["-x.json"],
              ["a.json", "-x.json"]]


def test_job_args_equal_argparse_or_decline():
    parser = cli.build_parser()
    taken = set()
    for command, option, files in itertools.product(ARGV_COMMANDS, ARGV_OPTIONS,
                                                    ARGV_FILES):
        for argv in (command + option + files, command + files + option):
            args = cli._job_args(argv)
            if args is not None:
                assert vars(args) == vars(parser.parse_args(argv)), argv
                taken.add(tuple(argv))
    # the shapes a batch job sends are exactly the ones taken
    jobs = {("solve", *option, *files)
            for option in [[]] + [["--algo", a] for a in cli.ALGOS]
            for files in (["a.json"], ["a.json", "b.json"])}
    assert taken == jobs | {("oracle", "a.json"), ("check", "a.json")}


L_SHAPE = {"schema": "transopt-instance/1", "problem": "hampath",
           "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
           "start": 2}


def test_solve_default_algo_honors_hampath_start(tmp_path, capsys):
    code, lines = run(capsys, ["solve", write(tmp_path, L_SHAPE)])
    assert code == 0
    assert lines[0]["solver"] == "hampath-fixed"
    assert lines[0]["solution"]["path"][0] == 2


def test_polygons_near_1e_4_are_judged_on_their_floats(tmp_path, capsys):
    # edges 1 and 3 cross, though vertex 4 lies within 1e-9, as a cross
    # product, of edge 1's line: an error, not a crash in the triangulation
    crossing = {"schema": "transopt-instance/1", "problem": "hampath", "vertices": [
        [-9.333050381160129e-05, 1.2152790855089402e-05],
        [-6.89745834756866e-05, 8.142295204465082e-05],
        [-6.697770602217892e-05, -2.2957085311454218e-05],
        [2.4329028459858582e-05, 8.587799457868779e-05],
        [-7.269626564736025e-05, 2.1279047851043376e-05]]}
    code, lines = run(capsys, ["solve", write(tmp_path, crossing)])
    assert code == 1 and lines[0]["status"] == "error"
    assert lines[0]["diagnostics"] == {"reason": "edges 1 and 3 cross"}
    # every turn of this triangle is 1e-10: no vertex lies on an edge
    triangle = dict(crossing, vertices=[[0, 0], [1e-5, 0], [0, 1e-5]])
    code, lines = run(capsys, ["solve", write(tmp_path, triangle)])
    assert code == 0 and lines[0]["status"] == "ok"
    assert lines[0]["objective"] == 2e-05


@pytest.mark.parametrize("payload, status, want_code, solver", [
    ({"schema": "transopt-instance/1", "problem": "jeep",
      "x": 2.0, "k": 0, "m": 1.0, "g": 1.0}, "infeasible", 2, "jeep-exact"),
    (dict(STAR, p="one"), "error", 1, "ovrp-interval"),
], ids=["infeasible", "error"])
def test_check_failure_envelope_matches_solve(tmp_path, capsys, payload, status,
                                              want_code, solver):
    path = write(tmp_path, payload)
    code, lines = run(capsys, ["check", path])
    assert code == want_code and len(lines) == 1
    env = lines[0]
    assert env["schema"] == "transopt-result/1"
    assert env["status"] == status and env["solver"] == solver
    assert env["diagnostics"]["reason"]
    assert isinstance(env["wall_time"], float)
    solve_code, solved = run(capsys, ["solve", path])
    assert solve_code == code and set(env) == set(solved[0])


NAN_TREE = dict(STAR, n=3, edges=[[1, 2, 2], [1, 3, math.nan]])


@pytest.mark.parametrize("payload", [
    {"schema": "transopt-instance/1", "problem": "hampath",
     "vertices": [[0, 0], [1]]},
    {"schema": "transopt-instance/1", "problem": "curve",
     "gaps": [1, 2, 3], "weights": 5},
    NAN_TREE,
    {"schema": "transopt-instance/1", "problem": "curve",
     "gaps": [1, math.inf, 3]},
    {"schema": "transopt-instance/1", "problem": "fuel", "n": 2,
     "edges": [[1, 2, 1]], "gas": [math.nan, 0]},
    dict(STAR, edges=[[1, None, 2], [1, 3, 3]]),
    dict(STAR, edges=[[1, 2, 10 ** 400], [1, 3, 3]]),
], ids=["short-vertex", "scalar-weights", "nan-edge", "inf-gap", "nan-gas",
        "null-vertex-id", "overflowing-length"])
def test_malformed_numbers_give_one_error_envelope(tmp_path, capsys, payload):
    code = main(["solve", write(tmp_path, payload)])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and err == ""
    env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
    assert env["schema"] == "transopt-result/1"
    assert env["status"] == "error"


# ints whose sum is finite while no entry is: each must be named, not
# converted to a float past the float range
CANCELLING = [10 ** 400, -10 ** 400, 1]
CANCELLING_LISTS = {
    "gaps": {"schema": "transopt-instance/1", "problem": "curve",
             "gaps": CANCELLING, "weights": [1, 1, 1]},
    "weights": {"schema": "transopt-instance/1", "problem": "curve",
                "gaps": [1, 2, 3], "weights": CANCELLING},
    "gas": {"schema": "transopt-instance/1", "problem": "fuel", "n": 3,
            "edges": [[1, 2, 1], [1, 3, 1]], "gas": CANCELLING},
    "points": {"schema": "transopt-instance/1", "problem": "jeep",
               "points": CANCELLING, "m": 1.0, "g": 1.0},
}


@pytest.mark.parametrize("command", ["solve", "oracle", "check"])
@pytest.mark.parametrize("field", list(CANCELLING_LISTS))
def test_huge_ints_that_cancel_are_one_error_envelope(tmp_path, capsys, field,
                                                     command):
    code = main([command, write(tmp_path, CANCELLING_LISTS[field])])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and err == ""
    env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
    assert env["status"] == "error"
    assert env["diagnostics"]["reason"] == \
        f"field '{field}[0]' must be a finite number"


# min and max skip a NaN that is not first; the sum catches it, so the bad
# entry is named rather than left to give a NaN objective
@pytest.mark.parametrize("payload, reason", [
    ({"schema": "transopt-instance/1", "problem": "curve",
      "gaps": [1, 2, math.nan]}, "field 'gaps[2]' must be a finite number"),
    ({"schema": "transopt-instance/1", "problem": "curve",
      "gaps": [1, math.nan, 10 ** 400]}, "field 'gaps[1]' must be a finite number"),
    (NAN_TREE, "field 'edges[1]' must be [u, v, length] with integer vertices "
               "and a finite length"),
], ids=["nan-last", "nan-then-huge", "nan-edge-last"])
def test_a_nan_after_a_number_is_named(tmp_path, capsys, payload, reason):
    code, lines = run(capsys, ["solve", write(tmp_path, payload)])
    assert code == 1 and lines[0]["diagnostics"]["reason"] == reason


# objectives that overflow to infinity: every edge or gap is finite
HUGE = 1e308
OVERFLOWING = {
    "ovrp": dict(STAR, edges=[[1, 2, HUGE], [1, 3, HUGE]]),
    "fuel": {"schema": "transopt-instance/1", "problem": "fuel", "n": 3,
             "edges": [[1, 2, HUGE], [1, 3, HUGE]], "gas": [0, 0, 0]},
    "curve": {"schema": "transopt-instance/1", "problem": "curve",
              "gaps": [HUGE] * 3, "weights": [1, 1, 1]},
    # the boundary is a path inside the polygon, but its sides sum past the range
    "hampath": {"schema": "transopt-instance/1", "problem": "hampath",
                "vertices": [[0, 0], [1.5e308, 0], [0, 1.5e308]], "start": 0},
}


# gaps, or doubled edge lengths, that sum past the float range are rejected
# with the instance itself, before any algo or the oracle runs
OVERFLOW_REASON = {"curve": "gaps must sum to a finite number",
                   "fuel": "twice the edge lengths must sum to a finite number"}


@pytest.mark.parametrize("tag", list(OVERFLOWING))
def test_an_overflowing_objective_is_one_error_envelope(tmp_path, capsys, tag):
    path = write(tmp_path, OVERFLOWING[tag])
    argvs = [["solve", "--algo", algo, path] for algo in cli.PROBLEMS[tag][0]]
    for argv in argvs + [["oracle", path], ["check", path]]:
        # check stops before the oracle
        code = main(argv)
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert code == 1 and len(lines) == 1 and err == "", argv
        env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
        assert env["status"] == "error", argv
        assert env["diagnostics"]["reason"] == \
            OVERFLOW_REASON.get(tag, "objective inf is not finite")


# the solver's prefix sums overflow on these while the oracle, summing each
# arc on its own, once found a finite optimum: every command must reject them
CURVE_SUMS = {
    "gaps": ({"schema": "transopt-instance/1", "problem": "curve",
              "gaps": [HUGE, HUGE, 1.0], "weights": [1, 1, 1]},
             "gaps must sum to a finite number"),
    "weights": ({"schema": "transopt-instance/1", "problem": "curve",
                 "gaps": [1, 2, 3], "weights": [HUGE, HUGE, 1]},
                "weights must sum to a finite number"),
    # finite sums: the weighted objective itself overflows, under every command
    "objective": ({"schema": "transopt-instance/1", "problem": "curve",
                   "gaps": [5e307] * 3, "weights": [2, 2, 2]},
                  "objective inf is not finite"),
}


@pytest.mark.parametrize("command", ["solve", "oracle", "check"])
@pytest.mark.parametrize("case", list(CURVE_SUMS))
def test_curve_sums_past_the_float_range_agree_across_commands(
        tmp_path, capsys, case, command):
    payload, reason = CURVE_SUMS[case]
    code = main([command, write(tmp_path, payload)])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and err == ""
    env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
    assert env["status"] == "error"
    assert env["diagnostics"]["reason"] == reason


# a fuel tree whose gas or doubled edge lengths sum past the float range
# once gave a NaN profit: solve dropped that child's subtree from its walk
# and printed ok, and check disagreed with the oracle
FOUND_FUEL = {"schema": "transopt-instance/1", "problem": "fuel", "n": 6,
              "edges": [[1, 2, 1], [2, 3, 0], [2, 4, 0], [2, 5, 1.7e308], [1, 6, 1]],
              "gas": [0, 0, 1.7e308, 1.7e308, 0, 0]}


@pytest.mark.parametrize("command", ["solve", "oracle", "check"])
def test_fuel_sums_past_the_float_range_agree_across_commands(
        tmp_path, capsys, command):
    code = main([command, write(tmp_path, FOUND_FUEL)])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and err == ""
    env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
    assert env["status"] == "error"
    assert env["diagnostics"]["reason"] == "gas must sum to a finite number"


def test_every_ok_fuel_walk_visits_every_vertex(tmp_path, capsys):
    rng = random.Random(62)
    values = (0, 1, 1e308, 1.7e308)
    statuses = []
    for _ in range(300):
        n = rng.randint(2, 7)
        payload = {"schema": "transopt-instance/1", "problem": "fuel", "n": n,
                   "edges": [[rng.randint(1, i - 1), i, rng.choice(values)]
                             for i in range(2, n + 1)],
                   "gas": [rng.choice(values) for _ in range(n)]}
        code, lines = run(capsys, ["solve", write(tmp_path, payload)])
        env = lines[0]
        statuses.append(env["status"])
        if env["status"] == "ok":
            assert code == 0
            assert set(env["solution"]["walk"]) == set(range(1, n + 1)), payload
        else:
            assert code == 1 and env["status"] == "error", payload
    assert "ok" in statuses and "error" in statuses


# ovrp_brute answers inf only after a move overflowed; with a finite optimum
# its search covers the tree (some moves may still overflow on the way), so
# the oracle agrees with solve and never reports an exhausted search
@pytest.mark.parametrize("n, edges, p", [
    (3, [[1, 2, 2], [2, 3, 0]], 1),
    (4, [[1, 2, 1], [2, 3, 2], [2, 4, 3]], 2),
    (2, [[1, 2, HUGE]], 1),
    (3, [[1, 2, 5e307], [1, 3, 5e307]], 1),
], ids=["zero-length", "two-vehicles", "one-huge-edge", "huge-walk"])
def test_oracle_on_a_finite_ovrp_optimum_is_ok(tmp_path, capsys, n, edges, p):
    path = write(tmp_path, dict(STAR, n=n, edges=edges, p=p))
    code, lines = run(capsys, ["oracle", path])
    assert code == 0 and lines[0]["status"] == "ok"
    assert lines[0]["objective"] == run(capsys, ["solve", path])[1][0]["objective"]


JEEP_GRAPH_1M = {"schema": "transopt-instance/1", "problem": "jeep-graph",
                 "n": 10 ** 6, "edges": [], "m": 1.0, "g": 1.0}


# the edge count is checked before each edge: a negative length alone gives
# its own error, but too few edges wins
@pytest.mark.parametrize("payload, reason", [
    (dict(STAR, n=10 ** 6, edges=[]), "0 edges cannot connect 1000000 vertices"),
    (dict(STAR, n=10 ** 6, edges=[[1, 2, -1]]),
     "1 edges cannot connect 1000000 vertices"),
    (JEEP_GRAPH_1M, "graph is not connected"),
    (dict(JEEP_GRAPH_1M, edges=[[1, 2, -1]]), "graph is not connected"),
], ids=["tree", "tree-negative-edge", "jeep-graph", "jeep-graph-negative-edge"])
def test_too_few_edges_are_rejected_before_allocating(tmp_path, payload,
                                                       reason):
    from transopt import jeep, ovrp, tree  # noqa: F401  (imported untraced)
    path = write(tmp_path, payload)
    tracemalloc.start()
    try:
        env, code = cli._run_one(path, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and env["status"] == "error"
    assert env["diagnostics"]["reason"].endswith(reason)
    assert peak < 1 << 20


def test_fuel_ignores_legacy_search_fields(tmp_path, capsys):
    inst = {"schema": "transopt-instance/1", "problem": "fuel", "n": 3,
            "edges": [[1, 2, 1], [1, 3, 5]], "gas": [0, 10, 0],
            "value_mode": "weird", "epsilon": 0}
    code, lines = run(capsys, ["solve", write(tmp_path, inst)])
    assert code == 0 and len(lines) == 1
    assert lines[0]["objective"] == 2.0
    assert lines[0]["solution"]["walk"] == [1, 2, 1, 3, 1]


JEEP_GRAPH = {"schema": "transopt-instance/1", "problem": "jeep-graph", "n": 3,
              "edges": [[1, 2, 0.2], [2, 3, 0.2]], "m": 1.0, "g": 1.0}
JEEP = {"schema": "transopt-instance/1", "problem": "jeep", "m": 1.0, "g": 1.0}


@pytest.mark.parametrize("payload, algo", [
    (dict(JEEP_GRAPH, target=5), "jeep-graph-backward"),
    (dict(JEEP_GRAPH, source=0), "jeep-graph-binary"),
    (dict(JEEP, x=0.0, k=3), "jeep-fast"),
    (dict(JEEP, x=1.0, k=-1), "jeep-fast"),
    (dict(JEEP, x=-1.0, k=3), "jeep-fast"),
    (dict(JEEP, x=1.0, budget=0.5), "jeep-threshold"),
    (dict(JEEP_GRAPH, k_per_edge=10 ** 400), "jeep-graph-vertex"),
    # more segments than _MAX_SEGMENTS: rejected before any point is made
    (dict(JEEP, x=1.0, k=2 ** 40), "jeep-exact"),
    (dict(JEEP, x=1.0, k=2 ** 40), None),
    (dict(JEEP_GRAPH, k_per_edge=2 ** 40), "jeep-graph-vertex"),
], ids=["graph-target", "graph-source", "fast-x0", "fast-k-1", "fast-x-1",
        "threshold-below-optimum", "vertex-k-past-float-range", "exact-k-2-40",
        "check-k-2-40", "vertex-k-2-40"])
def test_jeep_out_of_range_gives_one_envelope(tmp_path, capsys, payload, algo):
    # algo None runs check
    argv = ["check"] if algo is None else ["solve", "--algo", algo]
    t0 = time.perf_counter()
    code, lines = run(capsys, argv + [write(tmp_path, payload)])
    assert time.perf_counter() - t0 < 2.0
    assert code == (2 if algo == "jeep-threshold" else 1) and len(lines) == 1
    assert lines[0]["schema"] == "transopt-result/1"
    assert lines[0]["status"] == {1: "error", 2: "infeasible"}[code]
    assert lines[0]["diagnostics"]["reason"]


def test_jeep_graph_reads_an_explicit_minus_1_as_out_of_range(tmp_path, capsys):
    # only a missing target defaults to vertex n
    for name in ("source", "target"):
        code, lines = run(capsys, ["solve", write(tmp_path, dict(JEEP_GRAPH, **{name: -1}))])
        assert code == 1 and lines[0]["status"] == "error"
        assert lines[0]["diagnostics"] == {"reason": f"{name} -1 outside 1..3"}


def _graph_path(lengths, **fields):
    return dict(JEEP_GRAPH, n=len(lengths) + 1, **fields,
                edges=[[v, v + 1, ln] for v, ln in enumerate(lengths, 1)])


# Each edge under m/2g: the target is reachable, but the requirement grows by
# a factor per edge and passes the float range, an error.  The controls solve
# (a prefix of one such path, or a source whose overflowing chain hangs off
# the target) or have no plan at all (infeasible).
OUTCOMES = {
    "points": dict(JEEP, points=[round(0.499 * i, 6) for i in range(130)]),
    "k-1e5": dict(JEEP, x=400, k=10 ** 5),
    "path-120": _graph_path([0.499] * 120),
    "path-262": _graph_path([4.672086441097504] * 262, m=10.0),
    "path-99": _graph_path([4.672086441097504] * 99, m=10.0),
    "hanging-262": _graph_path([0.1] + [4.672086441097504] * 262, m=10.0,
                               target=2),
    # an edge of 0.6 nets a transfer only with its midpoint: vertex depots
    # alone never reach the target, one point per edge overflows
    "path-400-k1": _graph_path([0.6] * 400, k_per_edge=1),
    # longer than a tank: no load crosses it, but depots anywhere do, after
    # some e^2000 tanks
    "edge-1000": _graph_path([1000.0]),
    "k-0": dict(JEEP, x=2.5, k=0),
}
GRAPH_ALGOS = ("jeep-graph-backward", "jeep-graph-vertex", "jeep-graph-binary")


@pytest.mark.parametrize("case, argv, status", [
    ("points", ["solve", "--algo", "jeep-exact"], "error"),
    ("points", ["check"], "error"),
    ("k-1e5", ["solve", "--algo", "jeep-fast"], "error"),
    ("k-1e5", ["solve", "--algo", "jeep-exact"], "error"),
    *[(case, ["solve", "--algo", algo], status) for algo in GRAPH_ALGOS
      for case, status in (("path-120", "error"), ("path-262", "error"),
                           ("path-99", "ok"), ("hanging-262", "ok"),
                           ("edge-1000", "infeasible"))],
    ("edge-1000", ["solve", "--algo", "jeep-graph-free"], "error"),
    ("path-400-k1", ["solve", "--algo", "jeep-graph-vertex"], "error"),
    ("path-400-k1", ["solve", "--algo", "jeep-graph-backward"], "infeasible"),
    ("k-0", ["solve", "--algo", "jeep-exact"], "infeasible"),
], ids=lambda v: v if isinstance(v, str) else v[-1])
def test_overflow_is_an_error_and_no_plan_infeasible(tmp_path, capsys, case,
                                                     argv, status):
    code = main(argv + [write(tmp_path, OUTCOMES[case])])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == {"ok": 0, "error": 1, "infeasible": 2}[status]
    assert len(lines) == 1 and err == ""
    env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
    assert env["schema"] == "transopt-result/1" and env["status"] == status
    if case == "hanging-262":
        assert env["objective"] == 0.1
    elif status == "ok":  # about 2.9e115 under each of the three
        assert 2.8e115 < env["objective"] < 3e115
    else:
        assert "internal" not in env["diagnostics"]
    if status == "error":
        assert env["diagnostics"]["reason"].startswith("OverflowError: ")


def test_threshold_refines_past_a_k_that_overflows(tmp_path, capsys):
    # Method 1 overflows at k = 256; k = 512 meets the budget
    path = write(tmp_path, dict(
        JEEP, x=0.3660047703064846, m=0.22451964054413215,
        g=74.65964592867692, budget=1.218741241958883e+147))
    code, lines = run(capsys, ["solve", "--algo", "jeep-threshold", path])
    assert code == 0 and lines[0]["status"] == "ok"
    assert lines[0]["solution"] == {"k": 512}
    assert lines[0]["objective"] <= 1.218741241958883e+147


def test_bench_jeep_overflow_is_one_stderr_line(capsys):
    assert main(["bench-jeep", "--x", "400", "--k-list", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_jeep_fast_takes_a_k_past_the_segment_limit(tmp_path, capsys):
    # Method 2's fast form makes no points, so no segment limit applies: at
    # x = 1 its 2**40 + 1 indices are two runs
    t0 = time.perf_counter()
    code, lines = run(capsys, ["solve", "--algo", "jeep-fast",
                               write(tmp_path, dict(JEEP, x=1.0, k=2 ** 40))])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0 and len(lines) == 1
    assert lines[0]["objective"] == 1.0000000020027073
    assert lines[0]["diagnostics"] == {"points_touched": 3}


@pytest.mark.parametrize("algo", ["ovrp-dp1", "ovrp-dp2"])
def test_ovrp_dp_vehicle_count_beyond_leaves(tmp_path, capsys, algo):
    t0 = time.perf_counter()
    code, lines = run(capsys, ["solve", "--algo", algo,
                               write(tmp_path, dict(STAR, p=10 ** 6))])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0 and len(lines) == 1
    assert lines[0]["objective"] == 5.0  # one vehicle per leaf: 2 + 3


def test_ovrp_oracle_takes_p_past_the_leaf_count(tmp_path, capsys):
    path = write(tmp_path, dict(STAR, edges=[[1, 2, 1], [1, 3, 1]], p=5))
    code, lines = run(capsys, ["check", path])
    assert code == 0 and len(lines) == 1
    assert lines[0]["agreement"] is True and lines[0]["objective"] == 2.0
    code, lines = run(capsys, ["oracle", path])
    assert code == 0 and lines[0]["objective"] == 2.0


CURVE = {"schema": "transopt-instance/1", "problem": "curve",
         "gaps": [1, 2, 3, 4], "weights": [1, 1, 1, 1]}


def test_check_ignores_transopt_eps(tmp_path, capsys, monkeypatch):
    # the agreement and search tolerances are constants; the variable that
    # once set them is not read
    monkeypatch.setenv("TRANSOPT_EPS", "abc")
    for payload, argv in ((CURVE, ["check"]),
                          (JEEP_GRAPH, ["solve", "--algo", "jeep-graph-binary"])):
        code, lines = run(capsys, argv + [write(tmp_path, payload)])
        assert code == 0 and len(lines) == 1 and lines[0]["status"] == "ok"


SQUARE = {"schema": "transopt-instance/1", "problem": "hampath",
          "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}


@pytest.mark.parametrize("start", [9, -1])
def test_every_command_rejects_a_start_outside_the_polygon(tmp_path, capsys,
                                                           start):
    path = write(tmp_path, dict(SQUARE, start=start))
    for command in ("oracle", "solve", "check"):
        code = main([command, path])
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert code == 1 and len(lines) == 1 and err == "", command
        env = json.loads(lines[0])
        assert env["status"] == "error"
        assert f"start {start} outside 0..3" in env["diagnostics"]["reason"]


@pytest.mark.parametrize("fields", [
    {"points": [0, 0.2, 0.4]},  # every segment is one one-way trip
    {"x": 2.0, "k": 20},  # segments that need round trips
], ids=["one-way", "round-trips"])
def test_jeep_unknown_mode_is_an_error(tmp_path, capsys, fields):
    path = write(tmp_path, dict(JEEP, mode="zzz", **fields))
    code, lines = run(capsys, ["solve", path])
    assert code == 1 and len(lines) == 1
    assert lines[0]["status"] == "error"
    assert "unknown mode 'zzz'" in lines[0]["diagnostics"]["reason"]


@pytest.mark.parametrize("k1", [2_000_000, -5], ids=["past-cap", "negative"])
def test_threshold_k1_out_of_range_is_an_error(tmp_path, capsys, k1):
    path = write(tmp_path, dict(JEEP, x=2.5, budget=100, k1=k1))
    code, lines = run(capsys, ["solve", "--algo", "jeep-threshold", path])
    assert code == 1 and len(lines) == 1
    assert lines[0]["status"] == "error"
    assert lines[0]["diagnostics"]["reason"] == \
        f"k1 {k1} outside 0..{2 ** 20}"


def test_threshold_unknown_method_is_an_error(tmp_path, capsys):
    path = write(tmp_path, dict(JEEP, x=1.0, budget=2.0, method="zzz"))
    code, lines = run(capsys, ["solve", "--algo", "jeep-threshold", path])
    assert code == 1 and len(lines) == 1
    assert lines[0]["status"] == "error"
    assert "unknown method 'zzz'" in lines[0]["diagnostics"]["reason"]


# one tiny instance per tag, with the fields every algo of the tag reads
TINY = {
    "ovrp": STAR,
    "fuel": {"schema": "transopt-instance/1", "problem": "fuel", "n": 3,
             "edges": [[1, 2, 1], [1, 3, 5]], "gas": [1, 0, 4]},
    "jeep": dict(JEEP, x=1.0, k=4, budget=2.0),
    "jeep-graph": JEEP_GRAPH,
    "hampath": dict(SQUARE, start=1),
    "curve": CURVE,
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_unexpected_exception_is_one_internal_envelope(tmp_path, capsys,
                                                         monkeypatch, jobs):
    from transopt import fuel

    def broken(inst):
        raise RuntimeError("boom")
    monkeypatch.setattr(fuel, "min_initial_fuel", broken)
    files = [write(tmp_path, TINY["fuel"], "fuel.json"), write(tmp_path, STAR)]
    code = main(["solve", "--jobs", jobs, *files])
    out, err = capsys.readouterr()
    bad, good = [json.loads(l) for l in out.splitlines()]
    assert code == 1 and good["status"] == "ok"
    assert (bad["status"], bad["solver"]) == ("error", "fuel")
    assert bad["diagnostics"] == {"reason": "RuntimeError: boom",
                                  "internal": True}
    if jobs == "1":  # a worker's stderr is its own
        assert "Traceback" in err and "RuntimeError: boom" in err


def test_problem_table_names_each_algo_once():
    assert set(cli.PROBLEMS) == set(TINY)
    assert len(cli.ALGOS) == sum(len(algos) for algos, _ in cli.PROBLEMS.values())
    assert set(SOLVER_ATTRS) == set(cli.ALGOS)


@pytest.mark.parametrize("algo", list(cli.ALGOS))
def test_every_algo_solves_its_tag_and_rejects_the_others(tmp_path, capsys,
                                                          algo):
    tag = cli.ALGOS[algo]
    code, lines = run(capsys, ["solve", "--algo", algo,
                               write(tmp_path, TINY[tag])])
    assert code == 0 and len(lines) == 1
    assert lines[0]["status"] == "ok" and lines[0]["solver"] == algo
    for other, payload in TINY.items():
        if other == tag:
            continue
        code, lines = run(capsys, ["solve", "--algo", algo,
                                   write(tmp_path, payload, f"{other}.json")])
        assert code == 1 and len(lines) == 1 and lines[0]["solver"] == algo
        assert lines[0]["diagnostics"]["reason"] == (
            f"field 'problem' is {other!r} but algo {algo!r} expects {tag!r}")


@pytest.mark.parametrize("tag", list(TINY))
def test_oracle_runs_on_every_tag(tmp_path, capsys, tag):
    code = main(["oracle", write(tmp_path, TINY[tag])])
    out, err = capsys.readouterr()
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 1 and err == "" and lines[0]["solver"] == "oracle"
    if tag == "jeep-graph":  # no brute-force reference yet
        assert code == 1 and lines[0]["status"] == "error"
    else:
        assert code == 0 and lines[0]["status"] == "ok"


# the module attribute each algo (or each tag's oracle) runs
SOLVER_ATTRS = {
    "ovrp-interval": ("ovrp", "solve_leaf_interval"),
    "ovrp-greedy": ("ovrp", "solve_greedy"),
    "ovrp-dp1": ("ovrp", "solve_knapsack_v1"),
    "ovrp-dp2": ("ovrp", "solve_knapsack_v2"),
    "fuel": ("fuel", "min_initial_fuel"),
    "jeep-exact": ("jeep", "eval_subdivision_exact"),
    "jeep-fast": ("jeep", "eval_equal_fast"),
    "jeep-threshold": ("jeep", "threshold_search"),
    "jeep-graph-backward": ("jeep", "graph_min_gas_backward"),
    "jeep-graph-binary": ("jeep", "graph_min_gas_binary_forward"),
    "jeep-graph-free": ("jeep", "graph_free_depots"),
    "jeep-graph-vertex": ("jeep", "graph_vertex_depots_continuous"),
    "hampath-free": ("hampath", "shortest_ham_path_free_start"),
    "hampath-fixed": ("hampath", "shortest_ham_path_fixed_start"),
    "curve-weighted": ("hampath", "curve_weighted_ham_path"),
    "curve": ("hampath", "curve_ham_path"),
}
ORACLE_ATTRS = {"ovrp": "ovrp_brute", "fuel": "fuel_brute",
                "jeep": "jeep_simulate_plan", "hampath": "ham_brute",
                "curve": "curve_zigzag_brute"}


@pytest.mark.parametrize("algo, tag, module, attr", [
    (algo, cli.ALGOS[algo], module, attr)
    for algo, (module, attr) in SOLVER_ATTRS.items()] + [
    ("oracle", tag, "oracles", attr) for tag, attr in ORACLE_ATTRS.items()])
def test_solvers_are_looked_up_at_call_time(tmp_path, capsys, monkeypatch,
                                            algo, tag, module, attr):
    mod = importlib.import_module(f"transopt.{module}")
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return fn(*args, **kwargs)

    fn = getattr(mod, attr)
    monkeypatch.setattr(mod, attr, wrapper)
    argv = ["oracle"] if algo == "oracle" else ["solve", "--algo", algo]
    code, lines = run(capsys, argv + [write(tmp_path, TINY[tag])])
    assert code == 0 and lines[0]["solver"] == algo
    assert calls == [attr]


# the constructor that builds each tag's instance
INSTANCE_BUILDERS = {"ovrp": ("tree", "build_rooted_tree"),
                     "fuel": ("tree", "build_rooted_tree"),
                     "jeep": ("jeep", "Subdivision"),
                     "jeep-graph": ("jeep", "JeepGraph"),
                     "hampath": ("hampath", "SimplePolygon"),
                     "curve": ("hampath", "CurveInstance")}


@pytest.mark.parametrize("tag", list(TINY))
def test_check_parses_and_builds_each_instance_once(tmp_path, capsys,
                                                   monkeypatch, tag):
    calls = []
    for module, attr in set(INSTANCE_BUILDERS.values()):
        mod = importlib.import_module(f"transopt.{module}")

        def counted(*args, _fn=getattr(mod, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    code, lines = run(capsys, ["check", write(tmp_path, TINY[tag])])
    assert len(lines) == 1 and calls == [INSTANCE_BUILDERS[tag][1]]
    if tag == "jeep-graph":  # no brute-force reference yet
        assert code == 1 and lines[0]["diagnostics"]["reason"] == \
            "no oracle for problem 'jeep-graph'"
    else:
        assert code == 0 and lines[0]["agreement"] is True


@pytest.mark.parametrize("command", ["check", "oracle", "solve"])
def test_a_jeep_file_runs_method_1_once(tmp_path, capsys, monkeypatch,
                                        command):
    # check's oracle replays the plans the solver just made
    from transopt import jeep
    calls = []

    def counted(*args, _fn=jeep.eval_subdivision_exact, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(jeep, "eval_subdivision_exact", counted)
    code, lines = run(capsys, [command, write(tmp_path, TINY["jeep"])])
    assert code == 0 and len(lines) == 1 and len(calls) == 1
    if command == "check":
        assert lines[0]["agreement"] is True
        assert lines[0]["solution"]["plans"]


@pytest.mark.parametrize("tag", ["ovrp", "fuel", "jeep-graph"])
def test_the_parse_takes_the_edge_list_out_of_the_payload(tag):
    payload = json.loads(json.dumps(TINY[tag]))
    cli._parse(payload, cli.PROBLEMS[tag][0][0])
    assert "edges" not in payload and "n" in payload


class _Edges(list):
    """A list that can be weakly referenced."""


needs_handover = pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before CPython 3.11 the caller's frame holds a call's arguments until "
    "it returns, so the build cannot free a handed-over list"))


@needs_handover
def test_a_handed_over_edge_list_is_freed_before_the_dfs():
    seen = []

    def freed(_):
        frame = sys._getframe(1)  # the frame that dropped the last reference
        seen.append((frame.f_code, set(frame.f_locals)))

    def handed_over():
        edges = _Edges([[1, 2, 1], [1, 3, 5], [3, 4, 2.5]])
        seen.append(weakref.ref(edges, freed))
        return edges

    payload = {"n": 4, "edges": handed_over()}
    built = cli._tree_from(payload)
    assert built.post == (2, 4, 3, 1) and "edges" not in payload
    ref, (code, names) = seen
    assert ref() is None
    # freed inside the build, once the typed-array adjacency holds the edges
    # and before the DFS
    assert code is tree.build_rooted_tree.__code__
    assert {"nbr", "wt"} <= names and not names & {"start", "parent"}


@needs_handover
def test_a_bushy_fuel_parse_and_solve_stays_under_its_memory_bound():
    # The traced peak counts what the parse, the tree build and the solve
    # allocate beside the JSON payload, made before tracing starts: 265
    # bytes per vertex with per-vertex adjacency lists and float lists for
    # gas, profit and need, 219 with the typed-array adjacency and float64
    # columns.
    n = 20_000
    rng = random.Random(20)
    payload = {"problem": "fuel", "n": n,
               "edges": [[rng.randint(1, i - 1), i, rng.randint(1, 9)]
                         for i in range(2, n + 1)],
               "gas": [rng.randint(0, 9) for _ in range(n)]}
    tracemalloc.start()
    try:
        cli._parse(payload, "fuel")("fuel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 245


# Values each field other than the edge list is set to, one field at a
# time: wrong types and shapes, then numbers at the edges of the float range
# and, as JSON integers, past it.  Count fields only reach 0, -1 or past the
# float range, so no input asks for a huge allocation.
ODD_FIELD_VALUES = [None, True, "a", [], [[1, 2, 3]], 0, -1, 0.5, 5e-324,
                    1e308, 10 ** 400, -10 ** 400]
# per tag, a payload with every field its algos read ("points" is added)
FIELD_BASES = {
    "ovrp": dict(STAR, root=1),
    "fuel": dict(TINY["fuel"], root=1),
    "jeep": dict(TINY["jeep"], mode="faithful", schedule="multiplicative",
                 ct=2, k1=0, method="exact"),
    "jeep-graph": dict(JEEP_GRAPH, source=1, target=3, k_per_edge=1),
    "hampath": TINY["hampath"],
    "curve": dict(CURVE, start=0),
}


@pytest.mark.parametrize("tag", list(FIELD_BASES))
def test_every_non_edge_field_gives_one_strict_envelope(tmp_path, capsys, tag):
    base = FIELD_BASES[tag]
    fields = [f for f in base if f not in ("schema", "problem", "edges")]
    if tag == "jeep":
        fields.append("points")
    commands = [["solve", "--algo", algo] for algo in cli.PROBLEMS[tag][0]]
    commands += [["oracle"], ["check"]]
    for field in fields:
        for value in ODD_FIELD_VALUES:
            path = write(tmp_path, dict(base, **{field: value}))
            for command in commands:
                code = main(command + [path])
                out, err = capsys.readouterr()
                lines = out.splitlines()
                where = (field, value, command)
                assert code in (0, 1, 2) and len(lines) == 1 and err == "", where
                env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(
                    f"{c} in the envelope of {where}"))
                assert env["schema"] == "transopt-result/1", where
                assert env["status"] in ("ok", "error", "infeasible"), where
                assert "internal" not in env.get("diagnostics", {}), where


# Arbitrary JSON for the edge-list fields, and edge lists close to a tree:
# right-shaped entries with odd vertices or lengths, extra edges that close
# a cycle or repeat an edge, n and root off by a little or of any type.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
ODD_LENGTHS = st.sampled_from([-1, -0.0, 1e308, 10 ** 308, 10 ** 400,
                               -10 ** 400, math.nan, math.inf, True])
VERTICES = st.integers(-1, 9)


def _mostly(draw, good, bad):
    """A draw from ``good`` about four times in five, else from ``bad``."""
    return draw(draw(st.sampled_from((good,) * 4 + (bad,))))


@st.composite
def edge_list_fields(draw, tag):
    n = draw(st.integers(1, 8))
    lengths = st.integers(0, 9) | st.floats(0, 10)
    edges = [[draw(st.integers(1, v - 1)), v, _mostly(draw, lengths, ODD_LENGTHS)]
             for v in range(2, n + 1)]
    edges = draw(st.permutations(edges)) + draw(st.lists(
        st.tuples(VERTICES, VERTICES, lengths).map(list) | JSON_VALUES,
        max_size=1))
    fields = {"n": _mostly(draw, st.just(n), VERTICES | JSON_VALUES),
              "edges": _mostly(draw, st.just(edges), JSON_VALUES)}
    root = _mostly(draw, st.none() | st.integers(1, n), VERTICES | JSON_VALUES)
    if root is not None:
        fields["root"] = root
    if tag == "ovrp":
        fields["p"] = draw(st.integers(1, 3))
    elif tag == "fuel":
        fields["gas"] = _mostly(draw, st.lists(st.integers(0, 9), min_size=n,
                                               max_size=n), JSON_VALUES)
    else:
        fields.update(m=1.0, g=1.0)
    return fields


@pytest.mark.parametrize("tag", ["ovrp", "fuel", "jeep-graph"])
def test_every_edge_list_gives_one_strict_envelope(tmp_path, capsys, tag):
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edge_list_fields(tag))
    def one_input(fields):
        path = write(tmp_path, {"schema": "transopt-instance/1",
                                "problem": tag, **fields})
        for command in ("solve", "oracle", "check"):
            code = main([command, path])
            out, err = capsys.readouterr()
            lines = out.splitlines()
            assert code in (0, 1, 2) and len(lines) == 1 and err == "", command
            env = json.loads(lines[0], parse_constant=lambda c: pytest.fail(c))
            assert env["schema"] == "transopt-result/1"
            assert env["status"] in ("ok", "error", "infeasible")
            assert "internal" not in env.get("diagnostics", {}), command

    one_input()
