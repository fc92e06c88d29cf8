import gc
import importlib
import json
import math
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


def test_check_eps_env(tmp_path, capsys, monkeypatch):
    inst = {"schema": "transopt-instance/1", "problem": "curve",
            "gaps": [1, 2, 3, 4], "weights": [1, 1, 1, 1]}
    monkeypatch.setenv("TRANSOPT_EPS", "1e-12")
    code, lines = run(capsys, ["check", write(tmp_path, inst)])
    assert code == 0 and lines[0]["agreement"] is True


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


L_SHAPE = {"schema": "transopt-instance/1", "problem": "hampath",
           "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
           "start": 2}


def test_solve_default_algo_honors_hampath_start(tmp_path, capsys):
    code, lines = run(capsys, ["solve", write(tmp_path, L_SHAPE)])
    assert code == 0
    assert lines[0]["solver"] == "hampath-fixed"
    assert lines[0]["solution"]["path"][0] == 2


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
}


# gaps that sum past the float range are rejected with the curve itself,
# before any algo or the oracle runs
OVERFLOW_REASON = {"curve": "gaps must sum to a finite number"}


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
], ids=["graph-target", "graph-source", "fast-x0", "fast-k-1", "fast-x-1",
        "threshold-below-optimum", "vertex-k-past-float-range"])
def test_jeep_out_of_range_gives_one_envelope(tmp_path, capsys, payload, algo):
    t0 = time.perf_counter()
    code, lines = run(capsys, ["solve", "--algo", algo, write(tmp_path, payload)])
    assert time.perf_counter() - t0 < 2.0
    assert code in (1, 2) and len(lines) == 1
    assert lines[0]["schema"] == "transopt-result/1"
    assert lines[0]["status"] == {1: "error", 2: "infeasible"}[code]
    assert lines[0]["diagnostics"]["reason"]


@pytest.mark.parametrize("algo", ["ovrp-dp1", "ovrp-dp2"])
def test_ovrp_dp_vehicle_count_beyond_leaves(tmp_path, capsys, algo):
    t0 = time.perf_counter()
    code, lines = run(capsys, ["solve", "--algo", algo,
                               write(tmp_path, dict(STAR, p=10 ** 6))])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0 and len(lines) == 1
    assert lines[0]["objective"] == 5.0  # one vehicle per leaf: 2 + 3


CURVE = {"schema": "transopt-instance/1", "problem": "curve",
         "gaps": [1, 2, 3, 4], "weights": [1, 1, 1, 1]}


@pytest.mark.parametrize("value", ["abc", "nan", "0", "-1", "inf"])
@pytest.mark.parametrize("payload, argv", [
    (CURVE, ["check"]),
    (JEEP_GRAPH, ["solve", "--algo", "jeep-graph-binary"]),
], ids=["check", "jeep-graph-binary"])
def test_bad_eps_env_gives_one_error_envelope(tmp_path, capsys, monkeypatch,
                                              value, payload, argv):
    monkeypatch.setenv("TRANSOPT_EPS", value)
    t0 = time.perf_counter()
    code = main(argv + [write(tmp_path, payload)])
    assert time.perf_counter() - t0 < 2.0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and err == ""
    env = json.loads(lines[0])
    assert env["schema"] == "transopt-result/1" and env["status"] == "error"
    assert "TRANSOPT_EPS" in env["diagnostics"]["reason"]


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


@pytest.mark.parametrize("tag", ["ovrp", "fuel", "jeep-graph"])
def test_the_parse_takes_the_edge_list_out_of_the_payload(tag):
    payload = json.loads(json.dumps(TINY[tag]))
    cli._parse(payload, cli.PROBLEMS[tag][0][0])
    assert "edges" not in payload and "n" in payload


class _Edges(list):
    """A list that can be weakly referenced."""


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before CPython 3.11 the caller's frame holds a call's arguments until "
    "it returns, so the build cannot free a handed-over list"))
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
    # freed inside the build, after its adjacency loop and before the DFS
    assert code is tree.build_rooted_tree.__code__
    assert "adj" in names and "parent" not in names


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

    one_input()
