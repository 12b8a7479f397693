"""File format and command-line driver tests."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    DomainViolation,
    DuplicateEdge,
    IndexOutOfRange,
    IoError,
    MissingVertex,
    NonPositiveWeight,
    ParseError,
    RunConfig,
    SchemeParams,
    SelfLoop,
    cli_main,
    parse_field_file,
    parse_graph_file,
    run_multiclass_trajectory,
    run_trajectory,
    write_outputs,
)
from graphphase.graph_core import spectral_decompose

P2_GRAPH = "vertices 2 r 0\n0 1 1.0\n"
P2_INIT = "0 1.0\n1 0.0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _p2_files(tmp_path):
    return (
        _write(tmp_path, "p2.graph", P2_GRAPH),
        _write(tmp_path, "p2.init", P2_INIT),
    )


def test_parse_graph_minimal(tmp_path):
    path = _write(tmp_path, "g.txt", P2_GRAPH)
    g = parse_graph_file(path)
    assert g.num_vertices == 2
    assert g.r == 0.0
    assert_allclose(g.degrees, [1.0, 1.0])


def test_parse_graph_skips_comments_and_blanks(tmp_path):
    text = "# a graph\n\nvertices 3 r 0.5\n0 1 2.0\n# middle\n1 2 0.5\n\n"
    g = parse_graph_file(_write(tmp_path, "g.txt", text))
    assert g.num_vertices == 3
    assert g.r == 0.5
    assert g.weights[0, 1] == 2.0
    assert g.weights[1, 2] == 0.5


@pytest.mark.parametrize(
    "text,exc",
    [
        ("0 1 1.0\n", ParseError),
        ("vertices two r 0\n0 1 1.0\n", ParseError),
        ("vertices 2 q 0\n0 1 1.0\n", ParseError),
        ("vertices 2 r 0\n0 1\n", ParseError),
        ("vertices 2 r 0\n0 one 1.0\n", ParseError),
        ("vertices 2 r 0\n0 0 1.0\n", SelfLoop),
        ("vertices 2 r 0\n0 1 -1.0\n", NonPositiveWeight),
        ("vertices 2 r 0\n0 2 1.0\n", IndexOutOfRange),
        ("vertices 3 r 0\n0 1 1.0\n1 0 2.0\n0 2 1.0\n", DuplicateEdge),
        ("", ParseError),
    ],
)
def test_parse_graph_rejects(tmp_path, text, exc):
    path = _write(tmp_path, "bad.txt", text)
    with pytest.raises(exc):
        parse_graph_file(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    text = "vertices 3 r 0\n0 1 1.0\n0 1 2.0\n1 2 1.0\n"
    with pytest.raises(DuplicateEdge) as info:
        parse_graph_file(_write(tmp_path, "dup.txt", text))
    assert info.value.line == 3
    assert str(info.value).startswith("line 3:")


def test_parse_field_two_class(tmp_path):
    g = parse_graph_file(_write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n"))
    # rows may come in any order; the index column decides placement
    path = _write(tmp_path, "u.txt", "2 0.25\n0 1.0\n1 0.0\n")
    u = parse_field_file(path, g)
    assert_allclose(u, [1.0, 0.0, 0.25])


@pytest.mark.parametrize(
    "text,exc",
    [
        ("0 1.5\n1 0.0\n", DomainViolation),
        ("0 -0.1\n1 0.0\n", DomainViolation),
        ("0 1.0\n", MissingVertex),
        ("0 1.0\n0 0.0\n1 0.0\n", ParseError),
        ("0 1.0 extra\n1 0.0\n", ParseError),
        ("0 abc\n1 0.0\n", ParseError),
        ("5 1.0\n1 0.0\n", ParseError),
    ],
)
def test_parse_field_rejects(tmp_path, text, exc):
    g = parse_graph_file(_write(tmp_path, "g.txt", P2_GRAPH))
    path = _write(tmp_path, "bad.txt", text)
    with pytest.raises(exc):
        parse_field_file(path, g)


def test_parse_field_multiclass_renormalizes_exactly(tmp_path):
    g = parse_graph_file(_write(tmp_path, "g.txt", P2_GRAPH))
    # rows sum to 1 only within 1e-8; parsed rows must sum to 1 exactly
    text = "0 0.700000001 0.2 0.1\n1 0.1 0.3 0.599999999\n"
    field = parse_field_file(_write(tmp_path, "u.txt", text), g, 3)
    assert (field.values.sum(axis=1) == 1.0).all()
    assert field.num_classes == 3


def test_parse_field_multiclass_reports_bad_row(tmp_path):
    g = parse_graph_file(_write(tmp_path, "g.txt", P2_GRAPH))
    text = "0 0.5 0.4\n1 0.5 0.5\n"
    with pytest.raises(ParseError) as info:
        parse_field_file(_write(tmp_path, "u.txt", text), g, 2)
    assert info.value.line == 1
    assert "vertex 0" in str(info.value)


def test_run_config_validates_per_mode():
    with pytest.raises(ValueError):
        RunConfig(mode="warp")
    with pytest.raises(ValueError):
        RunConfig(mode="sd", graph_path="g", init_path="u", output_dir="o")
    with pytest.raises(ValueError):
        RunConfig(mode="sweep-lambda", graph_path="g", init_path="u",
                  output_dir="o", tau=0.1, lambda_list=())
    RunConfig(mode="oracle-check", seed=3)


def test_log_csv_header_and_step_rows(tmp_path):
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "out"
    code = cli_main([
        "run", "--graph", graph, "--init", init, "--mode", "sd",
        "--eps", "1.0", "--tau", "0.5", "--steps", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "log.csv").read_text().splitlines()
    assert lines[0] == "step,mass,H,H_tau,GL,max_change,multiplier"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[5] == "" and first[6] == ""
    second = lines[2].split(",")
    assert second[0] == "1"
    assert float(second[6]) == pytest.approx(0.25, abs=1e-12)


def test_two_class_round_trip_is_bitwise(tmp_path):
    graph, init = _p2_files(tmp_path)
    g = parse_graph_file(graph)
    s = spectral_decompose(g)
    params = SchemeParams.from_epsilon(1.0, 0.5)
    traj = run_trajectory(parse_field_file(init, g), g, s, params, max_steps=4)
    write_outputs(traj, str(tmp_path / "rt"), "sd", {})
    back = parse_field_file(str(tmp_path / "rt" / "final_state.txt"), g)
    assert (back == traj.final_state).all()


def test_multiclass_round_trip_is_stable(tmp_path):
    # the first parse may renormalize away sub-1e-8 row dust; after that,
    # write and parse must reproduce each other exactly
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    g = parse_graph_file(graph)
    s = spectral_decompose(g)
    params = SchemeParams.from_epsilon(1.0, 0.2)
    text = "0 0.7 0.2 0.1\n1 0.3 0.4 0.3\n2 0.1 0.2 0.7\n"
    field = parse_field_file(_write(tmp_path, "u.txt", text), g, 3)
    traj = run_multiclass_trajectory(field, g, s, params, max_steps=3)
    write_outputs(traj, str(tmp_path / "a"), "multiclass-msd", {})
    once = parse_field_file(str(tmp_path / "a" / "final_state.txt"), g, 3)
    write_outputs(
        run_multiclass_trajectory(once, g, s, params, max_steps=0),
        str(tmp_path / "b"), "multiclass-msd", {},
    )
    twice = parse_field_file(str(tmp_path / "b" / "final_state.txt"), g, 3)
    assert (once.values == twice.values).all()
    assert (twice.values.sum(axis=1) == 1.0).all()
    write_outputs(
        run_multiclass_trajectory(twice, g, s, params, max_steps=0),
        str(tmp_path / "c"), "multiclass-msd", {},
    )
    second = (tmp_path / "b" / "final_state.txt").read_bytes()
    third = (tmp_path / "c" / "final_state.txt").read_bytes()
    assert second == third


def test_sweep_report_schema(tmp_path):
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "sweep"
    code = cli_main([
        "sweep-lambda", "--graph", graph, "--init", init,
        "--tau", "0.3", "--lambdas", "0.5,0.9", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert set(doc) == {"mode", "params", "rows"}
    assert doc["mode"] == "sweep-lambda"
    assert set(doc["rows"]) == {"0.5", "0.90000000000000002"}
    for row in doc["rows"].values():
        assert set(row) == {"sup_distance_to_mbo"}
        assert row["sup_distance_to_mbo"] >= 0.0


def test_converge_report_distance_matrix(tmp_path):
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "conv"
    code = cli_main([
        "converge-tau", "--graph", graph, "--init", init, "--eps", "1.0",
        "--t-final", "0.5", "--taus", "0.01,0.005,0.0025",
        "--grid-points", "5", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    matrix = rows["matched_distance_matrix"]
    assert len(matrix) == 2
    assert all(len(line) == len(rows["grid_times"]) for line in matrix)
    assert rows["matched_distances"] == [max(line) for line in matrix]
    assert len(rows["distance_ratios"]) == 1
    assert set(rows) == {
        "taus",
        "step_counts",
        "grid_times",
        "matched_distance_matrix",
        "matched_distances",
        "distance_ratios",
        "gl_grid_values",
        "gl_step_min_slack",
        "gl_max_rise",
        "lipschitz_quotient",
        "lipschitz_bound",
        "hoelder_ratio",
        "hoelder_coefficient",
        "energy_gaps",
        "energy_gap_bounds",
    }


def test_sweep_report_params_carry_the_flags(tmp_path):
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "sweep"
    code = cli_main([
        "sweep-lambda", "--graph", graph, "--init", init, "--seed", "11",
        "--tau", "0.3", "--lambdas", "0.5,0.9", "--group-tol", "1e-9",
        "--out", str(out),
    ])
    assert code == 0
    params = json.loads((out / "report.json").read_text())["params"]
    assert params == {
        "seed": 11,
        "tau": 0.3,
        "lambdas": [0.5, 0.9],
        "group_tol": 1e-9,
        "fp_tol": 1e-10,
        "max_iter": 500,
        "grid_points": 9,
    }


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("group_tol", ["nan", "inf", "-0.001"])
def test_cli_rejects_bad_group_tol(tmp_path, capsys, group_tol):
    graph, init = _p2_files(tmp_path)
    common = ["--graph", graph, "--init", init, "--tau", "0.3",
              "--group-tol", group_tol, "--out", str(tmp_path / "o")]
    assert cli_main(["run", *common, "--eps", "1.0", "--steps", "2"]) == 1
    assert _last_error(capsys)["error"] == "ValueError"
    assert cli_main(["run", *common, "--mode", "mbo", "--steps", "2"]) == 1
    assert _last_error(capsys)["error"] == "ValueError"
    assert cli_main(["sweep-lambda", *common, "--lambdas", "0.5"]) == 1
    assert "group_tol" in _last_error(capsys)["message"]


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_cli_rejects_empty_oracle_check(capsys, instances):
    assert cli_main(["oracle-check", "--instances", instances]) == 1
    captured = capsys.readouterr()
    assert "passed" not in captured.out
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "instance" in err["message"]
    with pytest.raises(ValueError):
        RunConfig(mode="oracle-check", instances=0)


def test_cli_classes_flag_sets_the_state_width(tmp_path, capsys):
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 0.7 0.2 0.1\n1 0.3 0.4 0.3\n2 0.1 0.2 0.7\n")
    args = ["multiclass", "--graph", graph, "--init", init, "--eps", "0.4",
            "--tau", "0.2", "--steps", "1"]
    assert cli_main(args + ["--classes", "3", "--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--classes", "2", "--out", str(tmp_path / "b")]) == 1
    err = _last_error(capsys)
    assert err["error"] == "ParseError"
    assert "2 value(s)" in err["message"]
    assert not (tmp_path / "b").exists()


def test_cli_missing_graph_flag_shows_usage(tmp_path, capsys):
    code = cli_main(["run", "--init", "u.txt", "--tau", "0.5",
                     "--steps", "1", "--out", "o"])
    assert code == 1
    assert "--graph" in capsys.readouterr().err


def test_cli_validation_failures_exit_one(tmp_path, capsys):
    graph, init = _p2_files(tmp_path)
    # negative step size fails parameter validation
    code = cli_main([
        "run", "--graph", graph, "--init", init, "--eps", "1.0",
        "--tau", "-0.5", "--steps", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"

    code = cli_main([
        "run", "--graph", str(tmp_path / "absent.graph"), "--init", init,
        "--eps", "1.0", "--tau", "0.5", "--steps", "1",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "IoError"


def test_cli_unconverged_solve_exits_two_with_outputs(tmp_path, capsys):
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 1.0 0.0\n1 0.5 0.5\n2 0.0 1.0\n")
    out = tmp_path / "out"
    code = cli_main([
        "multiclass", "--graph", graph, "--init", init, "--eps", "0.4",
        "--tau", "0.2", "--steps", "2", "--out", str(out),
        "--max-iter", "1", "--fp-tol", "1e-16",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NumericalError"
    # best iterates are still written for inspection
    assert (out / "log.csv").exists()
    assert (out / "final_state.txt").exists()


def test_cli_repeated_runs_are_byte_identical(tmp_path):
    graph, init = _p2_files(tmp_path)
    args = ["run", "--graph", graph, "--init", init, "--mode", "sd",
            "--eps", "1.0", "--tau", "0.5", "--steps", "5", "--seed", "9"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("log.csv", "final_state.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_oracle_check_reports_pass_count(capsys):
    code = cli_main(["oracle-check", "--seed", "7", "--instances", "4"])
    assert code == 0
    assert "oracle-check passed 12/12" in capsys.readouterr().out


def test_write_outputs_rejects_unwritable_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    graph, init = _p2_files(tmp_path)
    g = parse_graph_file(graph)
    s = spectral_decompose(g)
    params = SchemeParams.from_epsilon(1.0, 0.5)
    traj = run_trajectory(parse_field_file(init, g), g, s, params, max_steps=1)
    with pytest.raises(IoError):
        write_outputs(traj, str(blocker), "sd", {})
