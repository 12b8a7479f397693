"""File format and command-line driver tests."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphphase import (
    DisconnectedGraph,
    DomainViolation,
    DuplicateEdge,
    Graph,
    IndexOutOfRange,
    IoError,
    MissingVertex,
    NonPositiveWeight,
    ParseError,
    SchemeParams,
    SelfLoop,
    SimplexField,
    ValidationError,
    build_graph,
    cli_main,
    parse_field_file,
    parse_graph_file,
    run_multiclass_trajectory,
    run_trajectory,
    write_outputs,
)
from graphphase import io_cli
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
    assert g.edges == ((0, 1, 2.0), (1, 2, 0.5))


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
    # build_graph finds the repeat; the line numbers count comments and
    # blank lines, and the edge is named in ascending order
    text = "vertices 3 r 0\n# c\n1 0 1.0\n\n1 2 1.0\n0 1 2.0\n"
    with pytest.raises(DuplicateEdge) as info:
        parse_graph_file(_write(tmp_path, "dup.txt", text))
    assert info.value.line == 6
    assert str(info.value) == "line 6: edge (0, 1) already given on line 3"


def test_parse_graph_reports_build_graph_categories_first(tmp_path):
    # the edge checks run by category: a self loop anywhere is reported
    # before a repeated edge, though the repeat comes first in the file
    text = "vertices 3 r 0\n0 1 1\n1 2 1\n0 1 -1\n0 0 1\n"
    with pytest.raises(SelfLoop, match="self loop at vertex 0"):
        parse_graph_file(_write(tmp_path, "g.txt", text))
    # syntax errors come before every edge check, wherever they are
    text = "vertices 3 r 0\n0 0 1\n0 1 1\n0 1 x\n"
    with pytest.raises(ParseError) as info:
        parse_graph_file(_write(tmp_path, "g.txt", text))
    assert info.value.line == 4


def test_cli_refuses_indices_beyond_int64(tmp_path, capsys):
    # the integer parses; the range checks refuse it, with a JSON error line
    big = "100000000000000000000"
    args = ["run", "--mode", "mbo", "--tau", "0.3", "--steps", "1",
            "--out", str(tmp_path / "o")]
    graph = _write(tmp_path, "g.txt", f"vertices 3 r 0\n0 1 1.0\n1 {big} 1.0\n")
    init = _write(tmp_path, "u.txt", P2_INIT)
    assert cli_main(args + ["--graph", graph, "--init", init]) == 1
    error = _last_error(capsys)
    assert error["error"] == "IndexOutOfRange"
    assert error["message"] == "edge (1, 1e+20) outside 0..2"
    graph, _ = _p2_files(tmp_path)
    init = _write(tmp_path, "u.txt", f"0 1.0\n{big} 0.0\n")
    assert cli_main(args + ["--graph", graph, "--init", init]) == 1
    assert _last_error(capsys) == {
        "error": "ParseError", "message": f"line 2: vertex {big} outside 0..1"
    }
    # beyond the float range too: this ended in an OverflowError traceback
    graph = _write(tmp_path, "g.txt", f"vertices 3 r 0\n0 1 1.0\n1 {'9' * 400} 1\n")
    assert cli_main(args + ["--graph", graph, "--init", init]) == 1
    error = _last_error(capsys)
    assert error["error"] == "ParseError"
    assert error["message"].startswith("line 3: edge needs two integer")
    assert not (tmp_path / "o").exists()


# numbers as endpoints, weights, vertex indices and values; numpy's C
# integer parser reads "\u01fe0" as 4620, so no text past ASCII reaches it
CORPUS_TOKENS = [
    "+5", "-0", "007", "1_0", "\u0661", "\uff11", "\u01fe0", "1.0", "1e3",
    "inf", "Infinity", "nan", "-nan", "1e500", "1e-400", ".5", "5.",
    str(2**63 - 1), str(2**63),
]
CORPUS_SEPARATORS = [
    "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000",
]
CORPUS_PATH = "vertices 12 r 0.5\n" + "".join(
    f"{v} {v + 1} 1.0\n" for v in range(11)
)
CORPUS_STATE = "".join(f"{v} 0.25\n" for v in range(12))
CORPUS_CLASSES = "".join(f"{v} 0.25 0.25 0.5\n" for v in range(12))


def _corpus():
    """(id, kind, text): graph files, two-class and three-class states."""
    cases = []
    for k, tok in enumerate(CORPUS_TOKENS):
        cases += [
            (f"endpoint{k}", "graph", CORPUS_PATH + f"{tok} 11 0.5\n"),
            (f"weight{k}", "graph", CORPUS_PATH + f"0 11 {tok}\n"),
            (f"index{k}", "state", CORPUS_STATE.replace("5 0.25", f"{tok} 0.25")),
            (f"value{k}", "state", CORPUS_STATE.replace("3 0.25", f"3 {tok}")),
            (f"class{k}", "classes",
             CORPUS_CLASSES.replace("3 0.25 0.25 0.5", f"3 0.5 0.5 {tok}")),
        ]
    for k, sep in enumerate(CORPUS_SEPARATORS):
        cases += [
            (f"sep{k}", "graph", CORPUS_PATH + f"{sep}0{sep}11{sep}0.5{sep}\n"),
            (f"sep{k}", "state",
             CORPUS_STATE.replace("3 0.25", f"{sep}3{sep}0.75{sep}")),
            (f"sep{k}", "classes", CORPUS_CLASSES.replace(" ", sep)),
        ]
    for name, text, kind in [
        ("path", CORPUS_PATH + "0 11 0.5\n", "graph"),
        ("state", CORPUS_STATE, "state"),
        ("classes", CORPUS_CLASSES, "classes"),
    ]:
        lines = text.splitlines(keepends=True)
        cases += [
            (f"{name}-cr", kind, text.replace("\n", "\r")),
            (f"{name}-crlf", kind, text.replace("\n", "\r\n")),
            (f"{name}-no-final-newline", kind, text.rstrip("\n")),
            (f"{name}-bom", kind, "\ufeff" + text),
            (f"{name}-comments-first", kind, "# a file\n\n \t\n#\n" + text),
            (f"{name}-blank-between", kind,
             "".join(lines[:3] + ["\n"] + lines[3:])),
            (f"{name}-comment-between", kind,
             "".join(lines[:3] + ["# middle\n"] + lines[3:])),
            (f"{name}-trailing-comment", kind,
             "".join(lines[:3] + [lines[3].rstrip("\n") + " # x\n"] + lines[4:])),
            (f"{name}-short-line", kind,
             "".join(lines[:3] + [lines[3].rsplit(" ", 1)[0] + "\n"] + lines[4:])),
            (f"{name}-repeat", kind, text + lines[3]),
        ]
    cases += [
        ("edge-comment", "graph", CORPUS_PATH + "0 1 1.0 # x\n"),
        ("header-only", "graph", "vertices 2 r 0\n"),
        ("header-only-blanks", "graph", "# c\nvertices 2 r 0\n\n  \n"),
        ("no-header", "graph", "# c\n\n"),
        ("empty", "state", ""),
        ("blank", "state", "\n \n"),
        ("empty", "classes", ""),
    ]
    return cases


def _outcome(read):
    """Bits of every array read, or the error's type, message and line."""
    try:
        result = read()
    except (ValidationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, Graph):
        arrays = [np.float64(result.r), np.int64(result.num_vertices),
                  result.degrees, result.degrees_r, result.edge_i,
                  result.edge_j, result.edge_w]
    else:
        arrays = [result.values if isinstance(result, SimplexField) else result]
    return [(np.asarray(a).dtype.str, np.shape(a), np.asarray(a).tobytes())
            for a in arrays]


@pytest.mark.parametrize("kind,text", [
    pytest.param(kind, text, id=f"{kind}-{name}") for name, kind, text in _corpus()
])
def test_the_c_reader_and_the_exact_reader_agree(tmp_path, monkeypatch, kind,
                                                  text):
    # every file is read as shipped, then with the C reader refusing it, so
    # the exact reader reads it alone: the arrays or the errors must match
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    graph = build_graph(12, [(v, v + 1, 1.0) for v in range(11)], r=0.5)
    read = {
        "graph": lambda: parse_graph_file(str(path)),
        "state": lambda: parse_field_file(str(path), graph),
        "classes": lambda: parse_field_file(str(path), graph, 3),
    }[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shipped = _outcome(read)
        monkeypatch.setattr(io_cli, "_c_table", lambda *args, **kwargs: None)
        assert _outcome(read) == shipped


def test_well_formed_files_skip_the_exact_reader(tmp_path, monkeypatch):
    # comments and blank lines before the header, blank lines between the
    # data, tabs and \r\n line ends are all well formed
    graph = _write(tmp_path, "g.txt",
                   "# g\n\nvertices 3 r 0.5\r\n0\t1 1.0\r\n\r\n1 2 2.5\r\n")
    state = _write(tmp_path, "u.txt", "2 0.25\n\n0 1\n1 0.0\n")
    classes = _write(tmp_path, "v.txt", "0 0.5 0.5\n1 1 0\n2 0.25 0.75\n")

    def refuse(path):
        raise AssertionError(f"the exact reader read {path}")

    monkeypatch.setattr(io_cli, "_tokens", refuse)
    g = parse_graph_file(graph)
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5)) and g.r == 0.5
    assert parse_field_file(state, g).tolist() == [1.0, 0.0, 0.25]
    field = parse_field_file(classes, g, 2)
    assert field.values.tolist() == [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]


@pytest.mark.parametrize(
    "text,classes,exc,message",
    [
        ("0 1.0\n5 0.0\n", None, ParseError, "line 2: vertex 5 outside 0..1"),
        ("0 1.0\n0 0.0\n1 0.0\n", None, ParseError,
         "line 2: vertex 0 already given on line 1"),
        ("0 0.5 0.5\n\n1 0.5 0.25\n", 2, ParseError,
         "line 3: row for vertex 1 sums to 0.75, expected 1"),
        ("", None, MissingVertex, "no value for vertex 0"),
    ],
)
def test_state_errors_after_a_clean_c_read_name_their_lines(
    tmp_path, text, classes, exc, message
):
    # no comment lines: the C reader accepts these files (or, empty, finds
    # no data), and the exact reader only supplies the line numbers
    g = parse_graph_file(_write(tmp_path, "g.txt", P2_GRAPH))
    path = _write(tmp_path, "u.txt", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of no data
        with pytest.raises(exc) as info:
            parse_field_file(path, g, classes)
    assert str(info.value) == message


def test_graph_errors_after_a_clean_c_read_name_their_lines(tmp_path, capsys):
    text = "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n1 0 2.0\n"
    with pytest.raises(DuplicateEdge) as info:
        parse_graph_file(_write(tmp_path, "dup.txt", text))
    assert info.value.line == 4
    assert str(info.value) == "line 4: edge (0, 1) already given on line 2"
    # a header with no edges: no warning, and one JSON line on stderr
    graph = _write(tmp_path, "g.txt", "vertices 2 r 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DisconnectedGraph):
            parse_graph_file(graph)
    init = _write(tmp_path, "u.txt", P2_INIT)
    assert cli_main(["run", "--graph", graph, "--init", init, "--mode", "mbo",
                     "--tau", "0.3", "--steps", "1",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DisconnectedGraph"


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
        # NaN compares false with both bounds, and once slipped through
        ("0 nan\n1 0.0\n", DomainViolation),
        ("0 1.0\n1 inf\n", DomainViolation),
        ("0 -inf\n1 0.0\n", DomainViolation),
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


@pytest.mark.parametrize("value", ["0.4", "nan", "inf", "-inf"])
def test_parse_field_multiclass_names_the_line_of_a_bad_row(tmp_path, value):
    # a NaN row sum compared false with the tolerance and once slipped through
    g = parse_graph_file(_write(tmp_path, "g.txt", P2_GRAPH))
    text = f"1 0.5 0.5\n# c\n0 0.5 {value}\n"
    with pytest.raises(ParseError) as info:
        parse_field_file(_write(tmp_path, "u.txt", text), g, 2)
    assert info.value.line == 3
    assert "row for vertex 0 sums to" in str(info.value)


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
        "sweep-lambda", "--graph", graph, "--init", init,
        "--tau", "0.3", "--lambdas", "0.5,0.9", "--out", str(out),
    ])
    assert code == 0
    params = json.loads((out / "report.json").read_text())["params"]
    assert params == {"tau": 0.3, "lambdas": [0.5, 0.9]}


def test_converge_report_params_carry_the_flags(tmp_path):
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "conv"
    code = cli_main([
        "converge-tau", "--graph", graph, "--init", init, "--eps", "1.0",
        "--t-final", "0.4", "--taus", "0.2,0.1", "--out", str(out),
    ])
    assert code == 0
    params = json.loads((out / "report.json").read_text())["params"]
    assert params == {
        "epsilon": 1.0,
        "t_final": 0.4,
        "taus": [0.2, 0.1],
        "grid_points": 9,
    }


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("group_tol", ["1e-12", "nan", "inf", "-0.001"])
def test_cli_refuses_group_tol_flag(tmp_path, capsys, group_tol):
    # the tie tolerance is the constant GROUP_TOL: the flag is unknown,
    # whatever its value, and nothing is written
    graph, init = _p2_files(tmp_path)
    common = ["--graph", graph, "--init", init, "--tau", "0.3",
              "--group-tol", group_tol, "--out", str(tmp_path / "o")]
    assert cli_main(["run", *common, "--eps", "1.0", "--steps", "2"]) == 1
    assert cli_main(["run", *common, "--mode", "mbo", "--steps", "2"]) == 1
    assert cli_main(["sweep-lambda", *common, "--lambdas", "0.5"]) == 1
    assert "--group-tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_refuses_missing_eps_and_empty_lists(tmp_path, capsys):
    # argparse cannot refuse these: the command or the library does, with a
    # ValueError that names what is missing, and nothing is written
    graph, init = _p2_files(tmp_path)
    cases = [
        (["run", "--mode", "sd", "--tau", "0.3", "--steps", "2"], "epsilon"),
        (["sweep-lambda", "--tau", "0.3", "--lambdas", ""], "lambda"),
        (["converge-tau", "--eps", "1.0", "--t-final", "0.4", "--taus", ""],
         "step size"),
    ]
    files = ["--graph", graph, "--init", init, "--out", str(tmp_path / "o")]
    for args, named in cases:
        assert cli_main(args + files) == 1
        error = _last_error(capsys)
        assert error["error"] == "ValueError"
        assert named in error["message"]
    # sd's missing epsilon is refused before any file is read
    absent = str(tmp_path / "absent.graph")
    args = ["run", "--graph", absent, "--init", init, "--tau", "0.3",
            "--steps", "2", "--out", str(tmp_path / "o")]
    assert cli_main(args) == 1
    assert _last_error(capsys)["error"] == "ValueError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [("--t-final", "inf", "t_final"), ("--taus", "nan", "step sizes")],
)
def test_cli_refuses_non_finite_converge_times(tmp_path, capsys, flag, value,
                                               named):
    # an infinite --t-final died in math.ceil with a traceback and a NaN
    # --taus with a message that named neither
    graph, init = _p2_files(tmp_path)
    times = {"--t-final": "0.4", "--taus": "0.2,0.1", flag: value}
    args = ["converge-tau", "--graph", graph, "--init", init, "--eps", "1.0",
            "--out", str(tmp_path / "o")]
    for name, text in times.items():
        args += [name, text]
    assert cli_main(args) == 1
    error = _last_error(capsys)
    assert error["error"] == "ValueError"
    assert named in error["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tau", ["-1e-3", "-.5", "-2"])
def test_cli_reads_negative_tau_as_a_value(tmp_path, capsys, tau):
    # a negative number in any spelling reaches the numerics, which name
    # it, instead of being taken for an unknown flag
    graph, init = _p2_files(tmp_path)
    common = ["--graph", graph, "--init", init, "--tau", tau,
              "--out", str(tmp_path / "o")]
    assert cli_main(["run", *common, "--eps", "1.0", "--steps", "2"]) == 1
    error = _last_error(capsys)
    assert error["error"] == "ValueError"
    assert "tau" in error["message"]
    assert cli_main(["run", *common, "--mode", "mbo", "--steps", "2"]) == 1
    assert "tau" in _last_error(capsys)["message"]
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_diffusion_time_past_the_degree_limit(tmp_path, capsys):
    # the Chebyshev degree grows like sqrt(tau): a huge step is refused
    # before the series is built, and the message names the time
    graph, init = _p2_files(tmp_path)
    args = ["run", "--graph", graph, "--init", init, "--mode", "mbo",
            "--tau", "1e10", "--steps", "1", "--out", str(tmp_path / "o")]
    assert cli_main(args) == 1
    error = _last_error(capsys)
    assert error["error"] == "GraphTooLarge"
    assert "diffusion time too large" in error["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_cli_rejects_empty_oracle_check(capsys, instances):
    assert cli_main(["oracle-check", "--instances", instances]) == 1
    captured = capsys.readouterr()
    assert "passed" not in captured.out
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "instance" in err["message"]


def test_cli_runs_mbo_on_a_20001_vertex_path(tmp_path, capsys):
    # twice the old dense limit: diffusion needs only the edge arrays
    n = 20_001
    lines = [f"vertices {n} r 0"] + [f"{v} {v + 1} 1.0" for v in range(n - 1)]
    graph = _write(tmp_path, "path.graph", "\n".join(lines) + "\n")
    init = _write(tmp_path, "path.init",
                  "".join(f"{v} {float(v < n // 2)}\n" for v in range(n)))
    args = ["run", "--graph", graph, "--init", init, "--mode", "mbo",
            "--tau", "0.1", "--steps", "1", "--out", str(tmp_path / "o")]
    assert cli_main(args) == 0
    assert capsys.readouterr().err == ""
    final = parse_field_file(str(tmp_path / "o" / "final_state.txt"),
                             parse_graph_file(graph))
    assert final.sum() == n // 2


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


def test_cli_reads_the_state_file_once(tmp_path, monkeypatch):
    # the class count comes from the first data line, not a pass of its own
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt",
                  "# state\n\n0 0.7 0.2 0.1\n1 0.3 0.4 0.3\n2 0.1 0.2 0.7\n")
    paths = []
    tokens = io_cli._tokens

    def counted(path):
        paths.append(path)
        return tokens(path)

    monkeypatch.setattr(io_cli, "_tokens", counted)
    assert cli_main(["multiclass", "--graph", graph, "--init", init,
                     "--eps", "0.4", "--tau", "0.2", "--steps", "1",
                     "--out", str(tmp_path / "o")]) == 0
    assert paths.count(init) == 1
    final = (tmp_path / "o" / "final_state.txt").read_text().splitlines()
    assert [len(line.split()) for line in final] == [4, 4, 4]


@pytest.mark.parametrize("classes", ["0", "1"])
def test_cli_refuses_fewer_than_two_classes(tmp_path, capsys, classes):
    # --classes 0 once fell through to the inferred count and exited 0
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 0.7 0.3\n1 0.4 0.6\n2 0.1 0.9\n")
    args = ["multiclass", "--graph", graph, "--init", init, "--eps", "0.4",
            "--tau", "0.2", "--steps", "1", "--classes", classes,
            "--out", str(tmp_path / "o")]
    assert cli_main(args) == 1
    assert _last_error(capsys) == {
        "error": "ValueError", "message": f"need at least 2 classes, got {classes}"
    }
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("steps", ["0", "2"])
@pytest.mark.parametrize(
    "flag, value",
    [("--fp-tol", "nan"), ("--fp-tol", "-1"), ("--fp-tol", "inf"),
     ("--max-iter", "0")],
)
def test_cli_rejects_bad_fixed_point_settings(tmp_path, capsys, flag, value, steps):
    # refused before the first solve, not after a spent budget (exit 2) or a
    # single iteration that an infinite tolerance accepts (exit 0), and by
    # a run of no steps as well
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 1.0 0.0\n1 0.5 0.5\n2 0.0 1.0\n")
    code = cli_main([
        "multiclass", "--graph", graph, "--init", init, "--eps", "0.4",
        "--tau", "0.2", "--steps", steps, "--out", str(tmp_path / "o"),
        flag, value,
    ])
    assert code == 1
    err = _last_error(capsys)
    assert err["error"] == "ValueError"
    assert flag[2:].replace("-", "_") in err["message"]
    assert not (tmp_path / "o").exists()


def test_cli_repeated_runs_are_byte_identical(tmp_path):
    graph, init = _p2_files(tmp_path)
    args = ["run", "--graph", graph, "--init", init, "--mode", "sd",
            "--eps", "1.0", "--tau", "0.5", "--steps", "5"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("log.csv", "final_state.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--mode", "mbo", "--tau", "0.3", "--steps", "2"],
        ["multiclass", "--eps", "0.4", "--tau", "0.2", "--steps", "2"],
        ["sweep-lambda", "--tau", "0.3", "--lambdas", "0.5"],
        ["converge-tau", "--eps", "1.0", "--t-final", "0.4", "--taus", "0.2"],
    ],
)
def test_cli_deterministic_commands_take_no_seed(tmp_path, capsys, command):
    # only oracle-check draws random numbers, so only it takes --seed
    graph, init = _p2_files(tmp_path)
    args = command + ["--graph", graph, "--init", init, "--seed", "3",
                      "--out", str(tmp_path / "o")]
    assert cli_main(args) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_reports_a_vertex_count_the_edges_cannot_connect(tmp_path, capsys):
    # the header's count was allocated for before connectivity was checked,
    # so this ended in a MemoryError traceback, not a JSON error line
    graph = _write(tmp_path, "g.txt", "vertices 3000000000 r 0\n0 1 1.0\n")
    init = _write(tmp_path, "u.txt", P2_INIT)
    code = cli_main([
        "run", "--graph", graph, "--init", init, "--mode", "mbo",
        "--tau", "0.3", "--steps", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert _last_error(capsys)["error"] == "DisconnectedGraph"
    assert not (tmp_path / "o").exists()


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


def _package_env():
    """The environment with this package first on ``PYTHONPATH``."""
    import graphphase

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(graphphase.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def test_python_dash_m_runs_the_command(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "graphphase", "oracle-check", "--instances", "1"],
        cwd=tmp_path, env=_package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "passed" in proc.stdout


def test_commands_do_not_import_numpy_random(tmp_path):
    # importing numpy.random costs every command start-up time and
    # megabytes of memory; only oracle-check draws random numbers
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 1.0\n1 0.0\n2 0.5\n")
    script = (
        "import sys, graphphase\n"
        "loaded = ['numpy.random' in sys.modules]\n"
        "code = graphphase.cli_main(sys.argv[1:])\n"
        "print(code, loaded + ['numpy.random' in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--graph", graph, "--init", init,
         "--mode", "sd", "--eps", "1.0", "--tau", "0.3", "--steps", "2",
         "--out", str(tmp_path / "o")],
        cwd=tmp_path, env=_package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.stderr == ""
    assert proc.stdout == "0 [False, False]\n"
