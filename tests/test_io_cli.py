"""File format and command-line driver tests."""

import argparse
import builtins
import io
import json
import os
import subprocess
import sys
import tracemalloc
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
from graphphase import io_cli, multiclass, scheme, trajectory
from graphphase.graph_core import spectral_decompose
from graphphase.oracles import random_connected_graph

P2_GRAPH = "vertices 2 r 0\n0 1 1.0\n"
P2_INIT = "0 1.0\n1 0.0\n"
FILES = {"--graph", "--init", "--out"}
# every flag of every command: a new one has to be added here
FLAGS = {
    "run": FILES | {"--mode", "--eps", "--tau", "--steps"},
    "multiclass": FILES | {"--mode", "--eps", "--tau", "--steps"},
    "sweep-lambda": FILES | {"--tau", "--lambdas"},
    "converge-tau": FILES | {"--eps", "--t-final", "--taus"},
    "oracle-check": {"--seed", "--instances"},
}


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


def test_a_repeat_is_named_before_a_count_the_edges_cannot_connect(tmp_path):
    # 10**30 vertices need far more edges than listed, yet the repeat is the
    # error, read by the C reader and, with a comment among the data, by the
    # exact one
    header = f"vertices {10**30} r 0\n"
    for body, line, given in (("0 1 1.0\n1 2 1.0\n2 1 0.5\n", 4, 3),
                              ("# c\n0 1 1.0\n1 2 1.0\n\n2 1 0.5\n", 6, 4)):
        with pytest.raises(DuplicateEdge) as info:
            parse_graph_file(_write(tmp_path, "g.txt", header + body))
        assert info.value.line == line
        assert str(info.value) == (
            f"line {line}: edge (1, 2) already given on line {given}"
        )


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

    def refuse(rows, *args):
        raise AssertionError(f"the exact reader read {next(rows)}")

    monkeypatch.setattr(io_cli, "_table", refuse)
    g = parse_graph_file(graph)
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5)) and g.r == 0.5
    assert parse_field_file(state, g).tolist() == [1.0, 0.0, 0.25]
    field = parse_field_file(classes, g, 2)
    assert field.values.tolist() == [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]


def test_well_formed_files_are_read_without_np_unique(tmp_path, monkeypatch):
    # np.unique sorts and faults in sort code no other set-up needs: it may
    # only name a failure.  A tree (n = E + 1) and a graph with a cycle,
    # rows in any order, a comment line before the data
    tree = _write(tmp_path, "t.txt", "vertices 4 r 0\n2 3 1\n1 0 1\n1 2 1\n")
    graph = _write(tmp_path, "g.txt",
                   "vertices 4 r 0.5\n# c\n2 3 1.0\n1 0 0.5\n1 2 2.0\n3 0 1.0\n")
    state = _write(tmp_path, "u.txt", "# c\n3 0.25\n1 0\n0 1\n2 0.5\n")
    classes = _write(tmp_path, "v.txt",
                     "1 0.2 0.3 0.5\n0 1 0 0\n3 0 0 1\n2 0.5 0.5 0\n")

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique was called")

    monkeypatch.setattr(np, "unique", refuse)
    assert parse_graph_file(tree).edges == (
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)
    )
    g = parse_graph_file(graph)
    assert g.edges == ((0, 1, 0.5), (0, 3, 1.0), (1, 2, 2.0), (2, 3, 1.0))
    assert parse_field_file(state, g).tolist() == [1.0, 0.0, 0.5, 0.25]
    assert parse_field_file(classes, g, 3).values.tolist() == [
        [1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]
    ]


def test_leading_comments_keep_the_c_reader(tmp_path, monkeypatch):
    # comment and blank lines before the first data line, or between a
    # graph's header and its first edge, are skipped by the C reader instead
    # of sending the file to the exact one; a repeat further down still
    # names its lines, with the skipped lines counted
    lead = "# start\n\n  \n# more\n"
    graph = "vertices 3 r 0.5\n0 1 1.0\n1 2 2.5\n"
    two = "2 0.25\n0 1\n1 0.0\n"
    three = "0 0.5 0.25 0.25\n1 1 0 0\n2 0.25 0.5 0.25\n"
    g = parse_graph_file(_write(tmp_path, "g.txt", graph))
    plain = [parse_field_file(_write(tmp_path, "a.txt", two), g),
             parse_field_file(_write(tmp_path, "b.txt", three), g, 3).values]
    calls = []
    table = io_cli._table

    def spy(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(io_cli, "_table", spy)
    commented = parse_graph_file(_write(
        tmp_path, "h.txt", lead + graph.replace("\n", "\n# edges\n\n", 1)))
    assert (commented.edges, commented.r) == (g.edges, g.r)
    two_path = _write(tmp_path, "c.txt", lead + two)
    three_path = _write(tmp_path, "d.txt", lead + three)
    read = [parse_field_file(two_path, g),
            parse_field_file(three_path, g, 3).values,
            parse_field_file(three_path, g, io_cli._FROM_FILE).values]
    assert calls == []
    for got, expected in zip(read, plain + plain[1:]):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    repeat = _write(tmp_path, "e.txt", lead + "0 1\n1 0.0\n\n1 0.5\n2 0.25\n")
    with pytest.raises(ParseError) as info:
        parse_field_file(repeat, g)
    assert str(info.value) == "line 8: vertex 1 already given on line 6"


@pytest.mark.parametrize("kind,text,exc", [
    pytest.param("graph", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n", None,
                 id="graph-valid"),
    pytest.param("graph", "vertices 3 r 0\n0 1 1.0\n# c\n1 2 1.0\n", None,
                 id="graph-fallback"),
    pytest.param("graph", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n1 0 2.0\n",
                 DuplicateEdge, id="graph-duplicate"),
    pytest.param("graph", "vertices 3 r 0\n0 1 1.0\n# c\n1 0 2.0\n",
                 DuplicateEdge, id="graph-fallback-duplicate"),
    pytest.param("state", "0 1.0\n1 0.0\n2 0.5\n", None, id="state-valid"),
    pytest.param("state", "0 1.0\n# c\n1 0.0\n2 0.5\n", None,
                 id="state-fallback"),
    pytest.param("state", "0 1.0\n0 0.0\n1 0.0\n", ParseError,
                 id="state-repeat"),
    pytest.param("state", "0 1.0\n# c\n0 0.0\n1 0.0\n", ParseError,
                 id="state-fallback-repeat"),
    pytest.param("classes", "0 0.5 0.5\n1 0.5 0.25\n2 1 0\n", ParseError,
                 id="classes-row-sum"),
])
def test_each_input_file_is_read_once(tmp_path, monkeypatch, kind, text, exc):
    # the C reader, the exact reader and the line numbers of an error all
    # work from one read of the file
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    path = _write(tmp_path, "f.txt", text)
    reads = []
    read_text = io_cli._text

    def counted(name):
        reads.append(name)
        return read_text(name)

    monkeypatch.setattr(io_cli, "_text", counted)
    read = {
        "graph": lambda: parse_graph_file(path),
        "state": lambda: parse_field_file(path, g),
        "classes": lambda: parse_field_file(path, g, 2),
    }[kind]
    if exc is None:
        read()
    else:
        with pytest.raises(exc):
            read()
    assert reads == [path]


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


def test_state_rows_write_what_fmt_writes():
    # one format string per row; the bytes are those of _fmt per value
    values = [-0.0, 0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2]
    assert io_cli._state_lines(np.array(values)) == [
        f"{i} {io_cli._fmt(v)}" for i, v in enumerate(values)
    ]
    rows = [[-0.0, 0.0, 1.0], [5e-324, 1e-300, 1.0], [0.1 + 0.2, 0.1, 0.6]]
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    lines = io_cli._state_lines(SimplexField(values=np.array(rows), graph=g))
    assert lines == [
        " ".join([str(i)] + [io_cli._fmt(v) for v in row])
        for i, row in enumerate(rows)
    ]
    assert lines[2] == "2 0.30000000000000004 0.10000000000000001 0.59999999999999998"


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
        "--t-final", "0.5", "--taus", "0.01,0.005,0.0025", "--out", str(out),
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
    }


def _with_bad_byte(lines, past):
    """``lines`` as UTF-8 with 0xff in place of the last character of the
    first data line that starts past byte ``past``; returns the bytes, the
    byte's offset and its 1-based line."""
    data = bytearray("".join(lines).encode("utf-8"))
    start = 0
    for number, line in enumerate(lines, start=1):
        if start > past and line[0].isdigit():
            offset = start + len(line.rstrip("\r\n")) - 1
            data[offset] = 0xFF
            return bytes(data), offset, number
        start += len(line.encode("utf-8"))
    raise AssertionError("file too short")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("past", [20, 8192], ids=["first-8k", "after-8k"])
@pytest.mark.parametrize("kind", ["graph", "state", "classes"])
def test_a_byte_that_is_not_utf8_is_named_by_line_and_offset(
    tmp_path, capsys, kind, past, newline
):
    # a decode error raised while reading names the byte's offset in its
    # 8 KB read chunk and no line; the refusal names the file offset
    n = 2000
    graph = [f"vertices {n} r 0.5{newline}"] + [
        f"{v} {v + 1} 0.5{newline}" for v in range(n - 1)]
    row = " 0.5 0.25 0.25" if kind == "classes" else " 0.375"
    state = [f"{v}{row}{newline}" for v in range(n)]
    files = {"graph": graph, "state": state}
    bad = "graph" if kind == "graph" else "state"
    files[bad], offset, line = _with_bad_byte(files[bad], past)
    assert (offset > 8192) == (past == 8192) and len(files[bad]) > 16384
    paths = {}
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes)
                         else "".join(content).encode("utf-8"))
        paths[name] = str(path)
    common = ["--graph", paths["graph"], "--init", paths["state"],
              "--tau", "0.1", "--out", str(tmp_path / "o")]
    if kind == "classes":  # the class count is read from the state file
        command = ["multiclass", "--eps", "0.4", "--steps", "1", *common]
    else:
        command = ["run", "--mode", "mbo", "--steps", "1", *common]
    assert cli_main(command) == 1
    err = _last_error(capsys)
    assert err["error"] == "ParseError"
    assert err["message"] == (
        f"line {line}: byte 0xff at offset {offset} is not UTF-8"
    )
    assert not (tmp_path / "o").exists()


# the module-level names bench/child.py rebinds to time each layer of a run;
# a run that stops calling one through its name reads 0 for that layer
TRACED = [(scheme, "diffuse"), (scheme, "threshold_levels"),
          (scheme, "_solve_profile")]
TRACED_RUN = TRACED + [(trajectory, "lyapunov_energy"),
                       (trajectory, "ginzburg_landau")]


@pytest.mark.parametrize("command,names", [
    (["run", "--mode", "sd", "--eps", "0.4", "--steps", "3"],
     TRACED_RUN + [(trajectory, "semi_discrete_step")]),
    (["run", "--mode", "mbo", "--steps", "3"],
     TRACED_RUN + [(trajectory, "mbo_step")]),
    (["sweep-lambda", "--lambdas", "0.25,0.999"], TRACED),
], ids=["sd", "mbo", "sweep"])
def test_runs_call_the_layers_the_benchmark_times(tmp_path, monkeypatch,
                                                  command, names):
    rng = np.random.default_rng(3)
    g = random_connected_graph(30, rng, r=0.5)
    graph = _write(tmp_path, "g.txt", "vertices 30 r 0.5\n" + "".join(
        f"{i} {j} {float(w)!r}\n" for i, j, w in g.edges))
    start = rng.uniform(0.0, 1.0, size=30)
    init = _write(tmp_path, "u.txt", "".join(
        f"{v} {float(x)!r}\n" for v, x in enumerate(start)))
    calls = {}
    for module, name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli_main([*command, "--graph", graph, "--init", init, "--tau", "0.1",
                     "--out", str(tmp_path / "o")]) == 0
    assert sorted(calls) == sorted(name for _, name in names)


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def _only_error(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


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
    "tau, lambdas, named",
    [("0.3", "nan", "lam"), ("0.3", "0.5,nan", "lam"), ("0", "0.5", "tau"),
     ("inf", "0.5", "tau"), ("nan", "0.5", "tau")],
)
def test_cli_sweep_refuses_a_nan_lambda_and_a_bad_tau(tmp_path, capsys, tau,
                                                      lambdas, named):
    # a NaN lambda passes both range guards (every comparison with it is
    # False), and a zero tau diffuses to a copy: each is a ValueError before
    # any step, and nothing is written
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "o"
    args = ["sweep-lambda", "--graph", graph, "--init", init, "--tau", tau,
            "--lambdas", lambdas, "--out", str(out)]
    assert cli_main(args) == 1
    error = _last_error(capsys)
    assert error["error"] == "ValueError"
    assert named in error["message"]
    assert not out.exists()


def test_cli_sweep_refuses_a_repeated_lambda(tmp_path, capsys):
    # the report is keyed by lambda, so a repeat wrote one row fewer than
    # the flag asked for: it is refused before any file is read, while the
    # library's sweep_lambda still takes repeats
    absent = str(tmp_path / "absent.txt")
    out = tmp_path / "o"
    args = ["sweep-lambda", "--graph", absent, "--init", absent, "--tau", "0.3",
            "--lambdas", "0.25,0.5,0.9,0.50", "--out", str(out)]
    assert cli_main(args) == 1
    error = _last_error(capsys)
    assert error["error"] == "ValueError"
    assert "lambda 0.5 is repeated" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--t-final", "inf", "t_final"),
        ("--taus", "nan", "step sizes"),
        ("--eps", "inf", "epsilon must be positive and finite, got inf"),
    ],
)
def test_cli_refuses_non_finite_converge_times(tmp_path, capsys, flag, value,
                                               named):
    # an infinite --t-final died in math.ceil with a traceback and a NaN
    # --taus with a message that named neither; --eps has a check of its own
    graph, init = _p2_files(tmp_path)
    times = {"--eps": "1.0", "--t-final": "0.4", "--taus": "0.2,0.1", flag: value}
    args = ["converge-tau", "--graph", graph, "--init", init,
            "--out", str(tmp_path / "o")]
    for name, text in times.items():
        args += [name, text]
    assert cli_main(args) == 1
    error = _only_error(capsys)
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


def test_a_class_count_far_above_the_file_builds_no_table_that_wide(tmp_path):
    # the C reader must not be asked for a row wider than the file's first
    # one: at 2e7 classes the table it builds for that row does not fit
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 0.5 0.5\n1 1 0\n2 0.25 0.75\n")
    g = parse_graph_file(graph)
    message = "line 1: expected a vertex index and 1000000 value(s)"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_field_file(init, g, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 1_000_000


def _traced_peaks(tmp_path, texts, read):
    """Bytes ``tracemalloc`` saw at the peak of ``read`` of each text; the
    text named ``good`` must be read, the others refused."""
    peaks = {}
    for name, text in texts.items():
        path = _write(tmp_path, f"{name}.txt", text)
        tracemalloc.start()
        try:
            if name == "good":
                read(path)
            else:
                with pytest.raises(ParseError):
                    read(path)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_a_bad_file_costs_no_more_memory_than_a_good_one(tmp_path):
    # the failure sits on the last line, so the C reader refuses the file or
    # a check fails after the whole table is read; the exact reader and the
    # line numbers of a failure hold one line's tokens at a time
    n = 5000  # a path and every other second-neighbour chord: 7,498 edges
    edges = [f"{i} {i + 1} 1.5" for i in range(n - 1)]
    edges += [f"{i} {i + 2} 0.5" for i in range(0, n - 2, 2)]
    good = f"vertices {n} r 0.5\n" + "\n".join(edges) + "\n"
    peaks = _traced_peaks(tmp_path, {
        "good": good,
        "weight": good[:good.rindex(" ")] + " 1_0x\n",
        "repeat": good + edges[0] + "\n",
    }, parse_graph_file)
    assert peaks["weight"] <= 1.25 * peaks["good"]
    assert peaks["repeat"] <= 1.25 * peaks["good"]

    n = 10_000
    g = build_graph(n, [(v, v + 1, 1.0) for v in range(n - 1)])
    rows = "".join(f"{v} 0.{v % 9 + 1}\n" for v in range(n - 1))
    peaks = _traced_peaks(tmp_path, {
        "good": rows + f"{n - 1} 0.5\n",
        "vertex": rows + "0 0.5\n",
        "value": rows + f"{n - 1} 0.5x\n",
    }, lambda path: parse_field_file(path, g))
    assert peaks["vertex"] <= 1.5 * peaks["good"]
    assert peaks["value"] <= 1.5 * peaks["good"]


def test_cli_reads_the_state_file_once(tmp_path, monkeypatch):
    # the class count comes from the first data line of the one text read,
    # not a pass of its own: every way to open the path is counted
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt",
                  "# state\n\n0 0.7 0.2 0.1\n1 0.3 0.4 0.3\n2 0.1 0.2 0.7\n")
    paths = []
    for module in (builtins, io, os):
        def counted(path, *args, _open=module.open, **kwargs):
            paths.append(str(path))
            return _open(path, *args, **kwargs)

        monkeypatch.setattr(module, "open", counted)
    assert cli_main(["multiclass", "--graph", graph, "--init", init,
                     "--eps", "0.4", "--tau", "0.2", "--steps", "1",
                     "--out", str(tmp_path / "o")]) == 0
    assert paths.count(init) == 1
    final = (tmp_path / "o" / "final_state.txt").read_text().splitlines()
    assert [len(line.split()) for line in final] == [4, 4, 4]


def test_cli_needs_a_data_line_to_count_the_classes(tmp_path, capsys):
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "# no rows\n\n")
    assert cli_main(["multiclass", "--graph", graph, "--init", init,
                     "--eps", "0.4", "--tau", "0.2", "--steps", "1",
                     "--out", str(tmp_path / "o")]) == 1
    assert _last_error(capsys) == {
        "error": "ParseError", "message": "line 1: state file has no data lines"
    }
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("classes", ["0", "1"])
def test_cli_refuses_fewer_than_two_classes(tmp_path, capsys, classes):
    # the class count is the width of the first data line less its index:
    # "0" is a file of bare indices, "1" a two-class file
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    rows = {"0": "0\n1\n2\n", "1": "0 0.7\n1 0.4\n2 0.1\n"}[classes]
    init = _write(tmp_path, "u.txt", rows)
    args = ["multiclass", "--graph", graph, "--init", init, "--eps", "0.4",
            "--tau", "0.2", "--steps", "1", "--out", str(tmp_path / "o")]
    assert cli_main(args) == 1
    assert _last_error(capsys) == {
        "error": "ValueError", "message": f"need at least 2 classes, got {classes}"
    }
    assert not (tmp_path / "o").exists()


def test_each_command_has_exactly_its_flags():
    parser = io_cli._build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {
        name: {flag for action in command._actions
               if not isinstance(action, argparse._HelpAction)
               for flag in action.option_strings}
        for name, command in commands.choices.items()
    }
    assert flags == FLAGS


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


def test_cli_unconverged_solve_exits_two_with_outputs(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(multiclass, "MAX_ITER", 1)
    monkeypatch.setattr(multiclass, "FP_TOL", 1e-16)
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 1.0 0.0\n1 0.5 0.5\n2 0.0 1.0\n")
    out = tmp_path / "out"
    code = cli_main([
        "multiclass", "--graph", graph, "--init", init, "--eps", "0.4",
        "--tau", "0.2", "--steps", "2", "--out", str(out),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NumericalError"
    # best iterates are still written for inspection
    assert (out / "log.csv").exists()
    assert (out / "final_state.txt").exists()


@pytest.mark.parametrize(
    "rows, tau",
    [
        # K = 3 at lambda 0.32 / 0.4 = 0.8, above K / (2 (K - 1)) = 0.75
        ("0 0.7 0.2 0.1\n1 0.3 0.4 0.3\n2 0.1 0.2 0.7\n", "0.32"),
        # K = 2 at lambda 1, the bound itself
        ("0 0.7 0.3\n1 0.4 0.6\n2 0.1 0.9\n", "0.4"),
    ],
)
@pytest.mark.parametrize("mode", ["multiclass-sd", "multiclass-msd"])
def test_cli_refuses_multiclass_lambda_on_the_bound(tmp_path, capsys, rows, tau,
                                                    mode):
    # a run of no steps is refused as well as a run of one
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", rows)
    for steps in ("1", "0"):
        out = tmp_path / f"o{steps}"
        assert cli_main(["multiclass", "--graph", graph, "--init", init,
                         "--mode", mode, "--eps", "0.4", "--tau", tau,
                         "--steps", steps, "--out", str(out)]) == 1
        assert _only_error(capsys)["error"] == "DomainViolation"
        assert not (out / "log.csv").exists()


def test_cli_unwritable_output_exits_one(tmp_path, capsys):
    graph, init = _p2_files(tmp_path)
    out = tmp_path / "o"
    (out / "log.csv").mkdir(parents=True)
    assert cli_main(["run", "--graph", graph, "--init", init, "--eps", "1.0",
                     "--tau", "0.5", "--steps", "1", "--out", str(out)]) == 1
    error = _only_error(capsys)
    assert error["error"] == "IoError"
    assert error["message"].startswith(f"cannot write {out / 'log.csv'}")


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


def test_counts_and_endpoints_past_int64_are_named_exactly(tmp_path, capsys):
    # a count past the float range ended in an OverflowError traceback, and
    # an endpoint past int64 was cast to -2**63 in the repeat's message
    init = _write(tmp_path, "u.txt", P2_INIT)
    args = ["run", "--init", init, "--mode", "mbo", "--tau", "0.3",
            "--steps", "1", "--out", str(tmp_path / "o")]
    big = 10**400
    graph = _write(tmp_path, "g.txt", f"vertices {big} r 0\n0 1 1.0\n")
    assert cli_main(args + ["--graph", graph]) == 1
    assert _last_error(capsys) == {
        "error": "DisconnectedGraph",
        "message": f"vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] ({big - 2} in all)"
                   " unreachable from vertex 0",
    }
    far = 10**20
    graph = _write(tmp_path, "g.txt",
                   f"vertices {10**30} r 0\n0 {far} 1.0\n{far} 0 2\n")
    assert cli_main(args + ["--graph", graph]) == 1
    assert _last_error(capsys) == {
        "error": "DuplicateEdge",
        "message": f"line 3: edge (0, {far}) already given on line 2",
    }
    with pytest.raises(DuplicateEdge, match=rf"edge \(0, {far}\) listed twice"):
        build_graph(10**30, [(0, far, 1.0), (far, 0, 2.0)])
    assert not (tmp_path / "o").exists()


def test_oracle_check_reports_pass_count(capsys):
    code = cli_main(["oracle-check", "--seed", "7", "--instances", "4"])
    assert code == 0
    assert "oracle-check passed 12/12" in capsys.readouterr().out


def test_oracle_check_exits_two_when_the_step_disagrees(capsys, monkeypatch):
    oracle = io_cli.variational_oracle
    monkeypatch.setattr(
        io_cli, "variational_oracle", lambda *args: oracle(*args) + 1e-3
    )
    assert cli_main(["oracle-check", "--seed", "7", "--instances", "2"]) == 2
    captured = capsys.readouterr()
    assert "oracle-check passed 4/6" in captured.out
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "NumericalError"
    assert "instance 0: step disagrees with oracle" in error["message"]


@pytest.mark.parametrize("command, flag, value, message", [
    ("run", "--tau", "abc", "argument --tau: invalid float value: 'abc'"),
    ("sweep-lambda", "--lambdas", "a,b",
     "argument --lambdas: expected comma-separated reals, got 'a,b'"),
])
def test_cli_usage_error_ends_with_a_json_line(
    tmp_path, capsys, command, flag, value, message
):
    graph, init = _p2_files(tmp_path)
    code = cli_main([command, "--graph", graph, "--init", init,
                     "--out", str(tmp_path / "o"), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: graphphase {command}")
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "ValidationError", "message": message,
    }


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


def test_commands_run_with_numpy_alone(tmp_path):
    # scipy, hypothesis and pytest-benchmark may be installed but are not
    # dependencies: with each import made to fail, every command still runs
    graph = _write(tmp_path, "g.txt", "vertices 3 r 0\n0 1 1.0\n1 2 1.0\n")
    init = _write(tmp_path, "u.txt", "0 1.0\n1 0.0\n2 0.5\n")
    classes = _write(tmp_path, "v.txt", "0 0.7 0.2 0.1\n1 0.3 0.4 0.3\n2 0.1 0.2 0.7\n")
    files = ["--graph", graph, "--out", str(tmp_path / "o")]
    commands = [
        ["oracle-check", "--instances", "2"],
        ["run", "--init", init, "--eps", "1.0", "--tau", "0.3", "--steps", "2"]
        + files,
        ["multiclass", "--init", classes, "--eps", "1.0", "--tau", "0.3",
         "--steps", "2"] + files,
        ["sweep-lambda", "--init", init, "--tau", "0.3", "--lambdas", "0.2,0.6"]
        + files,
    ]
    script = (
        "import json, sys\n"
        "for name in ('scipy', 'hypothesis', 'pytest_benchmark'):\n"
        "    sys.modules[name] = None\n"
        "import graphphase\n"
        "print([graphphase.cli_main(argv) for argv in json.loads(sys.argv[1])])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        cwd=tmp_path, env=_package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]"
