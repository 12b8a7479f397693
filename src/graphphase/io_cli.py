"""File formats and the command-line driver.

Graphs and states travel as small text files so every run is auditable by
eye; all floats are written with 17 significant digits, which round-trips
float64 exactly.  The driver maps validation problems to exit code 1 and
numerical failures to exit code 2, and prints a single machine-readable
JSON line on stderr when it fails.

Validation happens in two places: argparse checks that a command has its
flags and that they have their types, and the library functions check the
numerics.  The commands read the argparse namespace as it is; the three flag
combinations argparse cannot refuse (``run --mode sd`` without ``--eps``,
``sweep-lambda --lambdas`` with a repeated value and ``oracle-check
--instances`` below 1) are refused by the command that reads them, before
any file is read.  The columns of ``log.csv`` are the fields
of ``LogEntry``, in order.
"""

import argparse
import itertools
import json
import os
import re
import sys
from dataclasses import fields

import numpy as np

from .errors import (
    DomainViolation,
    DuplicateEdge,
    IoError,
    MissingVertex,
    NumericalError,
    ParseError,
    ValidationError,
)
from .graph_core import (
    Graph,
    build_graph,
    diffuse,
    inner_product,
    spectral_decompose,
)
from .multiclass import SimplexField
from .oracles import mbo_oracle, random_connected_graph, variational_oracle
from .scheme import SchemeParams, dual_certificate, mbo_step, semi_discrete_step
from .trajectory import (
    LogEntry,
    Trajectory,
    converge_tau,
    run_multiclass_trajectory,
    run_trajectory,
    sweep_lambda,
)

__all__ = [
    "parse_graph_file",
    "parse_field_file",
    "write_outputs",
    "cli_main",
]

_FROM_FILE = object()  # num_classes read off the state file's first data line


def _text(path):
    """The file as text mode reads it; a byte that is not UTF-8 is a
    :class:`ParseError` naming its line and its offset in the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.split("\r\n?|\n", data[: exc.start].decode("utf-8")))
        message = f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        raise ParseError(message, line=line) from None
    if "\r" in text:  # a scan is much cheaper than a replace that finds nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _data_lines(lines, start=0):
    """``(number, tokens)`` of each line after line ``start`` that is not
    blank or ``#``, one line at a time: the only place that rule is applied."""
    rest = map(str.split, itertools.islice(lines, start, None))
    return ((number, tokens) for number, tokens
            in enumerate(rest, start=start + 1)
            if tokens and not tokens[0].startswith("#"))


def _line_of(lines, start, row):
    """The line number of data row ``row`` (from 0) after line ``start``."""
    return next(itertools.islice(_data_lines(lines, start), row, None))[0]


def _table(rows, ints, size, wrong_size, malformed):
    """The ``(number, tokens)`` rows of :func:`_data_lines` as an (E, size)
    float table: ``ints`` integers, then reals, a row at a time.  The first
    bad row is named: ``wrong_size`` for a wrong token count, ``malformed``
    for a token ``int`` or ``float`` refuses.
    """
    values = []
    for number, tokens in rows:
        if len(tokens) != size:
            raise ParseError(wrong_size, line=number)
        try:  # Python ints: past int64 is a float, past the float range malformed
            values += map(float, map(int, tokens[:ints]))
            values += map(float, tokens[ints:])
        except (ValueError, OverflowError):
            raise ParseError(malformed, line=number) from None
    return np.array(values, dtype=float).reshape(-1, size)


def _c_table(text, lines, start, ints, size):
    """The table of :func:`_table`, read by numpy's C reader, or None.

    ``lines`` is ``text`` split at line ends.  The lines up to the first
    data line after line ``start`` (:func:`_data_lines`), blank, ``#`` or a
    header, are skipped, and the lines from it on are returned as an
    (E, size) float table, ``ints`` int64 columns and then float64 ones.
    Returns None where the C reader refuses the file: no data, a ``#`` line
    among the data, syntax only ``int`` or ``float`` take (``1_0``, past
    int64), a wrong token count.  The C reader is asked for ``size``
    columns only if the first data line has them, so a wrong count there
    costs no table that wide.  The exact reader then names the bad line or
    reads the file.  Text that is not ASCII is not handed over, because
    numpy's integer parser reads letters past ASCII as digits (U+01FE
    before ``0`` as 4620) and crashes on some.  Where it accepts ASCII
    text, the C reader reads the numbers ``int`` and ``float`` read.
    """
    first = next(_data_lines(lines, start), None)
    if first is None or len(first[1]) != size or not text.isascii():
        return None  # no data, which np.loadtxt warns of, or the wrong width
    columns = [(f"c{c}", np.int64 if c < ints else np.float64)
               for c in range(size)]
    try:
        rows = np.loadtxt(lines, dtype=columns, comments=None, encoding="utf-8",
                          skiprows=first[0] - 1, ndmin=1)
    except ValueError:
        return None
    return np.column_stack([rows[name] for name, _ in columns])


def parse_graph_file(path: str) -> Graph:
    """Read a graph file: header ``vertices N r R``, then ``i j w`` lines.

    ``#`` starts a comment line; indices are 0-based.  Syntax errors come
    first and name the first bad line.  Then the edge checks of
    :func:`~graphphase.graph_core.build_graph` run by category: range, self
    loops and weights name the edge, a repeat its line and the line of its
    first listing, and connectivity the unreachable vertices.  A well-formed
    file is read by numpy's C reader.  The exact reader, ``str.split`` and
    ``int`` or ``float`` per token, reads a file the C reader refuses a line
    at a time and stops at its first bad line.  A repeat's lines are
    numbered by the same walk over the data lines, :func:`_data_lines`.
    """
    text = _text(path)
    lines = text.split("\n")
    header = next(_data_lines(lines), None)
    if header is None:
        raise ParseError("file has no header line", line=1)
    number, tokens = header
    if len(tokens) != 4 or tokens[0] != "vertices" or tokens[2] != "r":
        raise ParseError("expected header 'vertices N r R'", line=number)
    try:
        num_vertices, r = int(tokens[1]), float(tokens[3])
    except ValueError:
        raise ParseError(
            "header needs an integer count and a real exponent", line=number
        ) from None
    edges = _c_table(text, lines, number, 2, 3)
    if edges is None:
        edges = _table(_data_lines(lines, number), 2, 3,
                       "expected 'i j w' edge line",
                       "edge needs two integer endpoints and a real weight")
    try:
        return build_graph(num_vertices, edges, r=r)
    except DuplicateEdge as exc:
        first, repeat = exc.positions
        pair = tuple(sorted(int(end) for end in edges[repeat, :2]))
        raise DuplicateEdge(f"edge {pair} already given on line "
                            f"{_line_of(lines, number, first)}",
                            line=_line_of(lines, number, repeat)) from None


def parse_field_file(path: str, g: Graph, num_classes: int | None = None):
    """Read a state file: ``i value`` rows, or ``i v1 ... vK`` multi-class.

    Every vertex must appear exactly once.  Two-class values must lie in
    [0, 1], which NaN does not; multi-class rows must sum to 1 within 1e-8
    and are renormalized to sum exactly 1.  As in :func:`parse_graph_file`,
    a well-formed file is read by numpy's C reader, the exact reader names
    a syntax failure, and :func:`_data_lines` numbers the later ones.
    The rows of a well-formed file are placed by one scatter of their row
    numbers; only a file it finds wrong is sorted, to name the failure.
    """
    text = _text(path)
    lines = text.split("\n")
    if num_classes is _FROM_FILE:
        head = next(_data_lines(lines), None)
        if head is None:
            raise ParseError("state file has no data lines", line=1)
        num_classes = len(head[1]) - 1
    if num_classes is not None and num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    width = 1 if num_classes is None else num_classes
    n = g.num_vertices
    table = _c_table(text, lines, 0, 1, 1 + width)
    if table is None:
        table = _table(_data_lines(lines), 1, 1 + width,
                       f"expected a vertex index and {width} value(s)",
                       "malformed number")
    vertex = table[:, 0]
    outside = (vertex < 0) | (vertex >= n)
    first = np.full(n, -1)  # each vertex's row: n rows in range hitting all
    if len(vertex) == n and not outside.any():
        first[vertex.astype(np.intp)] = np.arange(n)
    if first.min() < 0:  # a vertex out of range, repeated or missing
        # each value's first row, and for each row the first row of its value
        present, first, same = np.unique(vertex, return_index=True,
                                         return_inverse=True)
        bad = outside | (first[same] != np.arange(len(vertex)))  # or a repeat
        if bad.any():
            k = int(bad.argmax())
            raise ParseError(
                f"vertex {int(vertex[k])} outside 0..{n - 1}" if outside[k]
                else f"vertex {int(vertex[k])} already given on line "
                f"{_line_of(lines, 0, first[same[k]])}",
                line=_line_of(lines, 0, k),
            )
        gap = np.append(present, n) != np.arange(len(present) + 1)
        raise MissingVertex(f"no value for vertex {int(gap.argmax())}")
    values = table[first, 1:]
    if num_classes is None:
        field = values[:, 0]
        inside = (field >= 0.0) & (field <= 1.0)  # NaN is outside
        if not inside.all():
            bad = int(inside.argmin())
            raise DomainViolation(
                f"vertex {bad} has value {field[bad]}, outside [0, 1]"
            )
        return field
    sums = values.sum(axis=1)
    off = np.abs(sums - 1.0)
    if not (off <= 1e-8).all():  # a NaN is off as well
        bad = int(off.argmax())
        raise ParseError(
            f"row for vertex {bad} sums to {sums[bad]}, expected 1",
            line=_line_of(lines, 0, first[bad]),
        )
    values = values / sums[:, None]
    values[:, -1] = 1.0 - values[:, :-1].sum(axis=1)
    return SimplexField(values=values, graph=g)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _state_lines(state) -> list:
    """One line per vertex, its index and values; ``%.17g`` writes what
    :func:`_fmt` writes, one format string per row."""
    rows = state.values if isinstance(state, SimplexField) else state[:, None]
    line = "%d" + " %.17g" * rows.shape[1]
    return list(map(line.__mod__, zip(range(len(rows)), *rows.T.tolist())))


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def write_outputs(result, out_dir: str, mode: str, params: dict) -> list:
    """Write a run or experiment to ``out_dir``; returns the files written.

    Trajectories produce ``log.csv`` and ``final_state.txt``; experiment
    tables (anything else) produce ``report.json`` with keys mode, params,
    rows.  All formatting is deterministic.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from None
    written = []
    if isinstance(result, Trajectory):
        lines = [",".join(LogEntry._fields)]
        lines += [",".join(_fmt(v) for v in entry) for entry in result.log]
        log_path = os.path.join(out_dir, "log.csv")
        _write_text(log_path, "\n".join(lines) + "\n")
        state_path = os.path.join(out_dir, "final_state.txt")
        _write_text(
            state_path, "\n".join(_state_lines(result.final_state)) + "\n"
        )
        written += [log_path, state_path]
    else:
        document = {"mode": mode, "params": params, "rows": result}
        report_path = os.path.join(out_dir, "report.json")
        _write_text(
            report_path,
            json.dumps(document, sort_keys=True, indent=2) + "\n",
        )
        written.append(report_path)
    return written


def _scheme_params(args) -> SchemeParams:
    """The step's parameters, checked before any file is read.

    ``run`` takes ``--eps`` as optional because mbo does not use it, so sd's
    need for it is checked here.
    """
    if args.mode == "mbo":
        return SchemeParams.from_lambda(tau=args.tau, lam=1.0)
    if args.epsilon is None:
        raise ValueError(f"mode {args.mode} requires epsilon")
    return SchemeParams.from_epsilon(epsilon=args.epsilon, tau=args.tau)


def _load(args, num_classes: int | None = None):
    """Graph, spectrum and start state named by the file flags."""
    g = parse_graph_file(args.graph_path)
    s = spectral_decompose(g)
    return g, s, parse_field_file(args.init_path, g, num_classes)


def _cmd_run(args, report_params: dict) -> int:
    params = _scheme_params(args)
    g, s, u0 = _load(args)
    trajectory = run_trajectory(u0, g, s, params, max_steps=args.steps)
    write_outputs(trajectory, args.output_dir, args.mode, report_params)
    return 0


def _cmd_multiclass(args, report_params: dict) -> int:
    params = _scheme_params(args)
    g, s, field = _load(args, _FROM_FILE)
    trajectory = run_multiclass_trajectory(
        field,
        g,
        s,
        params,
        max_steps=args.steps,
        conserve_masses=args.mode == "multiclass-msd",
    )
    write_outputs(trajectory, args.output_dir, args.mode, report_params)
    if not trajectory.converged:
        _print_error(
            NumericalError(
                "a fixed-point solve missed its tolerance; outputs carry the "
                "best iterates"
            )
        )
        return 2
    return 0


def _cmd_sweep(args, report_params: dict) -> int:
    # the report holds one row per lambda, keyed by its value
    seen = set()
    for lam in args.lambdas:
        if lam in seen:
            raise ValueError(f"lambda {_fmt(lam)} is repeated in --lambdas")
        seen.add(lam)
    g, s, u0 = _load(args)
    rows = sweep_lambda(u0, g, s, args.tau, args.lambdas)
    table = {
        _fmt(row.lam): {"sup_distance_to_mbo": row.sup_distance_to_mbo}
        for row in rows
    }
    write_outputs(table, args.output_dir, args.command, report_params)
    return 0


def _cmd_converge(args, report_params: dict) -> int:
    g, s, u0 = _load(args)
    report = converge_tau(
        u0,
        g,
        s,
        epsilon=args.epsilon,
        t_final=args.t_final,
        taus=args.taus,
    )
    # json writes the report's tuples as lists; epsilon and t_final are params
    rows = {
        field.name: getattr(report, field.name)
        for field in fields(report)
        if field.name not in ("epsilon", "t_final")
    }
    write_outputs(rows, args.output_dir, args.command, report_params)
    return 0


def _cmd_oracle_check(args, report_params: dict) -> int:
    if args.instances < 1:
        raise ValueError(
            f"oracle-check needs at least one instance, got {args.instances}"
        )
    rng = np.random.default_rng(args.seed)
    total = 0
    failures = []
    for index in range(args.instances):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(n, rng, r=float(rng.choice([0.0, 0.5, 1.0])))
        s = spectral_decompose(g)
        u0 = rng.uniform(0.0, 1.0, size=n)
        lam = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        tau = float(rng.uniform(0.1, 0.6))
        params = SchemeParams.from_lambda(tau=tau, lam=lam)

        step = semi_discrete_step(u0, g, s, params)
        reference = variational_oracle(u0, g, s, params)
        certificate = dual_certificate(u0, step, g, s, params)
        threshold_step = mbo_step(u0, g, s, tau)
        best, _ = mbo_oracle(u0, g, s, tau)
        achieved = inner_product(threshold_step.u_next, diffuse(u0, tau, s), g)
        checks = {
            "step disagrees with oracle": (
                np.abs(step.u_next - reference).max() <= 1e-6
            ),
            "duality certificate violated": (
                certificate.gap <= 1e-8 * (1.0 + abs(certificate.primal))
                and certificate.slack <= 1e-9
            ),
            "threshold step not optimal": achieved >= best - 1e-10,
        }
        total += len(checks)
        failures += [
            f"instance {index}: {what}" for what, ok in checks.items() if not ok
        ]
    print(f"oracle-check passed {total - len(failures)}/{total}")
    if failures:
        _print_error(NumericalError("; ".join(failures[:3])))
        return 2
    return 0


# flags that name what to run and where, not how: left out of report params
_NOT_PARAMS = ("command", "mode", "graph_path", "init_path", "output_dir")


def _params_dict(args) -> dict:
    """The command's own flags that have a value, but ``_NOT_PARAMS``."""
    return {
        name: value
        for name, value in vars(args).items()
        if name not in _NOT_PARAMS and value is not None
    }


def _print_error(exc: BaseException):
    line = json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )
    print(line, file=sys.stderr)


def _float_list(raw: str) -> tuple:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reals, got {raw!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Takes ``-1e-3`` and ``-.5`` for numbers, not flags; so do subparsers.
    A usage error prints the usage, then the JSON line of every failure."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        _print_error(ValidationError(message))
        self.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is the name the commands read it by."""
    parser = _Parser(
        prog="graphphase",
        description=(
            "Mass-conserving phase-separation dynamics on weighted graphs"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument(
            "--graph", dest="graph_path", metavar="GRAPH", required=True,
            help="graph file",
        )
        sub.add_argument(
            "--init", dest="init_path", metavar="INIT", required=True,
            help="initial state file",
        )
        sub.add_argument(
            "--out", dest="output_dir", metavar="OUT", required=True,
            help="output directory",
        )

    def add_eps(sub, **kwargs):
        sub.add_argument(
            "--eps", dest="epsilon", metavar="EPS", type=float, **kwargs
        )

    run = commands.add_parser("run", help="iterate the two-class scheme")
    add_common(run)
    run.add_argument("--mode", choices=["sd", "mbo"], default="sd")
    add_eps(run, help="interface width (sd mode)")
    run.add_argument("--tau", type=float, required=True)
    run.add_argument("--steps", type=int, required=True)

    multi = commands.add_parser("multiclass", help="iterate a multi-class step")
    add_common(multi)
    multi.add_argument(
        "--mode",
        choices=["multiclass-sd", "multiclass-msd"],
        default="multiclass-msd",
    )
    add_eps(multi, required=True)
    multi.add_argument("--tau", type=float, required=True)
    multi.add_argument("--steps", type=int, required=True)

    sweep = commands.add_parser(
        "sweep-lambda", help="distance of the relaxed step to thresholding"
    )
    add_common(sweep)
    sweep.add_argument("--tau", type=float, required=True)
    sweep.add_argument(
        "--lambdas", type=_float_list, required=True, help="comma-separated",
    )

    conv = commands.add_parser(
        "converge-tau", help="step-size refinement study"
    )
    add_common(conv)
    add_eps(conv, required=True)
    conv.add_argument("--t-final", type=float, required=True)
    conv.add_argument(
        "--taus", type=_float_list, required=True, help="comma-separated"
    )

    oracle = commands.add_parser(
        "oracle-check", help="run the built-in random oracle suite"
    )
    oracle.add_argument("--seed", type=int, default=7)
    oracle.add_argument("--instances", type=int, default=20)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "multiclass": _cmd_multiclass,
    "sweep-lambda": _cmd_sweep,
    "converge-tau": _cmd_converge,
    "oracle-check": _cmd_oracle_check,
}


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args, _params_dict(args))
    except (ValidationError, ValueError) as exc:
        _print_error(exc)
        return 1
    except OSError as exc:
        _print_error(IoError(str(exc)))
        return 1
    except NumericalError as exc:
        _print_error(exc)
        return 2


def main():
    sys.exit(cli_main())
