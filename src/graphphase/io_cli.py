"""File formats and the command-line driver.

Graphs and states travel as small text files so every run is auditable by
eye; all floats are written with 17 significant digits, which round-trips
float64 exactly.  The driver maps validation problems to exit code 1 and
numerical failures to exit code 2, and prints a single machine-readable
JSON line on stderr when it fails.

Validation happens in two places: argparse checks that a command has its
flags and that they have their types, and the library functions check the
numerics.  The commands read the argparse namespace as it is; the two flag
combinations argparse cannot refuse (``run --mode sd`` without ``--eps`` and
``oracle-check --instances`` below 1) are refused by the command that reads
them, before any file is read.  ``multiclass --classes`` below 2, zero
included, is refused by :func:`parse_field_file` before it reads the state
file.  The columns of ``log.csv`` are the fields of ``LogEntry``, in order.
"""

import argparse
import json
import os
import re
import sys
from contextlib import suppress
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
from .multiclass import FP_TOL, MAX_ITER, SimplexField
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
    "main",
]

def _tokens(path):
    """Numbers, token counts and tokens of the lines not blank or ``#``."""
    numbers, counts, flat = [], [], []
    with open(path, "r", encoding="utf-8") as handle:
        for number, tokens in enumerate(map(str.split, handle), start=1):
            if tokens and not tokens[0].startswith("#"):
                numbers.append(number)
                counts.append(len(tokens))
                flat += tokens
    return numbers, counts, flat


def _table(numbers, counts, flat, ints, size, wrong_size, malformed):
    """The lines of :func:`_tokens` as an (E, size) float table, converted a
    column at a time: ``ints`` integers, then reals.  On failure the first
    bad line is named: ``wrong_size`` for a wrong token count, ``malformed``
    for a token ``int`` or ``float`` refuses.
    """
    if counts.count(size) == len(counts):
        with suppress(ValueError, OverflowError):  # the loop below names it
            return np.column_stack([  # Python ints: past int64 is a float
                np.fromiter(map(int if c < ints else float, flat[c::size]), float)
                for c in range(size)
            ])
    tokens = iter(flat)
    for number, count in zip(numbers, counts):
        row = [next(tokens) for _ in range(count)]
        if count != size:
            raise ParseError(wrong_size, line=number)
        try:  # an integer beyond the float range is malformed as well
            [*map(float, map(int, row[:ints])), *map(float, row[ints:])]
        except (ValueError, OverflowError):
            raise ParseError(malformed, line=number) from None


def _c_table(path, ints, size, header=False):
    """The table of :func:`_table`, read by numpy's C reader, or None.

    Returns the first line not blank or ``#`` as ``(number, tokens)`` if it
    is a ``header`` (else ``(0, None)``), and the lines after it as an
    (E, size) float table, ``ints`` int64 columns and then float64 ones.
    Returns None where the C reader refuses the file: a ``#`` line among
    the data, syntax only ``int`` or ``float`` take (``1_0``, past int64), a
    wrong token count, no data.  The exact reader then names the bad line or
    reads the file.  Text that is not ASCII is not handed over, because
    numpy's integer parser reads letters past ASCII as digits (U+01FE before
    ``0`` as 4620) and crashes on some.  Where it accepts ASCII text, the C
    reader reads the numbers ``int`` and ``float`` read.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:  # _tokens names the byte as it always has
        return None
    if not text.isascii():
        return None
    lines = text.split("\n")  # the lines that iterating the file yields
    first = (0, None)
    if header:
        first = next(((number, tokens) for number, tokens
                      in enumerate(map(str.split, lines), start=1)
                      if tokens and not tokens[0].startswith("#")), None)
    if first is None or not any(map(str.strip, lines[first[0]:])):
        return None  # no data, which np.loadtxt warns of
    columns = [(f"c{c}", np.int64 if c < ints else np.float64)
               for c in range(size)]
    try:
        rows = np.loadtxt(lines, dtype=columns, comments=None, encoding="utf-8",
                          skiprows=first[0], ndmin=1)
    except ValueError:
        return None
    return first, np.column_stack([rows[name] for name, _ in columns])


def parse_graph_file(path: str) -> Graph:
    """Read a graph file: header ``vertices N r R``, then ``i j w`` lines.

    ``#`` starts a comment line; indices are 0-based.  Syntax errors come
    first and name the first bad line.  Then the edge checks of
    :func:`~graphphase.graph_core.build_graph` run by category: range, self
    loops and weights name the edge, a repeat its line and the line of its
    first listing, and connectivity the unreachable vertices.  A well-formed
    file is read by numpy's C reader.  The exact reader, ``str.split`` and
    ``int`` or ``float`` per token, reads a file the C reader refuses and
    names its first bad line; it also gives the line numbers of a repeat.
    """
    fast = _c_table(path, 2, 3, header=True)
    if fast is not None:
        (number, tokens), edges = fast
    else:
        numbers, counts, flat = _tokens(path)
        if not numbers:
            raise ParseError("file has no header line", line=1)
        number, tokens, edges = numbers[0], flat[:counts[0]], None
    if len(tokens) != 4 or tokens[0] != "vertices" or tokens[2] != "r":
        raise ParseError("expected header 'vertices N r R'", line=number)
    try:
        num_vertices, r = int(tokens[1]), float(tokens[3])
    except ValueError:
        raise ParseError(
            "header needs an integer count and a real exponent", line=number
        ) from None
    if edges is None:
        edges = _table(numbers[1:], counts[1:], flat[counts[0]:], 2, 3,
                       "expected 'i j w' edge line",
                       "edge needs two integer endpoints and a real weight")
    try:
        return build_graph(num_vertices, edges, r=r)
    except DuplicateEdge as exc:
        first, repeat = exc.positions
        numbers = _tokens(path)[0][1:]
        pair = tuple(sorted(int(end) for end in edges[repeat, :2]))
        raise DuplicateEdge(f"edge {pair} already given on line "
                            f"{numbers[first]}", line=numbers[repeat]) from None


def parse_field_file(path: str, g: Graph, num_classes: int | None = None):
    """Read a state file: ``i value`` rows, or ``i v1 ... vK`` multi-class.

    Every vertex must appear exactly once.  Two-class values must lie in
    [0, 1], which NaN does not; multi-class rows must sum to 1 within 1e-8
    and are renormalized to sum exactly 1.  As in :func:`parse_graph_file`,
    a well-formed file is read by numpy's C reader, and the exact reader
    names any failure and gives the line numbers of the checks that name one.
    """
    if num_classes is not None and num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    width = 1 if num_classes is None else num_classes
    n = g.num_vertices
    fast = _c_table(path, 1, 1 + width)
    if fast is not None:
        table = fast[1]
    else:
        table = _table(*_tokens(path), 1, 1 + width,
                       f"expected a vertex index and {width} value(s)",
                       "malformed number")
    vertex = table[:, 0]
    # each value's first row, and for each row the first row of its value
    present, first, same = np.unique(vertex, return_index=True,
                                     return_inverse=True)
    outside = (vertex < 0) | (vertex >= n)
    bad = outside | (first[same] != np.arange(len(vertex)))  # or a repeat
    if bad.any():
        k = int(bad.argmax())
        numbers = _tokens(path)[0]
        given = numbers[first[same[k]]]
        raise ParseError(
            f"vertex {int(vertex[k])} outside 0..{n - 1}" if outside[k]
            else f"vertex {int(vertex[k])} already given on line {given}",
            line=numbers[k],
        )
    if len(present) < n:
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
            line=_tokens(path)[0][first[bad]],
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
    rows = state.values if isinstance(state, SimplexField) else state[:, None]
    return [" ".join([str(i)] + [_fmt(v) for v in row])
            for i, row in enumerate(rows)]


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


def _infer_classes(path: str) -> int:
    """Class count of a state file: the width of its first line that is not
    blank or ``#``, as :func:`_tokens` reads them, less the vertex column."""
    with open(path, "r", encoding="utf-8") as handle:
        for tokens in map(str.split, handle):
            if tokens and not tokens[0].startswith("#"):
                return len(tokens) - 1
    raise ParseError("state file has no data lines", line=1)


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
    g, s, field = _load(args, _infer_classes(args.init_path)
                        if args.num_classes is None else args.num_classes)
    trajectory = run_multiclass_trajectory(
        field,
        g,
        s,
        params,
        max_steps=args.steps,
        conserve_masses=args.mode == "multiclass-msd",
        max_iter=args.max_iter,
        fp_tol=args.fp_tol,
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
        grid_points=args.grid_points,
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
        raise ValueError(f"expected comma-separated reals, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    """Takes ``-1e-3`` and ``-.5`` for numbers, not flags; so do subparsers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


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
    multi.add_argument(
        "--classes", dest="num_classes", metavar="CLASSES", type=int,
        help="class count (inferred)",
    )
    multi.add_argument("--fp-tol", type=float, default=FP_TOL)
    multi.add_argument("--max-iter", type=int, default=MAX_ITER)

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
    conv.add_argument("--grid-points", type=int, default=9)

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
