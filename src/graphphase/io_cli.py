"""File formats, run configuration, and the command-line driver.

Graphs and states travel as small text files so every run is auditable by
eye; all floats are written with 17 significant digits, which round-trips
float64 exactly.  The driver maps validation problems to exit code 1 and
numerical failures to exit code 2, and prints a single machine-readable
JSON line on stderr when it fails.

Each layer checks one thing: argparse checks flags and their types and
fills the ``RunConfig`` fields directly; ``RunConfig`` checks that each mode
has what it needs and that counts are in range; the library functions check
the numerics.  The columns of ``log.csv`` are the fields of ``LogEntry``, in
order.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

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
from .scheme import (
    GROUP_TOL,
    SchemeParams,
    dual_certificate,
    mbo_step,
    semi_discrete_step,
)
from .trajectory import (
    LogEntry,
    Trajectory,
    converge_tau,
    run_multiclass_trajectory,
    run_trajectory,
    sweep_lambda,
)

__all__ = [
    "RunConfig",
    "parse_graph_file",
    "parse_field_file",
    "write_outputs",
    "cli_main",
    "main",
]

@dataclass(frozen=True)
class RunConfig:
    """One command invocation, validated per mode before any work runs."""

    mode: str
    graph_path: str | None = None
    init_path: str | None = None
    epsilon: float | None = None
    tau: float | None = None
    lambda_list: tuple | None = None
    taus: tuple | None = None
    t_final: float | None = None
    steps: int | None = None
    output_dir: str | None = None
    seed: int = 0
    group_tol: float = GROUP_TOL
    fp_tol: float = 1e-10
    max_iter: int = 500
    num_classes: int | None = None
    grid_points: int = 9
    instances: int = 20

    def __post_init__(self):
        if self.mode not in _COMMANDS:
            raise ValueError(f"unknown mode {self.mode!r}")
        needs_files = self.mode != "oracle-check"
        if needs_files:
            for name in ("graph_path", "init_path", "output_dir"):
                if getattr(self, name) is None:
                    raise ValueError(f"mode {self.mode} requires {name}")
        if self.mode in ("sd", "mbo", "multiclass-sd", "multiclass-msd"):
            if self.tau is None or self.steps is None:
                raise ValueError(f"mode {self.mode} requires tau and steps")
            if self.mode != "mbo" and self.epsilon is None:
                raise ValueError(f"mode {self.mode} requires epsilon")
        if self.mode == "sweep-lambda":
            if self.tau is None or not self.lambda_list:
                raise ValueError("sweep-lambda requires tau and a lambda list")
        if self.mode == "converge-tau":
            if self.epsilon is None or self.t_final is None or not self.taus:
                raise ValueError(
                    "converge-tau requires epsilon, t_final, and a tau list"
                )
        if self.mode == "oracle-check" and self.instances < 1:
            raise ValueError(
                f"oracle-check needs at least one instance, got {self.instances}"
            )


def _tokens(path):
    """Yield (1-based line number, token list) for significant lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield number, stripped.split()


def parse_graph_file(path: str) -> Graph:
    """Read a graph file: header ``vertices N r R``, then ``i j w`` lines.

    ``#`` starts a comment line; indices are 0-based; every failure names
    the offending line.
    """
    header = None
    edges = []
    seen = {}
    for number, tokens in _tokens(path):
        if header is None:
            if len(tokens) != 4 or tokens[0] != "vertices" or tokens[2] != "r":
                raise ParseError(
                    "expected header 'vertices N r R'", line=number
                )
            try:
                header = (int(tokens[1]), float(tokens[3]))
            except ValueError:
                raise ParseError(
                    "header needs an integer count and a real exponent",
                    line=number,
                ) from None
            continue
        if len(tokens) != 3:
            raise ParseError("expected 'i j w' edge line", line=number)
        try:
            i, j, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise ParseError(
                "edge needs two integer endpoints and a real weight",
                line=number,
            ) from None
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdge(
                f"edge {key} already given on line {seen[key]}", line=number
            )
        seen[key] = number
        edges.append((i, j, w))
    if header is None:
        raise ParseError("file has no header line", line=1)
    return build_graph(header[0], edges, r=header[1])


def parse_field_file(path: str, g: Graph, num_classes: int | None = None):
    """Read a state file: ``i value`` rows, or ``i v1 ... vK`` multi-class.

    Every vertex must appear exactly once.  Two-class values must lie in
    [0, 1]; multi-class rows must sum to 1 within 1e-8 and are renormalized
    to sum exactly 1.
    """
    if num_classes is not None and num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    width = 1 if num_classes is None else num_classes
    values = np.full((g.num_vertices, width), np.nan)
    lines = {}
    for number, tokens in _tokens(path):
        if len(tokens) != 1 + width:
            raise ParseError(
                f"expected a vertex index and {width} value(s)", line=number
            )
        try:
            vertex = int(tokens[0])
            row = [float(token) for token in tokens[1:]]
        except ValueError:
            raise ParseError("malformed number", line=number) from None
        if not 0 <= vertex < g.num_vertices:
            raise ParseError(
                f"vertex {vertex} outside 0..{g.num_vertices - 1}", line=number
            )
        if vertex in lines:
            raise ParseError(
                f"vertex {vertex} already given on line {lines[vertex]}",
                line=number,
            )
        lines[vertex] = number
        values[vertex] = row
    missing = [i for i in range(g.num_vertices) if i not in lines]
    if missing:
        raise MissingVertex(f"no value for vertex {missing[0]}")
    if num_classes is None:
        field = values[:, 0]
        if field.min() < 0.0 or field.max() > 1.0:
            bad = int(np.argmax((field < 0.0) | (field > 1.0)))
            raise DomainViolation(
                f"vertex {bad} has value {field[bad]}, outside [0, 1]"
            )
        return field
    sums = values.sum(axis=1)
    off = np.abs(sums - 1.0)
    if off.max() > 1e-8:
        bad = int(off.argmax())
        raise ParseError(
            f"row for vertex {bad} sums to {sums[bad]}, expected 1",
            line=lines[bad],
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
    if isinstance(state, SimplexField):
        rows = state.values
        return [
            " ".join([str(i)] + [_fmt(v) for v in rows[i]])
            for i in range(rows.shape[0])
        ]
    return [f"{i} {_fmt(v)}" for i, v in enumerate(state)]


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
    for _, tokens in _tokens(path):
        return len(tokens) - 1
    raise ParseError("state file has no data lines", line=1)


def _scheme_params(config: RunConfig) -> SchemeParams:
    if config.mode == "mbo":
        return SchemeParams.from_lambda(tau=config.tau, lam=1.0)
    return SchemeParams.from_epsilon(epsilon=config.epsilon, tau=config.tau)


def _load(config: RunConfig, num_classes: int | None = None):
    """Graph, spectrum and start state named by ``config``."""
    g = parse_graph_file(config.graph_path)
    s = spectral_decompose(g)
    return g, s, parse_field_file(config.init_path, g, num_classes)


def _cmd_run(config: RunConfig) -> int:
    g, s, u0 = _load(config)
    params = _scheme_params(config)
    trajectory = run_trajectory(
        u0, g, s, params, max_steps=config.steps, group_tol=config.group_tol
    )
    write_outputs(trajectory, config.output_dir, config.mode, _params_dict(config))
    return 0


def _cmd_multiclass(config: RunConfig) -> int:
    g, s, field = _load(
        config, config.num_classes or _infer_classes(config.init_path)
    )
    params = _scheme_params(config)
    trajectory = run_multiclass_trajectory(
        field,
        g,
        s,
        params,
        max_steps=config.steps,
        conserve_masses=config.mode == "multiclass-msd",
        max_iter=config.max_iter,
        fp_tol=config.fp_tol,
    )
    write_outputs(trajectory, config.output_dir, config.mode, _params_dict(config))
    if not trajectory.converged:
        _print_error(
            NumericalError(
                "a fixed-point solve missed its tolerance; outputs carry the "
                "best iterates"
            )
        )
        return 2
    return 0


def _cmd_sweep(config: RunConfig) -> int:
    g, s, u0 = _load(config)
    rows = sweep_lambda(
        u0, g, s, config.tau, config.lambda_list, group_tol=config.group_tol
    )
    table = {
        _fmt(row.lam): {"sup_distance_to_mbo": row.sup_distance_to_mbo}
        for row in rows
    }
    write_outputs(table, config.output_dir, config.mode, _params_dict(config))
    return 0


def _cmd_converge(config: RunConfig) -> int:
    g, s, u0 = _load(config)
    report = converge_tau(
        u0,
        g,
        s,
        epsilon=config.epsilon,
        t_final=config.t_final,
        taus=config.taus,
        grid_points=config.grid_points,
    )
    # json writes the report's tuples as lists; epsilon and t_final are params
    rows = {
        field.name: getattr(report, field.name)
        for field in fields(report)
        if field.name not in ("epsilon", "t_final")
    }
    write_outputs(rows, config.output_dir, config.mode, _params_dict(config))
    return 0


def _cmd_oracle_check(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    total = 0
    failures = []
    for index in range(config.instances):
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


# fields that name what to run and where, not how: left out of report params
_NOT_PARAMS = ("mode", "graph_path", "init_path", "output_dir", "instances")


def _params_dict(config: RunConfig) -> dict:
    """Set fields of ``config`` but ``_NOT_PARAMS``; ``lambda_list`` as ``lambdas``."""
    out = {
        field.name: getattr(config, field.name)
        for field in fields(config)
        if field.name not in _NOT_PARAMS and getattr(config, field.name) is not None
    }
    if "lambda_list" in out:
        out["lambdas"] = out.pop("lambda_list")
    return out


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


def _build_parser() -> argparse.ArgumentParser:
    """Flags write straight into the ``RunConfig`` field of the same meaning."""
    parser = argparse.ArgumentParser(
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
        sub.add_argument("--seed", type=int, default=0)

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
    run.add_argument("--group-tol", type=float, default=GROUP_TOL)

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
    multi.add_argument("--fp-tol", type=float, default=1e-10)
    multi.add_argument("--max-iter", type=int, default=500)

    sweep = commands.add_parser(
        "sweep-lambda", help="distance of the relaxed step to thresholding"
    )
    add_common(sweep)
    sweep.set_defaults(mode="sweep-lambda")
    sweep.add_argument("--tau", type=float, required=True)
    sweep.add_argument(
        "--lambdas", dest="lambda_list", metavar="LAMBDAS", type=_float_list,
        required=True, help="comma-separated",
    )
    sweep.add_argument("--group-tol", type=float, default=GROUP_TOL)

    conv = commands.add_parser(
        "converge-tau", help="step-size refinement study"
    )
    add_common(conv)
    conv.set_defaults(mode="converge-tau")
    add_eps(conv, required=True)
    conv.add_argument("--t-final", type=float, required=True)
    conv.add_argument(
        "--taus", type=_float_list, required=True, help="comma-separated"
    )
    conv.add_argument("--grid-points", type=int, default=9)

    oracle = commands.add_parser(
        "oracle-check", help="run the built-in random oracle suite"
    )
    oracle.set_defaults(mode="oracle-check")
    oracle.add_argument("--seed", type=int, default=7)
    oracle.add_argument("--instances", type=int, default=20)
    return parser


_COMMANDS = {
    "sd": _cmd_run,
    "mbo": _cmd_run,
    "multiclass-sd": _cmd_multiclass,
    "multiclass-msd": _cmd_multiclass,
    "sweep-lambda": _cmd_sweep,
    "converge-tau": _cmd_converge,
    "oracle-check": _cmd_oracle_check,
}


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        options = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    del options["command"]
    try:
        config = RunConfig(**options)
        return _COMMANDS[config.mode](config)
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


if __name__ == "__main__":
    main()
