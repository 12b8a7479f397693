"""Seeded inputs and CLI command lines for the benchmark workloads.

Every workload is one ``graphphase`` command on files written here.  The
inputs depend only on the seed and the workload's parameters: the graph comes
from ``random_connected_graph`` and the start state from the same generator,
so one seed gives the same files on every machine.  The sd, mbo and sweep
workloads share their graph; the sweep shares the sd start as well.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from graphphase import random_connected_graph


@dataclass(frozen=True)
class Spec:
    """How one workload makes its inputs and which command it runs."""

    name: str
    kind: str            # "sd", "mbo", "sweep" or "msd"
    n: int
    r: float
    tau: float
    epsilon: float | None = None
    steps: int | None = None
    classes: int | None = None
    lambdas: tuple = field(default=(), repr=False)
    instances: int = 1   # inputs drawn per seed; each run cycles through all


def lambda_grid(points: int, ladder: int) -> tuple:
    """``points`` values evenly inside (0, 1), then 1 - 2^-j for j <= ladder.

    The ladder starts above the even grid, so the list ascends strictly.
    """
    even = [k / (points + 1) for k in range(1, points + 1)]
    top = even[-1]
    rungs = [1.0 - 2.0**-j for j in range(1, ladder + 1)]
    return tuple(even + [lam for lam in rungs if lam > top])


SPECS = {
    "sd-n2000": Spec("sd-n2000", "sd", n=2000, r=0.5, tau=0.1, epsilon=0.4,
                     steps=40),
    "mbo-n2000": Spec("mbo-n2000", "mbo", n=2000, r=0.5, tau=2.0, steps=200),
    "sweep-n2000": Spec("sweep-n2000", "sweep", n=2000, r=0.5, tau=0.1,
                        lambdas=lambda_grid(32, 30)),
    # instances differ by ~12% in stepping time, so each run averages eight
    "msd-n200": Spec("msd-n200", "msd", n=200, r=0.5, tau=0.2, epsilon=0.4,
                     steps=8, classes=3, instances=8),
}

SMOKE_SPECS = {
    "sd-n2000": Spec("sd-n2000", "sd", n=50, r=0.5, tau=0.1, epsilon=0.4, steps=5),
    "mbo-n2000": Spec("mbo-n2000", "mbo", n=50, r=0.5, tau=2.0, steps=5),
    "sweep-n2000": Spec(
        "sweep-n2000", "sweep", n=50, r=0.5, tau=0.1, lambdas=lambda_grid(4, 30)
    ),
    "msd-n200": Spec(
        "msd-n200", "msd", n=50, r=0.5, tau=0.2, epsilon=0.4, steps=3, classes=2,
        instances=2,
    ),
}


@dataclass(frozen=True)
class Inputs:
    """The files of one workload and the arrays they were written from."""

    spec: Spec
    graph_path: str
    init_path: str
    edges: np.ndarray    # (E, 3) rows i, j, w with i < j
    init: np.ndarray     # (n,) two-class start or (n, K) simplex rows


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def make_inputs(spec: Spec, seed: int, instance: int, directory: str) -> Inputs:
    """Write the graph and start files of one instance of ``spec``."""
    os.makedirs(directory, exist_ok=True)
    # graph and start draw from their own streams, so the two-class
    # workloads share one graph per seed whatever start they draw on it
    graph_rng, start_rng = (
        np.random.default_rng([seed, spec.n, instance, stream])
        for stream in (0, 1)
    )
    g = random_connected_graph(
        spec.n, graph_rng, r=spec.r, extra_edges=3 * spec.n
    )
    edges = np.array(g.edges, dtype=float)
    if spec.kind == "msd":
        raw = start_rng.uniform(0.0, 1.0, size=(spec.n, spec.classes))
        raw /= raw.sum(axis=1, keepdims=True)
        raw[:, -1] = 1.0 - raw[:, :-1].sum(axis=1)
        init = raw
    elif spec.kind == "mbo":
        init = (start_rng.uniform(0.0, 1.0, size=spec.n) < 0.5).astype(float)
    else:
        init = start_rng.uniform(0.0, 1.0, size=spec.n)

    graph_path = os.path.join(directory, "graph.txt")
    lines = [f"vertices {spec.n} r {_fmt(spec.r)}"]
    lines += [f"{int(i)} {int(j)} {_fmt(w)}" for i, j, w in edges]
    with open(graph_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    init_path = os.path.join(directory, "init.txt")
    rows = init.reshape(spec.n, -1)
    with open(init_path, "w", encoding="utf-8") as handle:
        handle.write(
            "\n".join(
                " ".join([str(i)] + [_fmt(v) for v in row])
                for i, row in enumerate(rows)
            )
            + "\n"
        )
    return Inputs(spec, graph_path, init_path, edges, init)


def command(inputs: Inputs, out_dir: str) -> list:
    """The ``graphphase`` arguments a user would type for this workload."""
    spec = inputs.spec
    common = ["--graph", inputs.graph_path, "--init", inputs.init_path,
              "--out", out_dir]
    if spec.kind in ("sd", "mbo"):
        argv = ["run", *common, "--mode", spec.kind, "--tau", repr(spec.tau),
                "--steps", str(spec.steps)]
        if spec.kind == "sd":
            argv += ["--eps", repr(spec.epsilon)]
        return argv
    if spec.kind == "sweep":
        return ["sweep-lambda", *common, "--tau", repr(spec.tau),
                "--lambdas", ",".join(repr(lam) for lam in spec.lambdas)]
    return ["multiclass", *common, "--mode", "multiclass-msd",
            "--eps", repr(spec.epsilon), "--tau", repr(spec.tau),
            "--steps", str(spec.steps)]
