"""Benchmark of the graphphase CLI: one workload per call, one JSON line out.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload sd-n2000 --seed 1 --seconds 25 --trace 0

Each operation is one ``graphphase`` command in a fresh process, timed from
outside; the run repeats whole rounds of its operations until ``--seconds``
would be exceeded.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics (medians per run); with ``--trace 1`` every untraced
operation is paired with a traced replay of the same command and the line
carries the per-layer metrics.  Every operation's outputs are checked (see
``checks.py``); operations that exit non-zero or fail a check count as
failed.  ``--smoke`` swaps in the n=50 inputs of ``workloads.SMOKE_SPECS``.
Environment, per-operation samples and outputs go under ``bench/_work``.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BLAS_THREADS = 1     # see README: one thread gave the steadier eigh
OP_TIMEOUT = 60.0    # seconds before an operation is killed (10x the longest)
MOVE_TOL = 1e-9      # a step moves when its sup-norm change exceeds this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))

# before numpy is first imported, here or in a child
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
}
LOOPS = (
    "trajectory.run_trajectory",
    "trajectory.run_multiclass_trajectory",
    "trajectory.sweep_lambda",
)
STEPS = (
    "scheme.semi_discrete_step",
    "scheme.mbo_step",
    "multiclass.mass_conserving_step",
)
# per-layer metric -> span whose median duration per call it reports
LAYER_TIMES = {
    "io_cli.parse_graph_file_s": "io_cli.parse_graph_file",
    "io_cli.parse_field_file_s": "io_cli.parse_field_file",
    "io_cli.write_outputs_s": "io_cli.write_outputs",
    "graph_core.build_graph_s": "graph_core.build_graph",
    "graph_core.spectral_decompose_s": "graph_core.spectral_decompose",
    "graph_core.diffuse_s": "graph_core.diffuse",
    "graph_core.dirichlet_energy_s": "graph_core.dirichlet_energy",
    "scheme.semi_discrete_step_s": "scheme.semi_discrete_step",
    "scheme.mbo_step_s": "scheme.mbo_step",
    "scheme.threshold_levels_s": "scheme.threshold_levels",
    "scheme.solve_multiplier_s": "scheme.solve_multiplier",
    "scheme.lyapunov_energy_s": "scheme.lyapunov_energy",
    "scheme.ginzburg_landau_s": "scheme.ginzburg_landau",
    "multiclass.mass_conserving_step_s": "multiclass.mass_conserving_step",
    "multiclass.project_rows_to_simplex_s": "multiclass.project_rows_to_simplex",
    "multiclass.multi_obstacle_energy_s": "multiclass.multi_obstacle_energy",
    "trajectory.sweep_lambda_s": "trajectory.sweep_lambda",
}


class Op:
    """One command run: its timings, exit code and output directory."""

    def __init__(self, instance, out_dir, traced, wall, code, rss_mb, spans):
        self.instance = instance
        self.out_dir = out_dir
        self.traced = traced
        self.wall = wall
        self.code = code
        self.rss_mb = rss_mb
        self.spans = spans
        self.errors = [] if code == 0 else [f"exit code {code}"]
        self.values = None   # end-to-end sample, for clean untraced runs

    def loop(self):
        return next(span for span in self.spans if span[0] in LOOPS)

    def sample(self, steps):
        cli = next(span for span in self.spans if span[0] == "io_cli.cli_main")
        loop = self.loop()
        return {
            "wall_s": self.wall,
            "setup_s": loop[1] - cli[1],
            "steps_per_s": steps / (loop[2] - loop[1]),
            "peak_rss_mb": self.rss_mb,
        }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("GRAPH_PHASE_THREADS", None)   # sweep-lambda runs serially
    return env


def run_op(instance, argv, out_dir, traced, env):
    """Run one command in a fresh process; time it and read its peak RSS."""
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans.json")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), spans_path]
    cmd += ["--trace"] if traced else []
    cmd += ["--", *argv]
    with open(os.path.join(out_dir, "console.txt"), "wb") as console:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=console, stderr=console
        )
        timer = threading.Timer(OP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        os.remove(spans_path)
    return Op(instance, out_dir, traced, wall, proc.returncode,
              usage.ru_maxrss / 1024.0, spans)


def output_files(out_dir):
    return sorted(
        name for name in os.listdir(out_dir)
        if name in ("log.csv", "final_state.txt", "report.json")
    )


def check_first(spec, inputs, out_dir):
    """Full checks of an instance's first output, against checks.py."""
    import checks
    from graphphase import (
        SchemeParams, mbo_step, parse_graph_file, semi_discrete_step,
        spectral_decompose,
    )

    ref = checks.Reference(spec.n, inputs.edges, spec.r)
    if spec.kind == "sweep":
        return checks.check_sweep(ref, inputs.init, out_dir, spec.tau,
                                  spec.lambdas)
    if spec.kind == "msd":
        return checks.check_multiclass(ref, inputs.init, out_dir)
    errors = checks.check_run(ref, inputs.init, out_dir)
    final = checks.read_state(os.path.join(out_dir, "final_state.txt"))
    g = parse_graph_file(inputs.graph_path)
    s = spectral_decompose(g)
    if spec.kind == "sd":
        params = SchemeParams.from_epsilon(epsilon=spec.epsilon, tau=spec.tau)
        after = semi_discrete_step(final, g, s, params).u_next
        errors += checks.check_next_relaxed(ref, final, after, spec.tau,
                                            params.lam)
    else:
        after = mbo_step(final, g, s, spec.tau).u_next
        errors += checks.check_next_threshold(ref, final, after, spec.tau)
    return errors


def count_steps(spec, out_dir):
    """Scheme steps an output records; a sweep adds its MBO reference."""
    if spec.kind == "sweep":
        return len(spec.lambdas) + 1
    with open(os.path.join(out_dir, "log.csv"), encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 2


def per_instance_mean(ops, value):
    """Mean over instances of the median over each instance's operations."""
    by_instance = {}
    for op in ops:
        by_instance.setdefault(op.instance, []).append(value(op))
    return statistics.fmean(
        statistics.median(values) for values in by_instance.values()
    )


def _median(values):
    return statistics.median(values) if values else 0.0


def _loop_counts(op):
    """Self time of the stepping-loop span and the step counts of one operation."""
    loop_index = op.spans.index(op.loop())
    loop = op.spans[loop_index]
    children = [span for span in op.spans if span[3] == loop_index]
    notes = [span[4] for span in op.spans if span[0] in STEPS]
    return {
        "trajectory.self_s": (loop[2] - loop[1])
        - sum(span[2] - span[1] for span in children),
        "trajectory.steps": len(notes),
        "trajectory.moving_steps": sum(change > MOVE_TOL for change, _ in notes),
        "multiclass.fixed_point_iterations": sum(it for _, it in notes),
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics from the spans of the traced operations.

    Times are medians per call; a layer the workload never calls reads 0.
    """
    durations = {}
    for op in traced:
        for name, start, end, _, _ in op.spans:
            durations.setdefault(name, []).append(end - start)
    metrics = {
        metric: (_median(durations.get(span, [])), "s")
        for metric, span in LAYER_TIMES.items()
    }
    metrics["scheme.levels"] = (_median([
        span[4] for op in traced for span in op.spans
        if span[0] == "scheme.threshold_levels"
    ]), "count")
    rows = [_loop_counts(op) for op in traced]
    for name in ("trajectory.self_s", "trajectory.steps",
                 "trajectory.moving_steps", "multiclass.fixed_point_iterations"):
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (_median([row[name] for row in rows]), unit)
    overhead = 0.0
    if traced and untraced:
        overhead = (per_instance_mean(traced, lambda op: op.wall)
                    - per_instance_mean(untraced, lambda op: op.wall))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def environment():
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for folder, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n=50 inputs, for a quick end-to-end test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphphase", "__init__.py")):
        print(f"no graphphase sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import workloads

    specs = workloads.SMOKE_SPECS if args.smoke else workloads.SPECS
    if args.workload not in specs:
        print(f"unknown workload {args.workload!r}; one of {sorted(specs)}",
              file=sys.stderr)
        return 2
    spec = specs[args.workload]
    work = os.path.join(BENCH, "_work", spec.name)
    shutil.rmtree(work, ignore_errors=True)
    setup_start = perf_counter()
    instances = [
        workloads.make_inputs(spec, args.seed, k, os.path.join(work, f"in{k}"))
        for k in range(spec.instances)
    ]
    env = child_env()
    # compile the package and load numpy once, so no operation pays for it
    subprocess.run([sys.executable, "-c", "import graphphase.io_cli"],
                   cwd=ROOT, env=env, check=True)
    record = {"environment": environment(), "workload": spec.name,
              "seed": args.seed, "trace": args.trace,
              "prepare_s": perf_counter() - setup_start}
    print(json.dumps(record["environment"], sort_keys=True), file=sys.stderr)

    ops = []
    start = perf_counter()
    rounds = 0
    while True:
        for k, inputs in enumerate(instances):
            for traced in (False, True) if args.trace else (False,):
                out_dir = os.path.join(work, f"op{len(ops)}")
                argv = workloads.command(inputs, out_dir)
                ops.append(run_op(k, argv, out_dir, traced, env))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    measured_s = perf_counter() - start

    # the first clean output of each instance gets the full checks; every
    # other output of that instance must be byte-identical to it, and so
    # shares its verdict
    firsts = {}
    for op in ops:
        if op.code != 0:
            continue
        first = firsts.get(op.instance)
        if first is None:
            firsts[op.instance] = op
            op.errors += check_first(spec, instances[op.instance], op.out_dir)
            continue
        names = output_files(first.out_dir)
        if output_files(op.out_dir) != names or not all(
            filecmp.cmp(os.path.join(first.out_dir, name),
                        os.path.join(op.out_dir, name), shallow=False)
            for name in names
        ):
            op.errors.append(f"outputs differ from {first.out_dir}")
        else:
            op.errors += first.errors
        shutil.rmtree(op.out_dir)

    failed = [op for op in ops if op.errors]
    good = [op for op in ops if not op.errors]
    untraced = [op for op in good if not op.traced]
    for op in untraced:
        op.values = op.sample(count_steps(spec, firsts[op.instance].out_dir))
    if args.trace:
        metrics = layer_metrics([op for op in good if op.traced], untraced)
    else:
        metrics = {
            name: (per_instance_mean(untraced, lambda op, n=name: op.values[n])
                   if untraced else 0.0, unit)
            for name, unit in END_TO_END.items()
        }
    record.update(
        measured_s=measured_s, rounds=rounds,
        samples=[{**op.values, "instance": op.instance} for op in untraced],
        failures=[{"op": op.out_dir, "errors": op.errors} for op in failed],
    )
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for op in failed:
        print(f"failed {op.out_dir}: {'; '.join(op.errors)}", file=sys.stderr)
    print(json.dumps({
        # a failed check is a wrong output; a non-zero exit alone is not
        "correct": not any(op.code == 0 and op.errors for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
