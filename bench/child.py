"""Run one ``graphphase`` command through ``cli_main`` and record its spans.

Usage::

    python3 bench/child.py SPANS_JSON [--trace] -- GRAPHPHASE_ARGS...

The command runs exactly as the ``graphphase`` entry point runs it.  Spans
are recorded around calls from this file into the package's modules, by
rebinding the module-level names the package calls them through; the wrapped
functions are the package's own and their results pass through unchanged.
Untraced, only two spans exist: the whole ``cli_main`` call and the stepping loop
(``run_trajectory``, ``run_multiclass_trajectory`` or ``sweep_lambda``),
which is where set-up ends and stepping begins.  With ``--trace`` every layer
boundary listed in ``LAYERS`` gets a span as well.  Spans stay in memory and
are written to SPANS_JSON after the command has written its outputs; the
process exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

from graphphase import io_cli, multiclass, scheme, trajectory


def _step(args, result):
    """Sup-norm change of a step and its fixed-point iterations (0 if none)."""
    before, after = args[0], result.u_next
    if isinstance(after, multiclass.SimplexField):
        before, after = before.values, after.values
    return [float(abs(after - before).max()), getattr(result, "iterations", 0)]


LOOPS = (
    (io_cli, "run_trajectory", "trajectory.run_trajectory", None),
    (io_cli, "run_multiclass_trajectory", "trajectory.run_multiclass_trajectory",
     None),
    (io_cli, "sweep_lambda", "trajectory.sweep_lambda", None),
)

# (module whose global is rebound, name, span name, note taken from the call)
LAYERS = (
    (io_cli, "parse_graph_file", "io_cli.parse_graph_file", None),
    (io_cli, "parse_field_file", "io_cli.parse_field_file", None),
    (io_cli, "write_outputs", "io_cli.write_outputs", None),
    (io_cli, "build_graph", "graph_core.build_graph", None),
    (io_cli, "spectral_decompose", "graph_core.spectral_decompose", None),
    (scheme, "diffuse", "graph_core.diffuse", None),
    (multiclass, "diffuse", "graph_core.diffuse", None),
    (multiclass, "dirichlet_energy", "graph_core.dirichlet_energy", None),
    (scheme, "threshold_levels", "scheme.threshold_levels",
     lambda args, result: result.num_levels),
    # the exact multiplier solve behind scheme.solve_multiplier, which
    # semi_discrete_step calls directly
    (scheme, "_solve_profile", "scheme.solve_multiplier", None),
    (trajectory, "semi_discrete_step", "scheme.semi_discrete_step", _step),
    (trajectory, "mbo_step", "scheme.mbo_step", _step),
    (trajectory, "lyapunov_energy", "scheme.lyapunov_energy", None),
    (trajectory, "ginzburg_landau", "scheme.ginzburg_landau", None),
    (trajectory, "multiclass_mass_conserving_step",
     "multiclass.mass_conserving_step", _step),
    (trajectory, "multi_obstacle_energy", "multiclass.multi_obstacle_energy",
     None),
    (multiclass, "project_rows_to_simplex", "multiclass.project_rows_to_simplex",
     None),
)


class Recorder:
    """In-memory spans ``[name, start, end, parent index, note]``."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name, fn, note=None):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if note is not None:
                record[4] = note(args, result)
            return result

        return traced

    def install(self, table):
        for module, attr, name, note in table:
            setattr(module, attr, self.span(name, getattr(module, attr), note))


def main(argv):
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    spans_path, traced = options[0], "--trace" in options[1:]
    recorder = Recorder()
    recorder.install(LOOPS + (LAYERS if traced else ()))
    code = recorder.span("io_cli.cli_main", io_cli.cli_main)(command)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(recorder.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
