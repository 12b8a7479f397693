import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def test_every_name_the_benchmark_rebinds_resolves():
    # bench/child.py times the package by rebinding module-level names; a
    # rename in the package would break its traced runs
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    table = child.LOOPS + child.LAYERS
    assert table
    for module, name, _, _ in table:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
