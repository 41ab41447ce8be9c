"""The benchmark tracer names gdslab functions; a rename must fail here."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = tracing.targets()  # raises LookupError naming any missing one
    assert tracing.HOT <= set(found)
    assert {"f2.reduce_by_rref", "f2.in_span"} <= set(found)
