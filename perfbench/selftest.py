#!/usr/bin/env python3
"""Self-test of the benchmark harness at reduced sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks the speed factor, that the output check can fail, that spans nest,
that tracing reaches every binding and restores it, that the bypass
predictions hold, and that BENCHMARK.json lists exactly the metrics the
harness prints. Exits non-zero on the first broken check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEED = 3


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> None:
    run.isolate_environment()
    sys.path.insert(0, str(run.SRC))
    import calibrate
    import gdslab.cli
    import gdslab.model
    import tracing
    import workloads

    # The speed factor is 1 at the reference speed, and a slow spell, whose
    # kernel probes read slow, scales times down, weighted by operation time.
    ref = calibrate.REFERENCE_S
    check(abs(calibrate.scale([(2.0, ref), (1.0, ref)]) - 1) < 1e-12,
          "speed factor is 1 at the reference speed")
    mostly_slow = calibrate.scale([(3.0, 2 * ref), (1.0, ref)])
    mostly_fast = calibrate.scale([(1.0, 2 * ref), (3.0, ref)])
    check(mostly_slow < mostly_fast < 1, "slow probes scale times down, weighted by operation time")

    # The expected-output check accepts right answers and rejects wrong ones.
    ed = workloads.oracle(SEED)[0]
    check(workloads.mismatch(ed, "energy 0 degeneracy 1\n", 0) is None,
          "the exact expected output passes")
    check(workloads.mismatch(ed, "energy 0 degeneracy 2\n", 0) is not None,
          "a wrong degeneracy fails")
    check(workloads.mismatch(ed, "energy 0 degeneracy 1", 0) is not None,
          "output that differs only in its last byte fails")
    check(workloads.mismatch(ed, "energy 0 degeneracy 1\n", 1) is not None,
          "non-zero exit code fails")

    per_workload = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(SEED, small=True)
        result = run.run_pass(ops)
        failures = [(op.describe(), r.failure) for op, r in zip(ops, result.ops) if r.failure]
        check(not failures, f"{name}: small operation list is all correct {failures}")
        traced, tr = run.traced_pass(ops)
        check(all(not r.failure for r in traced.ops), f"{name}: traced pass is all correct")
        check(not tracing.nesting_errors(tr.spans),
              f"{name}: {len(tr.spans)} spans nest and no children exceed their parent")
        check(all(s.op >= 0 for s in tr.spans), f"{name}: every span carries its op id")
        per_workload[name] = tracing.layer_metrics(tr, traced.wall_s)

    for name, values in per_workload.items():
        broken = tracing.bypass_violations(name, values)
        check(not broken, f"{name}: bypass predictions hold {broken}")
    check(per_workload["voronoi-periodic"]["voronoi.build_s"] > 0, "voronoi layer is reached")
    check(per_workload["oracle"]["ed.full_commutation_s"] > 0, "ed layer is reached")
    check(per_workload["sector-dynamics"]["circuit.depth"] == 12, "circuit depth is recorded")

    import gdslab.circuit
    import gdslab.wavefunction

    flip = gdslab.model.flip
    with tracing.installed(tracing.Tracer()):
        check(all(m.flip is not flip for m in (gdslab, gdslab.model, gdslab.circuit,
                                                gdslab.wavefunction)),
              "tracing wraps flip in every module that binds it")
    check(gdslab.model.flip is flip and gdslab.circuit.flip is flip,
          "tracing restores the originals on exit")

    leak = types.ModuleType("gdslab._selftest_leak")
    leak.TABLE = {"flip": gdslab.model.flip}
    sys.modules[leak.__name__] = leak
    try:
        with tracing.installed(tracing.Tracer()):
            raised = False
    except RuntimeError as exc:
        raised = "gdslab._selftest_leak.TABLE" in str(exc)
    finally:
        del sys.modules[leak.__name__]
    check(raised, "an unwrapped original held by a gdslab module is refused")

    # A deliberately wrong expected value is counted, end to end.
    good = workloads.WORKLOADS["torus3-ladder"]
    bad_ops = good(SEED, small=True)
    bad_ops[0] = bad_ops[0]._replace(expected="9\n")
    workloads.WORKLOADS["torus3-ladder"] = lambda seed: bad_ops
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "torus3-ladder", "--seed", str(SEED),
                             "--seconds", "0", "--trace", "0"])
    finally:
        workloads.WORKLOADS["torus3-ladder"] = good
    report = json.loads(out.getvalue().splitlines()[-1])
    passes = report["attempted"] // len(bad_ops)
    check(code == 0 and report["failed"] == passes >= run.MIN_PASSES and not report["correct"],
          f"a wrong expected value is counted as a failure "
          f"{report['failed']}/{report['attempted']}")
    check("FAIL workload=torus3-ladder seed=3 argv=" in err.getvalue(),
          "the failure is printed as a one-line witness")

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
          "BENCHMARK.json end_to_end matches the metrics run.py prints")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.units(),
          "BENCHMARK.json per_layer matches the metrics the traced run prints")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")


if __name__ == "__main__":
    main()
