#!/usr/bin/env python3
"""Run one gdslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload torus3-ladder --seed 1 --seconds 20 --trace 0

One client, closed loop: the workload's operation list runs in this process,
one operation after another, and every output is checked against its exact
expected value. A reference kernel is timed between operations, and the
run's times are scaled to the reference machine speed (see `calibrate.py`).
With `--trace 0` a run holds at least three passes over the list, and more
while the next is expected to end within `--seconds`; the last stdout line
is a JSON object with the end-to-end metrics, built from each operation's
median time over the passes. With `--trace 1` a warm-up pass is followed by
alternating untraced and traced passes, and the JSON carries the per-layer
metrics and the tracing overhead. Per-operation times, failure witnesses and
provenance go to stderr, and everything, spans included, to
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import calibrate
import tracing
from workloads import WORKLOADS, mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One set-up probe runs before the passes and the rest after, so that one
# slow spell of the machine does not set the median.
SETUP_PROBES = 5
# Every operation's median rests on at least three passes, so that it is
# never set by the first pass alone, which pays the process's first-call
# costs.
MIN_PASSES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def isolate_environment() -> None:
    """One BLAS thread and no gdslab thread knob, for this process and the
    probes it starts. Call it before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GDS_LAB_THREADS", None)


def measure_setup(workload: str, seed: int, probes: int) -> List[float]:
    """Times from spawning a fresh interpreter until it has imported gdslab
    and generated the operation list, scaled to the reference speed."""
    times = []
    for _ in range(probes):
        before = calibrate.probe()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line != "ready\n":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        speed = calibrate.scale([(elapsed, (before + calibrate.probe()) / 2)])
        times.append(elapsed * speed)
    return times


class OpResult(NamedTuple):
    seconds: float
    failure: Optional[str]
    probe_s: float = 0.0    # mean kernel probe before and after, set by run_pass


def run_op(op) -> OpResult:
    """Run one operation in-process with its output captured, and check it."""
    from gdslab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.library:
                layer, name = op.argv[0].split(".")
                c = cli.build_manifold(op.argv[1], None, None)
                print(getattr(importlib.import_module(f"gdslab.{layer}"), name)(c))
                code = 0
            else:
                code = cli.dispatch(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failing operation is counted, not fatal
        return OpResult(time.perf_counter() - start, f"raised {exc!r}")
    seconds = time.perf_counter() - start
    problem = mismatch(op, out.getvalue(), code)
    if problem and err.getvalue():
        problem += f"; stderr {err.getvalue().strip()[:200]!r}"
    return OpResult(seconds, problem)


class PassResult(NamedTuple):
    wall_s: float           # sum of the operations' raw times
    ops: List[OpResult]


def run_pass(ops, tracer=None) -> PassResult:
    """Run the operation list once, timing the reference kernel before the
    first operation and after each one."""
    gc.collect()
    results = []
    before = calibrate.probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        result = run_op(op)
        after = calibrate.probe()
        results.append(result._replace(probe_s=(before + after) / 2))
        before = after
    return PassResult(sum(r.seconds for r in results), results)


def traced_pass(ops):
    tr = tracing.Tracer()
    with tracing.installed(tr):
        result = run_pass(ops, tr)
    return result, tr


def enough_passes(passes: int, trace: int, elapsed: float, seconds: float) -> bool:
    """Whether a run may stop after `passes` untraced passes in `elapsed` s."""
    if passes < (1 if trace else MIN_PASSES):
        return False
    return elapsed + elapsed / passes > seconds


def op_medians(passes: List[PassResult]) -> List[float]:
    """Each operation's median raw time over the passes."""
    return [statistics.median(p.ops[i].seconds for p in passes)
            for i in range(len(passes[0].ops))]


def run_scale(passes: List[PassResult]) -> float:
    """The factor that takes these passes' times to the reference speed."""
    return calibrate.scale((r.seconds, r.probe_s) for p in passes for r in p.ops)


def provenance(workload: str, seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS + ("GDS_LAB_THREADS",)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    isolate_environment()
    if not (SRC / "gdslab" / "__init__.py").is_file():
        print(f"gdslab sources not found under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, 1)
    sys.path.insert(0, str(SRC))
    import gdslab.cli  # noqa: F401  (imported here so that no pass pays for it)

    ops = WORKLOADS[args.workload](args.seed)
    info = provenance(args.workload, args.seed)
    info["loadavg_before"] = load_before

    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    layer_passes: List[Dict[str, float]] = []
    trace_record = []
    # The traced run's overhead compares warm passes only: a first, untimed
    # pass takes the fresh process's first-call costs out of the comparison.
    warmup = [run_pass(ops)] if args.trace else []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops))
        if args.trace:
            result, tr = traced_pass(ops)
            traced.append(result)
            layer_passes.append(tracing.layer_metrics(tr, result.wall_s))
            trace_record.append({"spans": [s._asdict() for s in tr.spans],
                                 "hot": dict(tr.hot), "counters": dict(tr.counters)})
        elapsed = time.perf_counter() - start
        if enough_passes(len(untraced), args.trace, elapsed, args.seconds):
            break
    if not args.trace:
        setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup_times))
    info["loadavg_after"] = os.getloadavg()
    info["setup_probe_s"] = setup_times

    if args.trace:
        values = tracing.median_metrics(layer_passes)
        # Overhead compares scaled pass times, so that a change of machine
        # speed between the two kinds of pass does not read as overhead.
        values["trace.traced_wall_s"] = run_scale(traced) * statistics.median(
            p.wall_s for p in traced)
        values["trace.untraced_wall_s"] = run_scale(untraced) * statistics.median(
            p.wall_s for p in untraced)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        units = tracing.units()
        for broken in tracing.bypass_violations(args.workload, values):
            print(f"bypass prediction broken: {broken}", file=sys.stderr)
    else:
        speed = run_scale(untraced)
        medians = op_medians(untraced)
        info["speed_scale"] = speed
        values = {
            "wall_s": speed * sum(medians),
            "slowest_op_s": speed * max(medians),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS

    passes = warmup + untraced + traced
    attempted = len(ops) * len(passes)
    failures = [
        f"FAIL workload={args.workload} seed={args.seed} argv={op.describe()!r}: {r.failure}"
        for p in passes for op, r in zip(ops, p.ops) if r.failure
    ]
    for line in failures:
        print(line, file=sys.stderr)
    for i, op in enumerate(ops):
        raw = " ".join(f"{p.ops[i].seconds:.3f}" for p in untraced)
        probes = " ".join(f"{1000 * p.ops[i].probe_s:.2f}" for p in untraced)
        print(f"op {i} raw [{raw}] s, kernel [{probes}] ms  {op.describe()}", file=sys.stderr)
    failed_ratio = len(failures) / attempted
    print(f"failed_ratio {failed_ratio:g} ({len(failures)}/{attempted})", file=sys.stderr)
    print("provenance " + json.dumps(info), file=sys.stderr)

    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }
    record = {
        "provenance": info,
        "failed_ratio": failed_ratio,
        "failures": failures,
        "ops": [op.describe() for op in ops],
        "untraced_op_s": [[r.seconds for r in p.ops] for p in untraced],
        "untraced_op_probe_s": [[r.probe_s for r in p.ops] for p in untraced],
        "traced_op_s": [[r.seconds for r in p.ops] for p in traced],
        "report": report,
        "trace_passes": trace_record,
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
