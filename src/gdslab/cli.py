"""Command-line interface: build cellulations, run the verification suites,
and print the ground-space tables."""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence

from . import circuit as circuit_mod
from . import model as model_mod
from . import operators as op_mod
from . import wavefunction as wf_mod
from .complexes import CellComplex, subset_boundary_manifold_check, validate_generic
from .homology import betti, two_sidedness_d2
from .manifolds import builtin_manifold, manifold_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# Largest built-in complex, in estimated cells, that build_manifold builds:
# torus:3:24, sphere:14, square-grid:158, tP:1886, genus:943 and
# torus-voronoi:3 with 10000 points fit; torus:6:3, sphere:16, square-grid:159
# and torus-voronoi:3 with 20000 points do not.
MAX_CELLS = 100_000


def build_manifold(spec: str, points: Optional[int], seed: Optional[int]) -> CellComplex:
    """Parse a name:params spec into a complex.

    `file:PATH` loads a saved complex; `tri:PATH` loads a triangulation and
    dualizes it. Every other name is a row of `manifolds.SPECS`, built only
    if the row's cell count fits `MAX_CELLS`.
    """
    name, *params = spec.split(":")
    if name == "file":
        return CellComplex.load(":".join(params))
    if name == "tri":
        from .complexes import Triangulation, dual_of_triangulation

        return dual_of_triangulation(Triangulation.load(":".join(params)))
    form = manifold_spec(name)
    if not all(p.removeprefix("-").isdecimal() for p in params):
        raise ValueError(form.usage)
    values = form.complete([int(p) for p in params])
    log_cells = form.cells(*values, points=points)
    if log_cells > math.log10(MAX_CELLS):
        about = f"{10 ** log_cells:.3g}" if log_cells < 300 else f"10^{log_cells:.0f}"
        raise ValueError(f"{spec} would have about {about} cells, "
                         f"over the budget of {MAX_CELLS}")
    return builtin_manifold(name, *values, points=points, seed=seed)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if not args.out:
        print("--out is required for gen", file=sys.stderr)
        return EXIT_USAGE
    c = build_manifold(args.manifold, args.points, args.seed)
    c.save(args.out)
    print(f"wrote {args.out}: dim {c.dim}, cells {list(c.cell_counts)}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    c = build_manifold(args.manifold, args.points, args.seed)
    report = validate_generic(c)
    lines = ["pass" if report.passed else "FAIL"]
    shown = 20
    lines += [f"  {v}" for v in report.violations[:shown]]
    if len(report.violations) > shown:
        lines.append(f"  ... and {len(report.violations) - shown} more "
                     f"({len(report.violations)} violations in total)")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_homology(args) -> int:
    c = build_manifold(args.manifold, args.points, args.seed)
    b = betti(c)
    text = "b = " + " ".join(str(x) for x in b.b) + f"\nchi = {b.chi}\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_gsd(args) -> int:
    c = build_manifold(args.manifold, args.points, args.seed)
    gsd, _ = model_mod.ground_degeneracy(c, args.model)
    _emit(f"{gsd}\n", args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = wf_mod.ds_tc_dimension_table(args.tmax)
    if args.format == "csv":
        lines = ["t,dim_ds,dim_tc,ratio"]
        lines += [f"{r.t},{r.dim_ds},{r.dim_tc},{r.ratio}" for r in rows]
    else:
        lines = [f"{'t':>3} {'dim_ds':>7} {'dim_tc':>7} {'ratio':>6}"]
        lines += [
            f"{r.t:>3} {r.dim_ds:>7} {r.dim_tc:>7} {r.ratio:>6}" for r in rows
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_circuit(args) -> int:
    c = build_manifold(args.manifold, args.points, args.seed)
    gates = circuit_mod.build_gates(c)
    sched = circuit_mod.schedule(gates)
    ok = circuit_mod.verify_conjugation(c, n_states=10, seed=args.seed or 0)
    if args.out:
        sched.save(args.out)
    print(f"gates {len(gates)}, depth {sched.depth}, conjugation "
          f"{'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_ed(args) -> int:
    from . import ed as ed_mod  # loads numpy

    c = build_manifold(args.manifold, args.points, args.seed)
    energy, deg = ed_mod.ground_degeneracy_ed(c, args.model, args.variant)
    _emit(f"energy {energy:g} degeneracy {deg}\n", args.out)
    return EXIT_OK


def _cmd_balloon(args) -> int:
    c = build_manifold(args.manifold, args.points, args.seed)
    rng = random.Random(args.seed or 0)
    reps = model_mod.sector_reps(c).reps
    balloon, alpha = op_mod.sample_clean_pair(c, rng, reps)
    sign = op_mod.balloon_sign(c, balloon, alpha)
    check = op_mod.semichar_delta_check(c, balloon, alpha)
    print(f"support {balloon.support.count()} cells, state {alpha.count()} "
          f"cells, sign {sign}, bookkeeping {'ok' if check.holds else 'FAIL'}")
    return EXIT_OK if check.holds else EXIT_FAIL


def _suite_commutation(c: CellComplex, rng: random.Random) -> List[str]:
    problems = []
    trials = 200
    for trial in range(1, trials + 1):
        s = model_mod.random_cycle(c, rng)
        c1 = rng.randrange(c.n_cells(c.dim))
        c2 = rng.randrange(c.n_cells(c.dim))
        witness = f"(trial {trial} of {trials}, state {s.bits:#x})"
        if not model_mod.verify_commutation(c, c1, c2, s):
            problems.append(f"commutation fails at cells {c1},{c2} {witness}")
        if not model_mod.verify_projector(c, c1, s):
            problems.append(f"projector fails at cell {c1} {witness}")
    return problems


def _suite_sweep_order(c: CellComplex, rng: random.Random) -> List[str]:
    problems = []
    reps = model_mod.sector_reps(c).reps
    base = model_mod.sweep_signs(c, reps)
    rounds = 20
    for round_no in range(1, rounds + 1):
        order = list(range(c.n_cells(c.dim)))
        rng.shuffle(order)
        got = model_mod.sweep_signs(c, reps, order)
        if got != base:
            sector = next(j for j, (a, b) in enumerate(zip(got, base)) if a != b)
            problems.append(
                f"sweep sign depends on the flip order "
                f"(round {round_no} of {rounds}, sector {sector})"
            )
    return problems


def _suite_flip_consistency(c: CellComplex, rng: random.Random) -> List[str]:
    kind = wf_mod.ODD_CHI if c.dim % 2 else wf_mod.EVEN_SEMICHAR
    try:
        fn = wf_mod.PhaseFn(kind, c)
    except ValueError as exc:
        raise ValueError(f"no reference phase: {exc}") from None
    res = wf_mod.verify_flip_consistency(fn, 1000, rng.randrange(1 << 30))
    return [] if res.ok else [f"flip consistency broke at step {res.first_violation}"]


def _suite_surface_sectors(c: CellComplex, rng: random.Random) -> List[str]:
    if c.dim != 2:
        raise ValueError("surface suite needs a 2-complex")
    chi = c.euler_characteristic()
    problems = []
    _, reports = model_mod.ground_degeneracy(c, model_mod.GDS)
    for rep in reports:
        w1 = two_sidedness_d2(c, rep.rep).w1_eval
        if rep.survives != ((w1 + chi) % 2 == 0):
            problems.append(f"sector {rep.sector}: survival vs orientation parity")
    return problems


def _suite_appendix(c: CellComplex, rng: random.Random) -> List[str]:
    problems = []
    if not validate_generic(c).passed:
        problems.append("complex fails genericity validation")
    n = c.n_cells(c.dim)
    trials = 100
    for trial in range(1, trials + 1):
        k = rng.randint(1, n - 1)
        subset = rng.sample(range(n), k)
        if not subset_boundary_manifold_check(c, subset):
            bits = sum(1 << i for i in subset)
            problems.append(
                f"subset boundary not a manifold "
                f"(trial {trial} of {trials}, top cells {bits:#x})"
            )
    return problems


def _suite_circuit(c: CellComplex, rng: random.Random) -> List[str]:
    trials = 20
    report = circuit_mod.verify_conjugation(c, n_states=trials, seed=rng.randrange(1 << 30))
    if report:
        return []
    return [f"circuit conjugation fails at top cell {report.cell} "
            f"(trial {report.trial} of {trials}, state {report.state:#x})"]


def _suite_balloon(c: CellComplex, rng: random.Random) -> List[str]:
    problems = []
    reps = model_mod.sector_reps(c).reps
    fn = None
    if c.dim % 2:
        fn = wf_mod.PhaseFn(wf_mod.ODD_CHI, c)
    trials = 50
    for trial in range(1, trials + 1):
        balloon, alpha = op_mod.sample_clean_pair(c, rng, reps)
        witness = (f"(trial {trial} of {trials}, support {balloon.support.bits:#x}, "
                   f"state {alpha.bits:#x})")
        out, phase = op_mod.apply_balloon(c, balloon, alpha)
        if model_mod.hplus_violations(c, out):
            problems.append(f"balloon application broke the vertex terms {witness}")
        if fn is not None:
            lhs = wf_mod.reference_phase(fn, out)
            if lhs != phase * wf_mod.reference_phase(fn, alpha):
                problems.append(
                    f"balloon sign does not preserve the reference phase {witness}"
                )
        if not op_mod.semichar_delta_check(c, balloon, alpha).holds:
            problems.append(f"bookkeeping identity failed {witness}")
    return problems


SUITES: Dict[str, Callable[[CellComplex, random.Random], List[str]]] = {
    "commutation": _suite_commutation,
    "sweep-order": _suite_sweep_order,
    "flip-consistency": _suite_flip_consistency,
    "surface-sectors": _suite_surface_sectors,
    "appendix": _suite_appendix,
    "circuit": _suite_circuit,
    "balloon": _suite_balloon,
}


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; options: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return EXIT_USAGE
    c = build_manifold(args.manifold, args.points, args.seed)
    rng = random.Random(args.seed or 0)
    problems = SUITES[args.suite](c, rng)
    if problems:
        shown = 10
        for p in problems[:shown]:
            print(f"FAIL {p}")
        if len(problems) > shown:
            print(f"FAIL ... and {len(problems) - shown} more "
                  f"({len(problems)} problems in total)")
        return EXIT_FAIL
    print("ok")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdslab",
        description="Toric-code and semion models on generic cellulations",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, manifold=True):
        if manifold:
            p.add_argument("--manifold", required=True,
                           help="name:params, e.g. tP:3, sphere:4, torus:3:4, "
                                "torus-voronoi:2, klein, genus:2")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("gen", help="build a cellulation and save it")
    common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("validate", help="genericity validation report")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("homology", help="Betti numbers and Euler characteristic")
    common(p)
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("gsd", help="ground state degeneracy by sector sweep")
    common(p)
    p.add_argument("--model", choices=["gds", "gtc"], default="gds")
    p.set_defaults(fn=_cmd_gsd)

    p = sub.add_parser("table-thm-a", help="semion vs toric-code dimensions on "
                                           "sums of projective planes")
    p.add_argument("--tmax", type=int, default=4)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="run a named invariant suite")
    common(p)
    p.add_argument("--suite", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("circuit", help="build and check the phase circuit")
    common(p)
    p.set_defaults(fn=_cmd_circuit)

    p = sub.add_parser("ed", help="exact diagonalization oracle")
    common(p)
    p.add_argument("--model", choices=["gds", "gtc"], default="gds")
    p.add_argument("--variant", choices=["plain", "projected"], default="projected")
    p.set_defaults(fn=_cmd_ed)

    p = sub.add_parser("balloon", help="sample a balloon application and check it")
    common(p)
    p.set_defaults(fn=_cmd_balloon)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not getattr(args, "command", None):
        parser.print_usage()
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try a smaller complex", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, AssertionError) as exc:
        # a broken internal invariant, told apart from a failed property
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
