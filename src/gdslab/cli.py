"""Command-line interface: build cellulations, run the verification suites,
and print the ground-space tables."""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

# Importing this module loads no gdslab layer: each runner imports the
# layers it calls in its body and reads their functions at call time.
if TYPE_CHECKING:
    from .complexes import CellComplex

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
        from .complexes import CellComplex

        return CellComplex.load(":".join(params))
    if name == "tri":
        from .complexes import Triangulation, dual_of_triangulation

        return dual_of_triangulation(Triangulation.load(":".join(params)))
    from .manifolds import builtin_manifold, manifold_spec

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


class _Refused(Exception):
    """A usage error caught before anything is built; its message goes to
    stderr as it is."""


def _first(lines: Sequence[str], shown: int, noun: str, prefix: str) -> List[str]:
    """The first `shown` lines, each after `prefix`, then a count of the rest."""
    out = [f"{prefix}{line}" for line in lines[:shown]]
    if len(lines) > shown:
        out.append(f"{prefix}... and {len(lines) - shown} more "
                   f"({len(lines)} {noun} in total)")
    return out


def _cmd_gen(args) -> Tuple[str, int]:
    if not args.out:
        raise _Refused("--out is required for gen")
    c = build_manifold(args.manifold, args.points, args.seed)
    c.save(args.out)
    return f"wrote {args.out}: dim {c.dim}, cells {list(c.cell_counts)}\n", EXIT_OK


def _cmd_validate(args) -> Tuple[str, int]:
    from .complexes import validate_generic

    report = validate_generic(build_manifold(args.manifold, args.points, args.seed))
    lines = ["pass" if report.passed else "FAIL"]
    lines += _first(report.violations, 20, "violations", "  ")
    return "\n".join(lines) + "\n", EXIT_OK if report.passed else EXIT_FAIL


def _cmd_homology(args) -> Tuple[str, int]:
    from .homology import betti

    b = betti(build_manifold(args.manifold, args.points, args.seed))
    return "b = " + " ".join(str(x) for x in b.b) + f"\nchi = {b.chi}\n", EXIT_OK


def _cmd_gsd(args) -> Tuple[str, int]:
    from . import model as model_mod

    c = build_manifold(args.manifold, args.points, args.seed)
    gsd = model_mod.ground_degeneracy(c, args.model)
    return f"{gsd}\n", EXIT_OK


def _cmd_table(args) -> Tuple[str, int]:
    from . import wavefunction as wf_mod

    rows = wf_mod.ds_tc_dimension_table(args.tmax)
    row = "{},{},{},{}" if args.format == "csv" else "{:>3} {:>7} {:>7} {:>6}"
    lines = [row.format("t", "dim_ds", "dim_tc", "ratio")]
    lines += [row.format(r.t, r.dim_ds, r.dim_tc, r.ratio) for r in rows]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_circuit(args) -> Tuple[str, int]:
    from . import circuit as circuit_mod

    c = build_manifold(args.manifold, args.points, args.seed)
    gates = circuit_mod.build_gates(c)
    sched = circuit_mod.schedule(gates)
    ok = circuit_mod.verify_conjugation(c, gates, n_states=10, seed=args.seed or 0)
    if args.out:
        sched.save(args.out)
    return (f"gates {len(gates)}, depth {sched.depth}, conjugation "
            f"{'ok' if ok else 'FAIL'}\n", EXIT_OK if ok else EXIT_FAIL)


def _cmd_ed(args) -> Tuple[str, int]:
    from . import ed as ed_mod  # loads numpy

    c = build_manifold(args.manifold, args.points, args.seed)
    energy, deg = ed_mod.ground_degeneracy_ed(c, args.model, args.variant)
    return f"energy {energy:g} degeneracy {deg}\n", EXIT_OK


def _cmd_balloon(args) -> Tuple[str, int]:
    from . import model as model_mod
    from . import operators as op_mod

    c = build_manifold(args.manifold, args.points, args.seed)
    rng = random.Random(args.seed or 0)
    reps = model_mod.sector_reps(c).reps
    balloon, alpha = op_mod.sample_clean_pair(c, rng, reps)
    sign = op_mod.balloon_sign(c, balloon, alpha)
    check = op_mod.semichar_delta_check(c, balloon, alpha)
    return (f"support {balloon.support.count()} cells, state {alpha.count()} "
            f"cells, sign {sign}, bookkeeping {'ok' if check.holds else 'FAIL'}\n",
            EXIT_OK if check.holds else EXIT_FAIL)


def _suite_commutation(c: CellComplex, rng: random.Random) -> List[str]:
    from . import model as model_mod

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
    from . import model as model_mod

    rounds = 20

    def shuffled_orders():
        for _ in range(rounds):
            order = list(range(c.n_cells(c.dim)))
            rng.shuffle(order)
            yield order

    problems = []
    changes = model_mod.order_dependent_sectors(c, shuffled_orders())
    for round_no, sector in enumerate(changes, 1):
        if sector is not None:
            problems.append(
                f"sweep sign depends on the flip order "
                f"(round {round_no} of {rounds}, sector {sector})"
            )
    return problems


def _suite_flip_consistency(c: CellComplex, rng: random.Random) -> List[str]:
    from . import wavefunction as wf_mod

    kind = wf_mod.ODD_CHI if c.dim % 2 else wf_mod.EVEN_SEMICHAR
    try:
        fn = wf_mod.PhaseFn(kind, c)
    except ValueError as exc:
        raise ValueError(f"no reference phase: {exc}") from None
    res = wf_mod.verify_flip_consistency(fn, 1000, rng.randrange(1 << 30))
    return [] if res.ok else [f"flip consistency broke at step {res.first_violation}"]


def _suite_surface_sectors(c: CellComplex, rng: random.Random) -> List[str]:
    from . import model as model_mod
    from .homology import two_sidedness_d2

    if c.dim != 2:
        raise ValueError("surface suite needs a 2-complex")
    chi = c.euler_characteristic()
    problems = []
    for rep in model_mod.sector_reports(c, model_mod.GDS):
        w1 = two_sidedness_d2(c, rep.rep).w1_eval
        if rep.survives != ((w1 + chi) % 2 == 0):
            problems.append(f"sector {rep.sector}: survival vs orientation parity")
    return problems


def _suite_appendix(c: CellComplex, rng: random.Random) -> List[str]:
    from .complexes import subset_boundary_manifold_check, validate_generic

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
    from . import circuit as circuit_mod

    trials = 20
    gates = circuit_mod.build_gates(c)
    report = circuit_mod.verify_conjugation(c, gates, n_states=trials, seed=rng.randrange(1 << 30))
    if report:
        return []
    return [f"circuit conjugation fails at top cell {report.cell} "
            f"(trial {report.trial} of {trials}, state {report.state:#x})"]


def _suite_balloon(c: CellComplex, rng: random.Random) -> List[str]:
    from . import model as model_mod
    from . import operators as op_mod
    from . import wavefunction as wf_mod

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


def _cmd_verify(args) -> Tuple[str, int]:
    if args.suite not in SUITES:
        raise _Refused(f"unknown suite {args.suite!r}; options: {', '.join(sorted(SUITES))}")
    c = build_manifold(args.manifold, args.points, args.seed)
    problems = SUITES[args.suite](c, random.Random(args.seed or 0))
    if problems:
        return "\n".join(_first(problems, 10, "problems", "FAIL ")) + "\n", EXIT_FAIL
    return "ok\n", EXIT_OK


class _Command(NamedTuple):
    """One subcommand: its help line, its flags in help order, and a runner
    returning (text, exit code). `dispatch` writes the text to `--out` when
    it is given, else to stdout; where `out_is_file`, `--out` names the file
    the runner writes itself and the text goes to stdout."""

    help: str
    flags: Tuple[Tuple[str, dict], ...]
    run: Callable[..., Tuple[str, int]]
    out_is_file: bool = False


_OUT_FLAG = ("--out", {})
_MODEL_FLAG = ("--model", dict(choices=["gds", "gtc"], default="gds"))
# The flags of every command that builds a complex, in help order.
_BUILD_FLAGS = (
    ("--manifold", dict(required=True, help="name:params, e.g. tP:3, sphere:4, torus:3:4, "
                                            "torus-voronoi:2, klein, genus:2")),
    ("--seed", dict(type=int)),
    ("--points", dict(type=int)),
    _OUT_FLAG,
)

# Every subcommand, in help order. The rows hold only private runners, which
# look gdslab functions up on their modules at call time, so that wrapping
# those names reaches them.
COMMANDS: Dict[str, _Command] = {
    "gen": _Command("build a cellulation and save it", _BUILD_FLAGS, _cmd_gen,
                    out_is_file=True),
    "validate": _Command("genericity validation report", _BUILD_FLAGS, _cmd_validate),
    "homology": _Command("Betti numbers and Euler characteristic", _BUILD_FLAGS,
                         _cmd_homology),
    "gsd": _Command("ground state degeneracy by sector sweep",
                    (*_BUILD_FLAGS, _MODEL_FLAG), _cmd_gsd),
    "table-thm-a": _Command("semion vs toric-code dimensions on sums of projective planes",
                            (("--tmax", dict(type=int, default=4)),
                             ("--format", dict(choices=["text", "csv"], default="text")),
                             _OUT_FLAG), _cmd_table),
    "verify": _Command("run a named invariant suite",
                       (*_BUILD_FLAGS, ("--suite", dict(required=True))), _cmd_verify),
    "circuit": _Command("build and check the phase circuit", _BUILD_FLAGS, _cmd_circuit,
                        out_is_file=True),
    "ed": _Command("exact diagonalization oracle",
                   (*_BUILD_FLAGS, _MODEL_FLAG,
                    ("--variant", dict(choices=["plain", "projected"], default="projected"))),
                   _cmd_ed),
    "balloon": _Command("sample a balloon application and check it", _BUILD_FLAGS,
                        _cmd_balloon),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdslab",
        description="Toric-code and semion models on generic cellulations",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.flags:
            p.add_argument(flag, **options)
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
    command = COMMANDS[args.command]
    try:
        text, code = command.run(args)
        if args.out and not command.out_is_file:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
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
