"""The benchmark's workloads: fixed operation lists generated from a seed,
each operation paired with its exact expected output.

An operation is a `gdslab` CLI argv, run in-process through
`gdslab.cli.dispatch`, or a library call where the CLI has no command for
it. Expected outputs are closed forms where the paper gives one
(b = 1 3 3 1 / 1 2 1, GTC = 2^{b_{d-1}}, GDS on tP:t = 2^{t-1}, GDS = GTC
in odd d) and otherwise a golden value recorded at the commit that
introduced the benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Op(NamedTuple):
    # CLI argv, or ("<module>.<function>", manifold spec) for a library call
    # on the complex the CLI's own `build_manifold` makes from the spec.
    argv: Tuple[str, ...]
    expected: str           # exact stdout; exit code 0 is always expected
    library: bool = False

    def describe(self) -> str:
        if self.library:
            return f"{self.argv[0]}({self.argv[1]})"
        return "gdslab " + " ".join(self.argv)


def _gsd(spec: str, expected: int, model: Optional[str] = None, *extra: str) -> Op:
    argv = ("gsd",) + (("--model", model) if model else ()) + ("--manifold", spec) + extra
    return Op(argv, f"{expected}\n")


def _homology(spec: str, b: str, chi: int, *extra: str) -> Op:
    return Op(("homology", "--manifold", spec) + extra, f"b = {b}\nchi = {chi}\n")


def _verify(suite: str, spec: str, seed: int) -> Op:
    return Op(("verify", "--suite", suite, "--manifold", spec, "--seed", str(seed)), "ok\n")


def _ed_projected(spec: str, degeneracy: int) -> Op:
    return Op(("ed", "--variant", "projected", "--manifold", spec),
              f"energy 0 degeneracy {degeneracy}\n")


def _full_commutation(spec: str) -> Op:
    return Op(("ed.verify_full_commutation", spec), "True\n", library=True)


def _points(n: int, seed: int) -> Tuple[str, ...]:
    return ("--points", str(n), "--seed", str(seed))


# Workload builders take (seed, small). `small` gives the reduced sizes the
# self-test runs; it keeps every layer the full workload reaches.

def torus3_ladder(seed: int, small: bool = False) -> List[Op]:
    # Dense GF(2) algebra on big regular complexes with only 8 sectors:
    # GDS = GTC = 2^{b_2} = 8 in odd d.
    sizes = (3, 4) if small else (5, 6, 7)
    ops = [_gsd(f"torus:3:{n}", 8, "gds") for n in sizes]
    ops.append(_homology(f"torus:3:{sizes[-2]}", "1 3 3 1", 0))
    return ops


def voronoi_periodic(seed: int, small: bool = False) -> List[Op]:
    # Periodic Delaunay plus exact certification; the only workload that
    # builds a Voronoi complex. Torus GDS: all 4 sectors of T^2 survive
    # (w1 + chi even), and odd d gives 2^{b_2} = 8.
    n2, n3 = (60, 30) if small else (500, 100)
    return [
        _gsd("torus-voronoi:2", 4, None, *_points(n2, seed)),
        _homology("torus-voronoi:2", "1 2 1", 0, *_points(n2, seed + 1)),
        _gsd("torus-voronoi:3", 8, None, *_points(n3, seed)),
    ]


def sector_dynamics(seed: int, small: bool = False) -> List[Op]:
    # Many small eliminations and per-flip work: GDS on tP:t is 2^{t-1},
    # GTC on tP:t is 2^{b_1} = 2^t. The circuit lines are golden values.
    t_gds, t_gtc = (6, 7) if small else (11, 12)
    odd, circuit = (("sphere:3", "gates 25, depth 12") if small
                    else ("torus:3:3", "gates 675, depth 17"))
    return [
        _gsd(f"tP:{t_gds}", 2 ** (t_gds - 1), "gds"),
        _gsd(f"tP:{t_gtc}", 2 ** t_gtc, "gtc"),
        _verify("commutation", odd, seed),
        _verify("balloon", odd, seed),
        Op(("circuit", "--manifold", odd, "--seed", str(seed)), f"{circuit}, conjugation ok\n"),
        _verify("flip-consistency", "sphere:4", seed),
    ]


def oracle(seed: int, small: bool = False) -> List[Op]:
    # The 15-qubit brute-force layer, exact paths only. sphere:d and tP:1
    # both have a unique ground state (GDS on tP:1 is 2^0). The workload has
    # no random input. `ed --variant plain` is left out: its eigensolve is
    # seeded from OS entropy, so its run time is random (see README.md).
    big = "sphere:3" if small else "sphere:4"
    tp1 = "sphere:3" if small else "tP:1"
    return [
        _ed_projected(big, 1),
        _ed_projected(tp1, 1),
        _full_commutation(big),
        _full_commutation(tp1),
    ]


WORKLOADS: Dict[str, Callable[..., List[Op]]] = {
    "torus3-ladder": torus3_ladder,
    "voronoi-periodic": voronoi_periodic,
    "sector-dynamics": sector_dynamics,
    "oracle": oracle,
}


def mismatch(op: Op, stdout: str, code: int) -> Optional[str]:
    """Why an operation's result is wrong, or None when it is exactly right."""
    if code != 0:
        return f"exit code {code}"
    return None if stdout == op.expected else f"stdout {stdout!r} != {op.expected!r}"
