"""Command-line interface: outputs, exit codes, reproducibility."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gdslab

from gdslab import circuit as circuit_mod
from gdslab import ed as ed_mod
from gdslab import model as model_mod
from gdslab import operators as op_mod
from gdslab.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CELLS,
    build_manifold,
    dispatch,
)
from gdslab.complexes import CellComplex, Chain
from gdslab.manifolds import SPECS
from gdslab.phases import ONE


def run(argv, capsys):
    rc = dispatch(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gsd_projective_sum_value(capsys):
    rc, out, _ = run(["gsd", "--manifold", "tP:3", "--model", "gds"], capsys)
    assert rc == EXIT_OK
    assert out == "4\n"


def test_gsd_gtc(capsys):
    rc, out, _ = run(["gsd", "--manifold", "tP:2", "--model", "gtc"], capsys)
    assert rc == EXIT_OK and out == "4\n"


def test_table_csv(capsys):
    rc, out, _ = run(["table-thm-a", "--tmax", "4", "--format", "csv"], capsys)
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "t,dim_ds,dim_tc,ratio"
    assert lines[1:] == [
        "1,1,2,1/2",
        "2,2,4,1/2",
        "3,4,8,1/2",
        "4,8,16,1/2",
    ]


def test_table_text_aligned(capsys):
    rc, out, _ = run(["table-thm-a", "--tmax", "2"], capsys)
    assert rc == EXIT_OK
    assert "dim_ds" in out and " 1/2" in out


@pytest.mark.parametrize("tmax,message", [
    ("0", "table needs t_max >= 1, got 0"),
    ("-2", "table needs t_max >= 1, got -2"),
    ("7", "table guard: t_max must be at most 6"),
])
def test_table_out_of_range_exits_2(capsys, tmax, message):
    rc, out, err = run(["table-thm-a", "--tmax", tmax], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec,rank", [("genus:7", 14), ("tP:13", 13)])
def test_sector_guard_exits_2(capsys, spec, rank):
    rc, out, err = run(["gsd", "--manifold", spec], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == f"error: 2^{rank} sectors exceed the enumeration guard\n"


def test_homology_output(capsys):
    rc, out, _ = run(["homology", "--manifold", "torus:2:3"], capsys)
    assert rc == EXIT_OK
    assert out == "b = 1 2 1\nchi = 0\n"


def test_validate_pass_and_fail(capsys):
    rc, out, _ = run(["validate", "--manifold", "sphere:3"], capsys)
    assert rc == EXIT_OK and out.startswith("pass")
    rc, out, _ = run(["validate", "--manifold", "square-grid:2"], capsys)
    assert rc == EXIT_FAIL and out.startswith("FAIL")


def test_validate_counts_the_violations_it_drops(capsys):
    # every vertex of the 8x8 square grid has 4 cofaces; 20 of 64 are listed
    rc, out, _ = run(["validate", "--manifold", "square-grid:8"], capsys)
    assert rc == EXIT_FAIL
    assert out.splitlines() == (
        ["FAIL"]
        + [f"  0-cell {v} has 4 cofaces, expected 3" for v in range(20)]
        + ["  ... and 44 more (64 violations in total)"]
    )


def test_gen_roundtrip(tmp_path, capsys):
    path = tmp_path / "rp2.cplx"
    rc, out, _ = run(["gen", "--manifold", "tP:1", "--out", str(path)], capsys)
    assert rc == EXIT_OK
    loaded = CellComplex.load(str(path))
    assert loaded.cell_counts == (10, 15, 6)
    # saved complexes feed back into every other command
    rc, out, _ = run(["homology", "--manifold", f"file:{path}"], capsys)
    assert rc == EXIT_OK and out == "b = 1 1 1\nchi = 1\n"
    rc, out, _ = run(["gsd", "--manifold", f"file:{path}", "--model", "gds"], capsys)
    assert rc == EXIT_OK and out == "1\n"


def test_triangulation_input(tmp_path, capsys):
    from gdslab.manifolds import projective_plane

    path = tmp_path / "rp2.tri"
    projective_plane().save(str(path))
    rc, out, _ = run(["gsd", "--manifold", f"tri:{path}", "--model", "gtc"], capsys)
    assert rc == EXIT_OK and out == "2\n"


def test_verify_suites(capsys):
    rc, out, _ = run(
        ["verify", "--suite", "commutation", "--manifold", "sphere:2", "--seed", "3"],
        capsys,
    )
    assert rc == EXIT_OK and out.strip() == "ok"
    rc, out, _ = run(
        ["verify", "--suite", "surface-sectors", "--manifold", "klein", "--seed", "1"],
        capsys,
    )
    assert rc == EXIT_OK
    rc, _, err = run(
        ["verify", "--suite", "nonsense", "--manifold", "sphere:2"], capsys
    )
    assert rc == EXIT_USAGE


def test_verify_sweep_and_flip_suites(capsys):
    rc, out, _ = run(
        ["verify", "--suite", "sweep-order", "--manifold", "tP:2", "--seed", "2"],
        capsys,
    )
    assert rc == EXIT_OK
    rc, out, _ = run(
        ["verify", "--suite", "flip-consistency", "--manifold", "sphere:3",
         "--seed", "2"],
        capsys,
    )
    assert rc == EXIT_OK
    # no reference phase exists on a non-orientable surface: the suite
    # cannot run, which is a usage error and not a failed property
    rc, out, err = run(
        ["verify", "--suite", "flip-consistency", "--manifold", "tP:1",
         "--seed", "2"],
        capsys,
    )
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == ("error: no reference phase: even-semichar phase needs vanishing "
                   "homology in codimension 1 and middle dimension\n")


def test_surface_suite_off_a_surface_exits_2(capsys):
    rc, out, err = run(
        ["verify", "--suite", "surface-sectors", "--manifold", "sphere:3"], capsys
    )
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == "error: surface suite needs a 2-complex\n"


def test_sweep_order_failure_names_round_and_sector(monkeypatch, capsys):
    real = model_mod.sweep_signs
    calls = []

    def flaky(c, reps, order=None):
        signs = real(c, reps, order)
        calls.append(order)
        if len(calls) == 4:  # the third shuffled order
            signs[1] = -signs[1]
        return signs

    monkeypatch.setattr(model_mod, "sweep_signs", flaky)
    rc, out, _ = run(
        ["verify", "--suite", "sweep-order", "--manifold", "tP:2", "--seed", "2"],
        capsys,
    )
    assert rc == EXIT_FAIL
    assert out == "FAIL sweep sign depends on the flip order (round 3 of 20, sector 1)\n"
    assert len(calls) == 21


def test_verify_voronoi_commutation(capsys):
    rc, out, _ = run(
        [
            "verify", "--suite", "commutation",
            "--manifold", "torus-voronoi:2", "--points", "12", "--seed", "7",
        ],
        capsys,
    )
    assert rc == EXIT_OK


def test_ed_command(capsys):
    rc, out, _ = run(
        ["ed", "--manifold", "sphere:2", "--model", "gds", "--variant", "projected"],
        capsys,
    )
    assert rc == EXIT_OK
    assert out == "energy 0 degeneracy 1\n"


def test_circuit_command(tmp_path, capsys):
    path = tmp_path / "sched.txt"
    rc, out, _ = run(
        ["circuit", "--manifold", "sphere:3", "--out", str(path)], capsys
    )
    assert rc == EXIT_OK
    assert "depth 12" in out and "conjugation ok" in out
    assert path.exists()


def test_balloon_command(capsys):
    rc, out, _ = run(["balloon", "--manifold", "torus:3:3", "--seed", "5"], capsys)
    assert rc == EXIT_OK
    assert "bookkeeping ok" in out


@pytest.mark.parametrize("spec", ["klein", "tP:3"])
def test_balloon_suite_on_a_surface_exits_2_naming_no_function(capsys, spec):
    rc, out, err = run(["verify", "--suite", "balloon", "--manifold", spec], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == ("error: balloon signs are not defined on surfaces; there the overlap "
                   "boundary is points and the sign carries a linking term\n")


@pytest.mark.parametrize("argv,code", [
    (["validate", "--manifold", "square-grid:2"], EXIT_FAIL),
    (["homology", "--manifold", "torus:2:3"], EXIT_OK),
    (["gsd", "--manifold", "tP:2"], EXIT_OK),
    (["table-thm-a", "--tmax", "2", "--format", "csv"], EXIT_OK),
    (["ed", "--manifold", "sphere:2"], EXIT_OK),
    (["verify", "--suite", "commutation", "--manifold", "sphere:2", "--seed", "3"], EXIT_OK),
    (["verify", "--suite", "appendix", "--manifold", "square-grid:3", "--seed", "2"],
     EXIT_FAIL),
    (["balloon", "--manifold", "torus:3:3", "--seed", "5"], EXIT_OK),
], ids=["validate", "homology", "gsd", "table-thm-a", "ed", "verify-ok", "verify-fail",
        "balloon"])
def test_out_receives_the_printed_result(tmp_path, capsys, argv, code):
    rc, printed, _ = run(argv, capsys)
    path = tmp_path / "result.txt"
    rc_out, out, err = run([*argv, "--out", str(path)], capsys)
    assert rc == rc_out == code
    assert out == "" and err == ""
    assert path.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize("argv,err", [
    (["verify", "--suite", "nonsense", "--manifold", "sphere:2"],
     "unknown suite 'nonsense'; options: appendix, balloon, circuit, commutation, "
     "flip-consistency, surface-sectors, sweep-order\n"),
    (["gsd", "--manifold", "genus:7"], "error: 2^14 sectors exceed the enumeration guard\n"),
    (["balloon", "--manifold", "bogus:1"], "error: unknown manifold name: bogus\n"),
], ids=["unknown-suite", "sector-guard", "bad-spec"])
def test_refused_run_writes_nothing(tmp_path, capsys, argv, err):
    path = tmp_path / "result.txt"
    rc, out, got = run([*argv, "--out", str(path)], capsys)
    assert rc == EXIT_USAGE
    assert out == "" and got == err
    assert not path.exists()


def test_appendix_fail_lines_replay_the_subset(capsys):
    rc, out, err = run(
        ["verify", "--suite", "appendix", "--manifold", "square-grid:3", "--seed", "2"],
        capsys,
    )
    assert rc == EXIT_FAIL and err == ""
    assert out == (
        "FAIL complex fails genericity validation\n"
        "FAIL subset boundary not a manifold (trial 3 of 100, top cells 0x159)\n"
        "FAIL subset boundary not a manifold (trial 5 of 100, top cells 0x1d5)\n"
        "FAIL subset boundary not a manifold (trial 7 of 100, top cells 0x109)\n"
        "FAIL subset boundary not a manifold (trial 9 of 100, top cells 0x1dc)\n"
        "FAIL subset boundary not a manifold (trial 10 of 100, top cells 0x1ea)\n"
        "FAIL subset boundary not a manifold (trial 13 of 100, top cells 0x166)\n"
        "FAIL subset boundary not a manifold (trial 15 of 100, top cells 0x33)\n"
        "FAIL subset boundary not a manifold (trial 17 of 100, top cells 0xc6)\n"
        "FAIL subset boundary not a manifold (trial 18 of 100, top cells 0x129)\n"
        "FAIL ... and 28 more (38 problems in total)\n"
    )


def test_balloon_fail_lines_replay_the_pair(monkeypatch, capsys):
    monkeypatch.setattr(
        op_mod, "semichar_delta_check", lambda c, l, alpha: op_mod.DeltaCheck(False, 0, 1)
    )
    rc, out, _ = run(["verify", "--suite", "balloon", "--manifold", "sphere:3", "--seed", "3"],
                     capsys)
    assert rc == EXIT_FAIL
    # the trials draw their pairs in order from the seeded generator
    c = build_manifold("sphere:3", None, 3)
    rng = random.Random(3)
    reps = model_mod.sector_reps(c).reps
    expected = []
    for trial in range(1, 11):
        balloon, alpha = op_mod.sample_clean_pair(c, rng, reps)
        expected.append(
            f"FAIL bookkeeping identity failed (trial {trial} of 50, "
            f"support {balloon.support.bits:#x}, state {alpha.bits:#x})"
        )
    expected.append("FAIL ... and 40 more (50 problems in total)")
    assert out.splitlines() == expected


def test_commutation_fail_lines_replay_the_state(monkeypatch, capsys):
    monkeypatch.setattr(model_mod, "verify_commutation", lambda c, c1, c2, s: False)
    monkeypatch.setattr(model_mod, "verify_projector", lambda c, cell, s: False)
    rc, out, _ = run(["verify", "--suite", "commutation", "--manifold", "sphere:3",
                      "--seed", "3"], capsys)
    assert rc == EXIT_FAIL
    assert out.splitlines() == [
        "FAIL commutation fails at cells 2,4 (trial 1 of 200, state 0x336)",
        "FAIL projector fails at cell 2 (trial 1 of 200, state 0x336)",
        "FAIL commutation fails at cells 4,0 (trial 2 of 200, state 0x336)",
        "FAIL projector fails at cell 4 (trial 2 of 200, state 0x336)",
        "FAIL commutation fails at cells 4,1 (trial 3 of 200, state 0x1e3)",
        "FAIL projector fails at cell 4 (trial 3 of 200, state 0x1e3)",
        "FAIL commutation fails at cells 4,4 (trial 4 of 200, state 0x336)",
        "FAIL projector fails at cell 4 (trial 4 of 200, state 0x336)",
        "FAIL commutation fails at cells 1,1 (trial 5 of 200, state 0x1ec)",
        "FAIL projector fails at cell 1 (trial 5 of 200, state 0x1ec)",
        "FAIL ... and 390 more (400 problems in total)",
    ]


def test_circuit_fail_line_replays_the_flip(monkeypatch, capsys):
    # a circuit that never fires leaves each semion flip sign uncancelled, so
    # the first flip with sign -1 fails the conjugation check
    monkeypatch.setattr(circuit_mod, "circuit_phase", lambda gates, state: ONE)
    rc, out, _ = run(["verify", "--suite", "circuit", "--manifold", "sphere:3",
                      "--seed", "3"], capsys)
    assert rc == EXIT_FAIL
    assert out == "FAIL circuit conjugation fails at top cell 2 (trial 4 of 20, state 0x192)\n"
    c = build_manifold("sphere:3", None, 3)
    _, sf = model_mod.flip(c, 2, Chain(c, 2, 0x192), model_mod.GDS)
    assert sf.phase == -1


def test_usage_errors(capsys):
    rc, _, _ = run(["definitely-not-a-command"], capsys)
    assert rc == EXIT_USAGE
    rc, _, err = run(["gsd", "--manifold", "bogus:1"], capsys)
    assert rc == EXIT_USAGE
    rc, _, err = run(["gsd", "--manifold", "torus-voronoi:2"], capsys)
    assert rc == EXIT_USAGE  # seed is mandatory for randomized generators
    rc, _, _ = run([], capsys)
    assert rc == EXIT_USAGE


def test_byte_identical_reruns(capsys):
    args = ["homology", "--manifold", "torus-voronoi:2", "--points", "10", "--seed", "4"]
    rc1, out1, _ = run(args, capsys)
    rc2, out2, _ = run(args, capsys)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("dense_max_dim", [4096, 0], ids=["dense", "eigsh"])
def test_plain_ed_reruns_identical(monkeypatch, capsys, dense_max_dim):
    # with the dense cutoff at 0 the 64-state space goes through eigsh,
    # whose start and restart vectors must not come from OS entropy
    monkeypatch.setattr(ed_mod, "_DENSE_SPECTRUM_MAX_DIM", dense_max_dim)
    args = ["ed", "--variant", "plain", "--manifold", "sphere:2"]
    rc1, out1, _ = run(args, capsys)
    rc2, out2, _ = run(args, capsys)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2 and out1.endswith(" degeneracy 1\n")


@pytest.mark.parametrize("kind", ["file", "tri"])
def test_missing_input_file_exits_2(capsys, kind):
    rc, out, err = run(["gsd", "--manifold", f"{kind}:/nonexistent"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "/nonexistent" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["sphere:0", "sphere:-1", "sphere"])
def test_degenerate_sphere_spec_exits_2(capsys, spec):
    rc, out, err = run(["gsd", "--manifold", spec], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == "error: sphere:d needs d >= 1, e.g. sphere:2\n"


@pytest.mark.parametrize("spec", ["torus-voronoi:0", "torus-voronoi:-1",
                                  "torus-voronoi:1", "torus-voronoi:4"])
def test_torus_voronoi_dimension_exits_2(capsys, spec):
    rc, out, err = run(["gsd", "--manifold", spec, "--seed", "1"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == "error: torus-voronoi:d needs d = 2 or 3, e.g. torus-voronoi:2\n"


@pytest.mark.parametrize("spec,message", [
    ("tP", "tP:t needs an integer t, e.g. tP:3"),
    ("tP:x", "tP:t needs an integer t, e.g. tP:3"),
    ("tP:1:2", "tP:t needs an integer t, e.g. tP:3"),
    ("genus", "genus:g needs an integer g, e.g. genus:2"),
    ("genus:2.5", "genus:g needs an integer g, e.g. genus:2"),
    ("torus", "torus:d[:n] needs integers d and n, e.g. torus:3:4"),
    ("torus:3:4:5", "torus:d[:n] needs integers d and n, e.g. torus:3:4"),
    ("torus:-1:3", "torus:d[:n] needs integers d and n, e.g. torus:3:4"),
    ("torus:0", "torus:d[:n] needs integers d and n, e.g. torus:3:4"),
    ("torus:0:4", "torus:d[:n] needs integers d and n, e.g. torus:3:4"),
    ("klein:3", "klein takes no parameters, e.g. klein"),
    ("torus-voronoi:2:9", "torus-voronoi:d needs an integer d, e.g. torus-voronoi:2"),
    ("torus-voronoi:two", "torus-voronoi:d needs an integer d, e.g. torus-voronoi:2"),
    ("square-grid:2:2", "square-grid[:n] needs an integer n, e.g. square-grid:2"),
    ("sphere:x", "sphere:d needs d >= 1, e.g. sphere:2"),
    ("bogus:1", "unknown manifold name: bogus"),
])
def test_malformed_spec_exits_2_naming_its_form(capsys, spec, message):
    rc, out, err = run(["gsd", "--manifold", spec, "--seed", "1"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec,about", [
    ("sphere:30", "4.29e+09"),
    ("torus:6:3", "5.25e+05"),
    ("sphere:99999999999", "10^30102999567"),
])
def test_oversized_spec_exits_2_before_building(capsys, spec, about):
    start = time.perf_counter()
    rc, out, err = run(["gsd", "--manifold", spec], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == (f"error: {spec} would have about {about} cells, "
                   f"over the budget of {MAX_CELLS}\n")


@pytest.mark.parametrize("d,points,about", [(2, 60000, "1.2e+05"), (3, 20000, "1.4e+05")])
def test_oversized_voronoi_exits_2_before_drawing_points(monkeypatch, capsys, d, points, about):
    from gdslab import voronoi

    def never(*args):
        raise AssertionError("points drawn")

    monkeypatch.setattr(voronoi.PointSet, "random", never)
    spec = f"torus-voronoi:{d}"
    rc, out, err = run(["gsd", "--manifold", spec, "--points", str(points), "--seed", "1"],
                       capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == (f"error: {spec} would have about {about} cells, "
                   f"over the budget of {MAX_CELLS}\n")


def test_voronoi_size_guard_admits_10000_points_in_3d(monkeypatch):
    from gdslab import voronoi

    monkeypatch.setattr(voronoi, "torus_voronoi", lambda d, points: (d, len(points)))
    assert build_manifold("torus-voronoi:3", 10000, 1) == (3, 10000)
    assert build_manifold("torus-voronoi:2", 50000, 1) == (2, 50000)


def test_size_budget_admits_the_largest_specs_in_use():
    for name, params in [("torus", [3, 24]), ("torus", [3, 16]), ("sphere", [14])]:
        assert 10 ** SPECS[name].cells(*params) < MAX_CELLS
    assert round(10 ** SPECS["sphere"].cells(4)) == 2 ** 6 - 2
    assert round(10 ** SPECS["torus"].cells(3, 4)) == 4 ** 3 * 6


@pytest.mark.parametrize("spec,builder,about", [
    ("square-grid:159", "square_grid_torus", "1.01e+05"),
    ("tP:1887", "nonorientable_surface", "1e+05"),
    ("genus:944", "genus_surface", "1e+05"),
])
def test_oversized_integer_spec_exits_2_before_any_builder_runs(monkeypatch, capsys,
                                                                spec, builder, about):
    from gdslab import manifolds

    def never(*args):
        raise AssertionError(f"{builder} ran")

    monkeypatch.setattr(manifolds, builder, never)
    start = time.perf_counter()
    rc, out, err = run(["homology", "--manifold", spec], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == (f"error: {spec} would have about {about} cells, "
                   f"over the budget of {MAX_CELLS}\n")


@pytest.mark.parametrize("spec,builder", [
    ("square-grid:158", "square_grid_torus"),
    ("tP:1886", "nonorientable_surface"),
    ("genus:943", "genus_surface"),
])
def test_largest_integer_spec_in_budget_reaches_its_builder(monkeypatch, spec, builder):
    from gdslab import manifolds

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached(args)

    monkeypatch.setattr(manifolds, builder, reached)
    with pytest.raises(Reached):
        build_manifold(spec, None, None)


def test_memory_error_is_one_line_without_traceback(monkeypatch, capsys):
    import gdslab.cli as cli_mod

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "build_manifold", exhausted)
    rc, out, err = run(["gsd", "--manifold", "sphere:2"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == "error: out of memory; try a smaller complex\n"


def test_gen_checks_out_before_building(monkeypatch, capsys):
    import gdslab.cli as cli_mod

    def no_build(*args):
        raise AssertionError("gen built the complex before checking --out")

    monkeypatch.setattr(cli_mod, "build_manifold", no_build)
    rc, out, err = run(["gen", "--manifold", "torus:3:8"], capsys)
    assert rc == EXIT_USAGE
    assert out == "" and err == "--out is required for gen\n"


@pytest.mark.parametrize("text,message", [
    ("dim -1\n", "dim must be >= 0, got -1"),
    ("c 0 0 :\n", "missing dim header"),
    ("dim 1\nc 0 0 :\nc 2 0 :\nc 0 1 : 0 2\n", "non-dense ids in dimension 0"),
    ("dim 2\nc 0 0 :\nc 1 0 :\nc 0 1 : 0 1\n", "dim 2 but no 2-cells"),
    ("dim 1\nc 0 0 :\nc 1 0 :\nc 0 1 : 0 1\nc 0 2 : 0\n",
     "2-cells outside dimensions 0..1"),
])
def test_malformed_complex_dim_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cplx"
    path.write_text(text)
    rc, out, err = run(["gsd", "--manifold", f"file:{path}"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("kind,text,line,token", [
    ("file", "dim x\n", 1, "x"),
    ("file", "dim 1\nc 0 0 :\nc 0 x :\n", 3, "x"),
    ("file", "# two vertices\ndim 1\nc 0 0 :\nc 1 0 :\nc 0 1 : 0 y\n", 5, "y"),
    ("tri", "dim z\n", 1, "z"),
    ("tri", "dim 2\ns 0 1 2\ns 0 x 2\n", 3, "x"),
])
def test_non_integer_token_names_file_and_line(tmp_path, capsys, kind, text, line, token):
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    rc, out, err = run(["gsd", "--manifold", f"{kind}:{path}"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == f"error: {path}:{line}: expected an integer, got {token!r}\n"


@pytest.mark.parametrize("command", ["gsd", "ed"])
def test_zero_dimensional_complex_exits_2(tmp_path, capsys, command):
    path = tmp_path / "points.cplx"
    path.write_text("dim 0\nc 0 0 :\nc 1 0 :\n")
    rc, out, err = run([command, "--manifold", f"file:{path}"], capsys)
    assert rc == EXIT_USAGE
    assert out == ""
    assert err == ("error: the models need a complex of dimension >= 1 to put "
                   "qubits on its (d-1)-cells; this one has dimension 0\n")


@pytest.mark.parametrize("model", ["gds", "gtc"])
def test_circle_keeps_both_parity_sectors(capsys, model):
    # a 1-complex has no (d-2)-cells, hence no vertex terms: every state is a
    # cycle and the count is 2^{b_0} = 2
    rc, out, _ = run(["gsd", "--manifold", "sphere:1", "--model", model], capsys)
    assert rc == EXIT_OK and out == "2\n"
    rc, out, _ = run(["ed", "--manifold", "sphere:1", "--model", model], capsys)
    assert rc == EXIT_OK and out == "energy 0 degeneracy 2\n"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(gdslab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gdslab", "gsd", "--manifold", "sphere:2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "1\n"


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_internal_invariant_exits_3(monkeypatch, capsys, exc):
    def broken(c, model):
        raise exc("sweep did not return to its starting cycle")

    monkeypatch.setattr(model_mod, "ground_degeneracy", broken)
    rc, out, err = run(["gsd", "--manifold", "sphere:2"], capsys)
    assert rc == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: sweep did not return to its starting cycle\n"


def test_build_manifold_helper():
    c = build_manifold("genus:2", None, None)
    assert c.euler_characteristic() == -2
    with pytest.raises(ValueError):
        build_manifold("torus-voronoi:2:9", 5, 1)
