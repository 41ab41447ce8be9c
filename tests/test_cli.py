"""Command-line interface: outputs, exit codes, reproducibility."""

import pytest

from gdslab import ed as ed_mod
from gdslab import model as model_mod
from gdslab.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_manifold,
    dispatch,
)
from gdslab.complexes import CellComplex


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


def test_homology_output(capsys):
    rc, out, _ = run(["homology", "--manifold", "torus:2:3"], capsys)
    assert rc == EXIT_OK
    assert out == "b = 1 2 1\nchi = 0\n"


def test_validate_pass_and_fail(capsys):
    rc, out, _ = run(["validate", "--manifold", "sphere:3"], capsys)
    assert rc == EXIT_OK and out.startswith("pass")
    rc, out, _ = run(["validate", "--manifold", "square-grid:2"], capsys)
    assert rc == EXIT_FAIL and out.startswith("FAIL")


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
    # no reference phase exists on a non-orientable surface: reported, exit 1
    rc, out, _ = run(
        ["verify", "--suite", "flip-consistency", "--manifold", "tP:1",
         "--seed", "2"],
        capsys,
    )
    assert rc == EXIT_FAIL


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
