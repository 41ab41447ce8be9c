"""Each command loads only what it runs. `import gdslab.cli` loads no gdslab
layer, every package-level name resolves on first access, and each command
loads the layers it calls and nothing else; gdslab stays pure Python until a
command needs numpy or scipy (only `torus-voronoi:*` specs load scipy, and
only `ed` loads numpy), and a command that needs neither loads no
`dataclasses` or `inspect`.
Its modules import nothing they do not use, keep no private function nothing
uses, and keep no public function or class that nothing in the package reads
unless the README lists it as library API."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gdslab
from gdslab import voronoi

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = {"numpy", "scipy", "scipy.spatial"}
# `dataclasses` alone loads `inspect`, `ast`, `dis` and `tokenize`, which cost
# more than a layer; scipy loads `dataclasses` and numpy `inspect`, so only the
# commands that load neither are checked for them.
INTROSPECTION = {"dataclasses", "inspect"}

# Runs `python -m gdslab ARGV...` in the same interpreter as the report that
# follows it, and fails on a non-zero exit code.
RUN_CLI = """
import runpy, sys
sys.argv = ["gdslab", *{argv!r}]
try:
    runpy.run_module("gdslab", run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
"""


def _loaded_after(code: str):
    """Run `code` in a fresh interpreter and return (stdout lines before the
    report, every module it loaded)."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + report],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines()
    return out, set(json.loads(last))


def _layers(loaded):
    """The gdslab modules among `loaded`, by their names within the package."""
    return {m.removeprefix("gdslab.") for m in loaded if m.startswith("gdslab.")}


def test_cli_import_loads_neither_numpy_nor_scipy():
    _, loaded = _loaded_after("import gdslab.cli")
    assert loaded & HEAVY == set()


def test_gsd_loads_neither_numpy_nor_scipy():
    out, loaded = _loaded_after(RUN_CLI.format(argv=["gsd", "--model", "gds", "--manifold", "tP:3"]))
    assert out == ["4"]
    assert loaded & HEAVY == set()


BUILD = {"cli", "manifolds", "complexes", "f2"}


@pytest.mark.parametrize("argv,layers", [
    (None, {"cli"}),
    (["gsd", "--manifold", "tP:3"], BUILD | {"homology", "model"}),
    (["homology", "--manifold", "sphere:3"], BUILD | {"homology"}),
    (["validate", "--manifold", "sphere:3"], BUILD),
    (["table-thm-a", "--tmax", "3"], BUILD | {"homology", "model", "phases", "wavefunction"}),
], ids=["import", "gsd", "homology", "validate", "table-thm-a"])
def test_command_loads_only_the_layers_it_runs(argv, layers):
    # argv None: only `import gdslab.cli`
    _, loaded = _loaded_after("import gdslab.cli" if argv is None else RUN_CLI.format(argv=argv))
    assert "gdslab" in loaded and _layers(loaded) == layers
    assert loaded & (HEAVY | INTROSPECTION) == set()


def test_ed_loads_numpy_but_not_scipy_spatial():
    out, loaded = _loaded_after(
        RUN_CLI.format(argv=["ed", "--variant", "projected", "--manifold", "sphere:2"])
    )
    assert out == ["energy 0 degeneracy 1"]
    assert "numpy" in loaded and "scipy.spatial" not in loaded


def test_voronoi_names_resolve_on_first_access():
    out, loaded = _loaded_after(
        "import sys, gdslab\n"
        "print('gdslab.voronoi' in sys.modules)\n"
        "from gdslab import torus_voronoi\n"
        "print(torus_voronoi is sys.modules['gdslab.voronoi'].torus_voronoi)\n"
    )
    assert out == ["False", "True"]
    assert "scipy.spatial" in loaded
    assert gdslab.torus_voronoi is voronoi.torus_voronoi
    assert gdslab.PointSet is voronoi.PointSet
    assert gdslab.GeneralPositionError is voronoi.GeneralPositionError


def test_star_import_binds_every_public_name():
    out, _ = _loaded_after(
        "import gdslab\n"
        "from gdslab import *\n"
        "print(sorted(n for n in gdslab.__all__ if n not in globals()))\n"
    )
    assert out == ["[]"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nonexistent"):
        gdslab.nonexistent
    assert not hasattr(gdslab, "nonexistent")


def _names(node):
    """Every name a node reads, including those inside string annotations."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        annotation = getattr(sub, "returns", None) or getattr(sub, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            out |= _names(ast.parse(annotation.value, mode="eval"))
    return out


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((SRC / "gdslab").glob("*.py"))}


def test_every_import_in_src_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue  # its imports are the package's re-exports
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = _names(tree)
        unused += [f"{name}.py:{line} {what}" for what, line in imported.items() if what not in used]
    assert unused == []


def _unread(defined, public=False):
    """Every private, non-dunder name (or, with `public`, every public name)
    that `defined(stmt)` says a top-level statement of src defines, and that
    no other top-level statement of src reads, as (module.name, line). A
    re-export in `__init__` is an import alias, not a read."""
    modules = _modules()
    # the names read by every top-level statement of src
    reads = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            for what in defined(node):
                if what.startswith("_") == public or what.startswith("__"):
                    continue
                # a reference anywhere in src, other than from the definition itself
                if not any(what in names for stmt, names in reads if stmt is not node):
                    unused.append((f"{name}.{what}", node.lineno))
    return unused


def _defined(*kinds):
    """For `_unread`: the name a top-level def of one of these kinds binds."""
    return lambda node: [node.name] if isinstance(node, kinds) else []


def test_every_private_function_in_src_is_used_in_src():
    assert _unread(_defined(ast.FunctionDef)) == []


def _assigned(node):
    """The names a top-level `NAME = ...` or `NAME: T = ...` binds."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_constant_in_src_is_read_in_src():
    assert _unread(_assigned) == []


def _library_api():
    """The `module.name` entries of the README's "Library API" list, as
    (module.name, README line)."""
    lines = (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Library API") if "## Library API" in lines else len(lines)
    listed = []
    for i, line in enumerate(lines[start + 1:], start + 2):
        if line.startswith("## "):
            break
        entry = re.match(r"- `(\w+\.\w+)`", line)
        if entry:
            listed.append((entry.group(1), i))
    return listed


def test_every_public_function_in_src_is_read_in_src_or_listed_as_library_api():
    listed = {name for name, _ in _library_api()}
    unread = _unread(_defined(ast.FunctionDef, ast.ClassDef), public=True)
    assert [f"{name}:{line}" for name, line in unread if name not in listed] == []


def test_every_library_api_entry_names_a_function_or_class_of_src():
    kinds = _defined(ast.FunctionDef, ast.ClassDef)
    defined = {f"{module}.{what}" for module, tree in _modules().items()
               for node in tree.body for what in kinds(node)}
    stale = [f"README.md:{line} {name}" for name, line in _library_api() if name not in defined]
    assert stale == []
