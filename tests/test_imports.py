"""Every name a foldspec module imports is used in that module, the
package loads none of the test-side oracles, nor scipy before it labels an
image, and each CLI command loads only the foldspec modules it runs."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "foldspec"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names a module re-exports through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    # names inside string annotations
    annotations = [
        getattr(node, attr)
        for node in ast.walk(tree)
        for attr in ("annotation", "returns")
        if getattr(node, attr, None) is not None
    ]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter that imports foldspec from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_does_not_import_mpmath():
    # mpmath is a test and benchmark oracle only; the package's arithmetic
    # must stay independent of it
    code = "import sys, foldspec.cli; sys.exit('mpmath' in sys.modules)"
    assert _run_fresh(code).returncode == 0


def test_only_labelling_imports_scipy():
    # scipy.ndimage labels triangle grids alone, so spectra, verdicts,
    # deficiency bounds and partition counts start and run without scipy; a
    # triangle grid count loads it
    code = """if True:
        import sys
        from foldspec import cli, folding, triangle
        assert "scipy" not in sys.modules
        assert cli.main(["spectrum", "--domain", "box", "--dim", "2", "--cutoff", "30", "--points"]) == 0
        assert cli.main(["verdicts", "--domain", "triangle", "--cutoff", "200"]) == 0
        assert cli.main(["deficiency", "--domain", "triangle", "--lambda", "4225"]) == 0
        assert folding.partition_count(triangle(), 20) == 263169
        loaded = [m for m in ("scipy", "scipy.ndimage") if m in sys.modules]
        assert not loaded, loaded
        assert cli.main(["nodal", "--domain", "triangle", "--qn", "3,1"]) == 0
        assert "scipy.ndimage" in sys.modules
    """
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert '"nu": 6' in run.stdout


def test_labelling_reads_the_module_attribute():
    # the benchmark's tracer (bench/spans.py) checks that nodal.ndimage and
    # folding.ndimage are scipy.ndimage, even before anything was labelled,
    # and replaces them by stand-ins whose label must see every call; folding
    # labels nothing, so its stand-in sees none
    code = """if True:
        import scipy.ndimage
        from foldspec import eigenfn, folding, nodal, triangle
        assert "ndimage" not in vars(nodal) and "ndimage" not in vars(folding)
        assert nodal.ndimage is scipy.ndimage and folding.ndimage is scipy.ndimage
        calls = []

        class StandIn:
            def __init__(self, owner):
                self.owner = owner

            def label(self, image, *args, **kwargs):
                calls.append(self.owner)
                return scipy.ndimage.label(image, *args, **kwargs)

        f = eigenfn.basis_fn(triangle(), (3, 1))
        try:
            nodal.ndimage = StandIn("nodal")
            folding.ndimage = StandIn("folding")
            assert nodal.count_grid(f).count == 6
            assert calls and set(calls) == {"nodal"}, calls
            calls.clear()
            folding.partition_count.cache_clear()
            traced = folding.partition_count(triangle(), 5)
            assert calls == [], calls
        finally:
            nodal.ndimage = folding.ndimage = scipy.ndimage
        assert folding.ndimage is scipy.ndimage
        calls.clear()
        folding.partition_count.cache_clear()
        assert folding.partition_count(triangle(), 5) == traced
        assert nodal.count_grid(f).count == 6 and calls == []
    """
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr


def test_courant_imports_nothing_from_eigenfn():
    # the verdict engine decides from integers and closed forms and runs no
    # grid, so it needs no basis function, not even through a lazy import
    tree = ast.parse((SRC / "courant.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "eigenfn" for n in names):
            found.append(node.lineno)
    assert found == []


DEFERRED = ("courant", "nodal", "eigenfn", "folding", "svgout")

# each subcommand in a fresh interpreter, with the deferred modules it loads
# (import foldspec.cli loads none of them, and spectrum none either):
# in-process CLI tests cannot see a missing local import, because earlier
# tests have loaded every module
COMMANDS = {
    "spectrum": (["spectrum", "--domain", "box", "--dim", "3", "--cutoff", "20", "--points"], ()),
    "verdicts": (
        ["verdicts", "--domain", "triangle", "--cutoff", "200", "--format", "json"],
        ("courant", "eigenfn", "folding", "nodal"),
    ),
    "verdicts-explain": (
        ["verdicts", "--domain", "box", "--dim", "3", "--cutoff", "40", "--explain", "5"],
        ("courant", "eigenfn", "folding", "nodal"),
    ),
    "nodal-svg": (
        ["nodal", "--domain", "triangle", "--qn", "2,1", "--svg", "{tmp}/nodal.svg"],
        ("eigenfn", "folding", "nodal", "svgout"),
    ),
    "frame-svg-json": (
        ["frame", "--domain", "triangle", "--k", "4", "--svg", "{tmp}/frame.svg", "--json"],
        ("eigenfn", "folding", "svgout"),
    ),
    "frame": (["frame", "--domain", "box", "--dim", "3", "--k", "2"], ("folding",)),
    "eval": (
        ["eval", "--domain", "triangle", "--qn", "2,1", "--at", "pi/2,pi/2"],
        ("eigenfn", "folding"),
    ),
    "checksym": (["checksym", "--domain", "box", "--dim", "3", "--qn", "2,1,1"], ("eigenfn", "folding")),
    "checkframe": (["checkframe", "--domain", "triangle", "--qn", "4,2"], ("eigenfn", "folding")),
    "deficiency": (
        ["deficiency", "--domain", "triangle", "--lambda", "50"],
        ("eigenfn", "folding", "nodal"),
    ),
    "dirichlet-check": (
        ["dirichlet-check", "--dim", "2", "--lambda", "12"],
        ("eigenfn", "folding", "nodal"),
    ),
    "selftest": (["selftest", "--only", "9"], ("courant", "eigenfn", "folding", "nodal")),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_runs_in_a_fresh_interpreter(name, tmp_path):
    argv, loads = COMMANDS[name]
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = f"""if True:
        import sys
        from foldspec import cli
        rc = cli.main({argv!r})
        print(sorted(m for m in {DEFERRED!r} if f"foldspec.{{m}}" in sys.modules), file=sys.stderr)
        sys.exit(rc)
    """
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == repr(sorted(loads))
