"""Import boundary: deciding loads only the decider layers and no
dataclasses; the package still exports every name it lists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdorder

LAZY_MODULES = ("sdorder.oracle", "sdorder.utility", "sdorder.generators", "fractions")
# dataclasses and the modules it pulls in, which cost a CLI process time to load
DATACLASS_LAYER = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _child(code: str) -> str:
    """Standard output of a fresh interpreter that runs code on this sdorder."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sdorder.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_cli_import_loads_no_lazy_layer():
    # the dataclass layer counts beyond what the bare interpreter has loaded already
    out = _child("import sys; bare = set(sys.modules); import sdorder.cli; "
                 f"print(*(m for m in {LAZY_MODULES!r} if m in sys.modules), "
                 f"*(m for m in {DATACLASS_LAYER!r} if m in sys.modules and m not in bare))")
    assert out.split() == []


@pytest.mark.parametrize("argv", [("check", "--order", "ssd"), ("min-gamma",),
                                  ("min-epsilon",)], ids=lambda a: a[0])
def test_deciding_commands_never_load_the_other_commands(tmp_path, argv):
    f, g = tmp_path / "f.csv", tmp_path / "g.csv"
    f.write_text("0\n2\n")
    g.write_text("1\n1\n")
    argv = [*argv, "--f", str(f), "--g", str(g)]
    out = _child("import io, sys, contextlib; from sdorder.cli import main\n"
                 f"with contextlib.redirect_stdout(io.StringIO()): code = main({argv!r})\n"
                 f"print(code, *(m for m in {('sdorder.cli_extra', *LAZY_MODULES)!r} "
                 "if m in sys.modules))")
    assert out.split()[1:] == []


def test_no_module_imports_dataclasses():
    users = []
    for path in sorted(Path(sdorder.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            users += [path.name for n in names if n == "dataclasses"]
    assert users == []


def test_lazy_table_lists_each_lazy_layer_all():
    by_module: dict = {}
    for name, module in sdorder._LAZY.items():
        by_module.setdefault(module, []).append(name)
    assert set(by_module) == {"generators", "oracle", "utility"}
    for module, names in by_module.items():
        exported = importlib.import_module(f"sdorder.{module}").__all__
        assert sorted(names) == sorted(exported), module


def test_all_lists_each_name_once():
    assert len(sdorder.__all__) == len(set(sdorder.__all__))


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted(Path(sdorder.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names
                        if n.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _imports(body: list) -> list:
    """(bound name, alias node, statement) for every import outside functions and classes."""
    out = []
    for node in body:
        if isinstance(node, ast.If):
            out += _imports(node.body + node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"):
            out += [((a.asname or a.name).partition(".")[0], a, node)
                    for a in node.names if a.name != "*"]
    return out


def test_every_module_level_import_is_read_exported_or_marked():
    unused = []
    for path in sorted(Path(sdorder.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets]
                    == ["__all__"] and isinstance(node.value, (ast.List, ast.Tuple))):
                exported = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
        for name, alias, node in _imports(tree.body):
            marked = any("# noqa: F401" in lines[n - 1] for n in {node.lineno, alias.lineno})
            if name not in read | exported and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_every_exported_name_resolves():
    for name in sdorder.__all__:
        assert getattr(sdorder, name) is not None, name


def test_star_import_binds_all():
    ns: dict = {}
    exec("from sdorder import *", ns)
    assert set(sdorder.__all__) <= set(ns)


def test_dir_lists_all():
    assert set(sdorder.__all__) <= set(dir(sdorder))


def test_lazy_name_is_the_module_attribute():
    from sdorder import oracle, utility

    assert sdorder.agreement_mfsd is oracle.agreement_mfsd
    assert sdorder.UtilityPWL is utility.UtilityPWL


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sdorder.no_such_name  # noqa: B018
