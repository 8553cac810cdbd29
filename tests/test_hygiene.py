"""Checks on the repository's own files, standard library only: every name a
src module imports is used in it, only errors.py defines __setattr__ or
__delattr__, importing the CLI loads no introspection module, README's
library quick start runs and prints what its comments say, its CLI synopsis
names every option, every Python name its Layout table cites exists, and
every layer the benchmark traces exists."""

import argparse
import ast
import re
import importlib
import importlib.util
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cluster_geom").glob("*.py"))
# the package's __init__ imports names in order to export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """The names bound by the import statements of a module that no other
    node of the module reads, sorted; __future__ imports are not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nimport sys as system\nfrom a import b, c as d\nd(os)\n"
    assert unused_imports(source) == ["b", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def protocol_methods(source):
    """The names among __setattr__ and __delattr__ that a module defines or
    assigns anywhere, sorted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return sorted(names & {"__setattr__", "__delattr__"})


def test_protocol_methods_are_found():
    source = "class A:\n    def __setattr__(self, n, v): pass\n    __delattr__ = f\n"
    assert protocol_methods(source) == ["__delattr__", "__setattr__"]
    assert protocol_methods("object.__setattr__(self, 'a', 1)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_errors_owns_the_value_protocol(path):
    """Immutability has one owner, errors.Frozen: no other src module
    writes its own __setattr__ or __delattr__."""
    expected = ["__delattr__", "__setattr__"] if path.name == "errors.py" else []
    assert protocol_methods(path.read_text()) == expected


def test_cli_import_loads_no_introspection_module():
    """The cold start of every CLI call: a fresh interpreter that imports
    cluster_geom.cli loads neither dataclasses nor typing, nor the
    introspection modules they bring in.  -S keeps out the .pth files of
    site, which may import typing themselves."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing"]
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cluster_geom.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_readme_quick_start():
    """Runs the quick start statement by statement; an expression statement
    with a comment must evaluate to the literal that opens the comment (up
    to a colon)."""
    text = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment.split(":")[0]), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 4


def _synopsis_options():
    """subcommand -> the options that README's CLI synopsis shows for it."""
    text = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    out = {}
    for line in block.splitlines():
        _, command, *rest = line.split()
        out[command] = set(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    return out


def _parser_options():
    """subcommand -> the options that build_parser() gives it, but --help."""
    from cluster_geom.cli import build_parser

    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        command: {s for a in p._actions for s in a.option_strings
                  if s.startswith("--") and s != "--help"}
        for command, p in subparsers.choices.items()
    }


def test_readme_cli_synopsis_names_every_option():
    assert _synopsis_options() == _parser_options()


def _layout_names():
    """(module, name) for every backticked Python name, with or without an
    argument list, in the contents column of README's Layout table; a
    backticked text that is not a name, such as `cluster-geom`, is not one."""
    text = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    out = []
    for row in re.findall(r"^\| `(cluster_geom\.\w+)` \| (.*) \|$", text, re.MULTILINE):
        module, contents = row
        for code in re.findall(r"`([^`]*)`", contents):
            name = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", code)
            if name:
                out.append((module, name.group(1)))
    return out


def test_layout_table_cites_names():
    names = {name for _, name in _layout_names()}
    assert {"smith_normal_form", "inverse_pullback_A", "LinearForm", "KGram"} <= names


@pytest.mark.parametrize("module, name", _layout_names(), ids=lambda x: x)
def test_readme_layout_name_resolves(module, name):
    owner = importlib.import_module(module)
    for part in name.split("."):
        owner = getattr(owner, part)


def _traced_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("layer", _traced_layers(), ids=lambda layer: f"{layer[1]}.{layer[2]}")
def test_traced_layer_resolves(layer):
    """A traced run wraps a module function, or a method from its class's own
    namespace; a rename that breaks it fails here."""
    _, module, attr, _ = layer
    owner = importlib.import_module(f"cluster_geom.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner, attr = vars(owner)[cls_name], meth
    assert callable(vars(owner).get(attr)), f"cluster_geom.{module}.{layer[2]}"
