import ast
import pathlib
import types

import psolv

# imported by the acceptance gate, though no psolv module calls them
GATE_ONLY = {"centralizer", "intersect"}


def test_every_export_resolves():
    for name in psolv.__all__:
        assert hasattr(psolv, name), name


def test_exports_are_the_public_names():
    # every public name the package defines is exported, once, and nothing
    # else is; submodules are reached by their own import
    public = {name for name, value in vars(psolv).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(set(psolv.__all__)) == len(psolv.__all__)
    assert set(psolv.__all__) == public


def _modules():
    # (file name, syntax tree) of every psolv module other than __init__
    for path in sorted(pathlib.Path(psolv.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_export_has_a_caller_in_psolv():
    # a name read, called or looked up as an attribute in some module
    # other than __init__; a definition, an import or a docstring is no use
    used = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name for name in psolv.__all__ if name not in used}
    assert unused == GATE_ONLY


def test_every_import_is_read():
    # each name a module imports is read somewhere in that module;
    # `from __future__ import annotations` is a compiler switch, not a name
    unused = []
    for name, tree in _modules():
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{name}: {x}" for x in imported if x not in read]
    assert unused == []
