"""``chainscope.__all__`` is exactly what the commands and the demos import.
The sources are read as syntax trees, so the demos do not run."""

import ast
import glob
import inspect
import os

import chainscope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = glob.glob(os.path.join(ROOT, "src", "chainscope", "[!_]*.py"))
DEMOS = glob.glob(os.path.join(ROOT, "demos", "*.py"))


def _nodes(paths, kind):
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield from (n for n in ast.walk(ast.parse(fh.read())) if isinstance(n, kind))


def test_all_is_what_the_commands_and_demos_import():
    exported = set(chainscope.__all__)
    # every exported name is imported or referenced by a module or a demo
    used = {n.id for n in _nodes(MODULES + DEMOS, ast.Name)}
    used |= {n.attr for n in _nodes(MODULES + DEMOS, ast.Attribute)}
    used |= {a.name for n in _nodes(MODULES + DEMOS, ast.ImportFrom) for a in n.names}
    assert sorted(exported - used) == []
    # and the names the CLI and the demos import from the package are all exported
    cli = [p for p in MODULES if p.endswith("cli.py")]
    imported = {a.name for n in _nodes(cli + DEMOS, ast.ImportFrom) for a in n.names
                if n.level == 1 or n.module.split(".")[0] == "chainscope"}
    assert sorted(imported ^ exported) == ["__version__"]
    assert len(chainscope.__all__) == len(exported)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from chainscope import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(chainscope.__all__)
    public = {name for name, value in vars(chainscope).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public) == sorted(chainscope.__all__)
