"""``chainscope.__all__`` is exactly what the commands and the demos import,
every parameter with a default is one that a command or a demo sets, every
module-level constant is read by the package, no function appends to a
list it was passed, and the runtime dependencies are exactly the
third-party modules the package imports.  The sources are read
as syntax trees, so the demos do not run."""

import ast
import glob
import inspect
import os
import re
import sys

import pytest

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


# Parameters with a default that no command or demo sets, kept on purpose:
KEPT_KNOBS = {
    ("balanced_measure", "init"),  # the uniqueness tests start the solver elsewhere
    ("replay_manifest", "threads"),  # the documented replay entry point's override
}


def _sets(call, name, index, keyword):
    """Whether ``call``, a call of a function or method named ``name`` (in
    any module or class), passes the parameter at positional ``index``
    (None if keyword-only) or named ``keyword``."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if called != name:
        return False
    if any(k.arg in (keyword, None) for k in call.keywords):  # None: **kwargs
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set_by_a_command_or_a_demo():
    calls = list(_nodes(MODULES + DEMOS, ast.Call))
    unset = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        # a constructor is called by its class name
        called_as = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                     for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            positional = fn.args.posonlyargs + fn.args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            defaulted = [(a, positional.index(a) - skip)
                         for a in positional[len(positional) - len(fn.args.defaults):]]
            defaulted += [(a, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            name = called_as.get(id(fn), fn.name)
            unset += [f"{fn.name}({a.arg}=)" for a, index in defaulted
                      if (fn.name, a.arg) not in KEPT_KNOBS
                      and not any(_sets(call, name, index, a.arg) for call in calls)]
    assert unset == []


def test_every_module_constant_is_read():
    # every UPPER_CASE (or _UPPER_CASE) name assigned at module level is read
    # in the package, so a tuning constant left behind by a deleted code
    # path fails
    sources = glob.glob(os.path.join(ROOT, "src", "chainscope", "**", "*.py"), recursive=True)
    defined = set()
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            body = ast.parse(fh.read()).body
        targets = [t for n in body if isinstance(n, ast.Assign) for t in n.targets]
        targets += [n.target for n in body if isinstance(n, ast.AnnAssign)]
        names = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
        defined |= {(os.path.basename(path), n.id) for n in names
                    if isinstance(n, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id)}
    read = {n.id for n in _nodes(sources, ast.Name) if isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in _nodes(sources, ast.Attribute) if isinstance(n.ctx, ast.Load)}
    assert len(defined) >= 30
    assert sorted(f"{path}:{name}" for path, name in defined if name not in read) == []


def test_no_function_fills_an_out_parameter():
    # results are returned, never appended or extended onto a list the
    # caller passed in
    filled = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            filled += [f"{os.path.basename(path)[:-3]}.{fn.name}({call.func.value.id})"
                       for call in ast.walk(fn) if isinstance(call, ast.Call)
                       and isinstance(call.func, ast.Attribute)
                       and call.func.attr in ("append", "extend")
                       and isinstance(call.func.value, ast.Name)
                       and call.func.value.id in params]
    assert filled == []


def test_runtime_dependencies_are_the_third_party_imports():
    # every top-level module the package imports anywhere, lazily too, that is
    # neither the standard library nor the package is a listed dependency, and
    # every listed dependency is one of them
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        listed = tomllib.load(fh)["project"]["dependencies"]
    sources = glob.glob(os.path.join(ROOT, "src", "chainscope", "**", "*.py"), recursive=True)
    imported = {a.name for n in _nodes(sources, ast.Import) for a in n.names}
    imported |= {n.module for n in _nodes(sources, ast.ImportFrom) if n.level == 0}
    third_party = {name.split(".")[0] for name in imported}
    third_party -= set(sys.stdlib_module_names) | {"chainscope"}
    assert sorted(third_party) == sorted(re.match(r"[\w.-]+", d).group() for d in listed)
