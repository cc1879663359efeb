"""Import hygiene: every top-level import in the package is used, and
importing the command line does not load scipy.  Every setting of the
package has a caller."""

import ast
import subprocess
import sys
from pathlib import Path

import saddleprox


def test_no_unused_top_level_imports():
    package = Path(saddleprox.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            used |= set(saddleprox.__all__)
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_importing_the_cli_loads_no_scipy():
    # Only the Poisson solver needs scipy; it imports scipy.fft on first use.
    code = ("import sys, saddleprox.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


# Acceptance test 10 calls dh(v, 0.5): the finite-difference pair keeps
# its mesh width although every caller in the package uses unit width.
SETTINGS_WITHOUT_CALLER_ALLOWED = {("dh", "h"), ("dht", "h")}


def settings_without_a_caller(sources, callers):
    """The (function, name) of each defaulted parameter and each
    defaulted dataclass field in the files ``sources`` that no call in
    the files ``callers`` passes, by position, by keyword or through
    ``*args``/``**kwargs``.  Calls are matched to functions by name; a
    dataclass field may also be passed by keyword to ``replace``."""
    def nodes(paths):
        return [node for path in paths
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))]

    defs = nodes(sources)
    owner = {f: c for c in defs if isinstance(c, ast.ClassDef) for f in c.body}
    settings = []  # ({callee: index among its positional arguments}, setting)
    for node in defs:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            settings += [({node.name: i, "replace": None}, s.target.id)
                         for i, s in enumerate(fields) if s.value is not None]
        elif isinstance(node, ast.FunctionDef):
            cls = owner.get(node)
            bound = cls is not None and "staticmethod" not in map(ast.unparse,
                                                                  node.decorator_list)
            name = cls.name if cls is not None and node.name == "__init__" else node.name
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            settings += [({name: i - bound}, a.arg) for i, a in enumerate(args) if i >= first]
            settings += [({name: None}, a.arg) for a, d in
                         zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]

    def passes(call, callees, arg):
        func = call.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name not in callees:
            return False
        index, keywords = callees[name], {k.arg for k in call.keywords}
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return (arg in keywords or None in keywords or index is not None
                and (len(call.args) > index or starred))

    calls = [node for node in nodes(callers) if isinstance(node, ast.Call)]
    return sorted((min(callees), arg) for callees, arg in settings
                  if not any(passes(call, callees, arg) for call in calls))


def test_every_setting_has_a_caller():
    # A setting that only tests set is a constant: it doubles what the
    # tests must cover and serves no caller.
    root = Path(__file__).resolve().parents[1]
    sources = sorted(root.glob("src/saddleprox/*.py"))
    found = settings_without_a_caller(sources, sources + sorted(root.glob("bench/*.py")))
    assert sorted(set(found) - SETTINGS_WITHOUT_CALLER_ALLOWED) == []
