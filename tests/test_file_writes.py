"""Static check: the package writes files only through ``pgm.write_file``.

Opening an existing file with truncation (``open(path, "w")``,
``Path.write_bytes``) makes ext4 force writeback when the file is
closed, which once cost more than the whole solve of a small CLI run.
"""

import ast
from pathlib import Path

import saddleprox

WRITE_METHODS = {"write_bytes", "write_text"}


def _writes(call):
    """True if ``call`` may open a file for writing other than through ``write_file``.

    Covers ``os.open`` (raw flags), ``Path.write_bytes``/``write_text``,
    and ``open(path, mode)`` or ``path.open(mode)`` with a mode that
    writes, appends or is computed at run time.
    """
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in WRITE_METHODS:
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    position = 1 if isinstance(func, ast.Name) else 0
    modes = (call.args[position:position + 1]
             + [k.value for k in call.keywords if k.arg == "mode"])
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def test_files_are_written_only_through_write_file():
    package = Path(saddleprox.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "write_file":
                allowed |= {id(n) for n in ast.walk(node)}
        offenders += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and id(node) not in allowed
                      and _writes(node)]
    assert offenders == []
