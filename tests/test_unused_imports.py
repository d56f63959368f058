"""No module under ``src/`` imports a name it never uses.

An unused import costs every process that loads the module its import
time, hides which modules really depend on which, and outlives the code
that once needed it. A name counts as used when the module reads it,
lists it in ``__all__`` (a re-export), names it in a quoted annotation
or quoted type argument (``Callable[..., "Awaitable[T]"]``), or imports
it on a ``# noqa: F401`` line.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOQA_F401 = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def _imported(tree, lines):
    """``(name, line)`` of every name the module's imports bind, bar
    ``__future__`` imports and imports on ``# noqa: F401`` lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(NOQA_F401.search(lines[i - 1])
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _used(tree):
    """Every name the module reads, exports or quotes in a type."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Subscript):
            annotations.append(node.slice)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.extend(arg.annotation for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if arg is not None)
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a plain string key, not a type
                    continue
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


def test_src_has_no_unused_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = _used(tree)
        for name, line in _imported(tree, text.splitlines()):
            if name not in used:
                unused.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert unused == []
