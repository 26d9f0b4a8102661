"""The package is what its users run: every module-level function and
class in src/hexsaw is reached, by name, from the command line
(src/hexsaw/cli.py), from the names the acceptance gate uses
(tests/test_acceptance.py) or from the benchmark tracer's TARGETS
(perfbench/tracer.py).  Code that only tests call lives under tests/.

The graph is name-level: a definition reaches every definition whose
name it mentions, as a name, an attribute or an imported name, in any
module of the package.  Statements at a module's top level other than
imports run on import, so they are roots too.
"""

import ast
from pathlib import Path

import hexsaw

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hexsaw"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _mentions(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _tracer_targets() -> set[str]:
    for node in _parse(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {target.elts[1].value for target in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _graph() -> tuple[dict[str, list[tuple[str, ast.AST]]], set[str]]:
    """Definitions by name, as (module, node), and the root names."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = (_mentions(_parse(PACKAGE / "cli.py"))
             | _mentions(_parse(ROOT / "tests" / "test_acceptance.py"))
             | _tracer_targets())
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, DEFINITION):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(node)
    return defs, roots


def _reached(defs, roots) -> set[str]:
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs.get(name, ()):
            todo.extend(_mentions(node) - reached)
    return reached


def test_every_definition_is_reached_from_the_commands_gate_or_tracer():
    defs, roots = _graph()
    reached = _reached(defs, roots)
    unreached = sorted(f"{module}.{name}" for name, found in defs.items()
                       if name not in reached for module, _ in found)
    assert not unreached, f"reached by no command, gate name or tracer target: {unreached}"
    public = set(hexsaw.__all__)
    assert public <= reached, sorted(public - reached)
    assert all(hasattr(hexsaw, name) for name in public)
