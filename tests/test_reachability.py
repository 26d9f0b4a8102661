"""The package is what its users run: every module-level function and
class in src/hexsaw is reached, by name, from the command line
(src/hexsaw/cli.py), from the names the acceptance gate uses
(tests/test_acceptance.py) or from the benchmark tracer's TARGETS
(perfbench/tracer.py).  Code that only tests call lives under tests/.

The graph is name-level: a definition reaches every definition whose
name it mentions, as a name, an attribute or an imported name, in any
module of the package.  Statements at a module's top level other than
imports run on import, so they are roots too.  The methods and
properties of a class count one by one: a member is reached when its
class is and a reached definition names it.  Dunder methods, such as
``__post_init__``, run with their class and count with it.
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


def _is_member(node: ast.AST) -> bool:
    """A method or property that counts on its own: not a dunder method,
    which runs with its class."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _own_mentions(node: ast.AST) -> set[str]:
    """The names a definition mentions; a class's members count apart."""
    if not isinstance(node, ast.ClassDef):
        return _mentions(node)
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    parts += [stmt for stmt in node.body if not _is_member(stmt)]
    return set().union(*map(_mentions, parts))


def _graph() -> tuple[list[tuple[str, str, str | None, set[str]]], set[str]]:
    """The definitions, as (label, name, owning class or None, mentions),
    and the root names."""
    defs = []
    roots = (_mentions(_parse(PACKAGE / "cli.py"))
             | _mentions(_parse(ROOT / "tests" / "test_acceptance.py"))
             | _tracer_targets())
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, DEFINITION):
                defs.append((f"{path.stem}.{node.name}", node.name, None, _own_mentions(node)))
                if isinstance(node, ast.ClassDef):
                    defs += [(f"{path.stem}.{node.name}.{member.name}", member.name, node.name,
                              _mentions(member)) for member in node.body if _is_member(member)]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(node)
    return defs, roots


def _reached(defs, roots) -> tuple[set[str], set[str]]:
    """The names reached and the labels of the definitions reached.  A
    definition is reached once its name is, and a member once its class
    is too; a reached definition reaches every name it mentions."""
    names, labels = set(roots), set()
    while True:
        new = [(label, mentions) for label, name, owner, mentions in defs
               if label not in labels and name in names and (owner is None or owner in names)]
        if not new:
            return names, labels
        for label, mentions in new:
            labels.add(label)
            names |= mentions


def test_every_definition_is_reached_from_the_commands_gate_or_tracer():
    defs, roots = _graph()
    names, labels = _reached(defs, roots)
    unreached = sorted(label for label, *_ in defs if label not in labels)
    assert not unreached, f"reached by no command, gate name or tracer target: {unreached}"
    public = set(hexsaw.__all__)
    assert public <= names, sorted(public - names)
    assert all(hasattr(hexsaw, name) for name in public)
