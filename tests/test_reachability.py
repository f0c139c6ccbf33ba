"""Every top-level function and method in src/ is reached from src/,
unless an allow-list entry names the caller outside it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {
    path.stem: path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "src" / "sgcl").glob("*.py"))
}

# definitions src/ does not reach, each with the caller that keeps it:
# the tests, perfbench/, or the library API documented in README.md.
# An entry that src/ comes to reach, or whose definition goes, fails the
# gate as well, so the list only shrinks.
ALLOWED = {
    "game.Game.transitions": "perfbench/tracer.py",
    "game.save": "README (sgcl.game.load/save)",
    "game.validate": "tests (the builder gate) and perfbench/workloads.py",
    "proof._rule_to_str": "tests and perfbench/, through derivation_to_dict",
    "proof.build_coalition_weakening": "README (exactness) and perfbench/workloads.py",
    "proof.build_lifted_implication": "README (exactness) and tests",
    "proof.deduction_transform": "tests and perfbench/",
    "proof.derivation_to_dict": "tests and perfbench/workloads.py",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(sources: dict) -> list:
    """The qualified names (``module.function`` or ``module.Class.method``)
    of the top-level functions and methods, dunders excluded, that no
    code of ``sources`` (module name -> source) reaches.

    Module-level code and dunder methods, which Python calls itself, are
    the roots.  A definition reached from one reaches every function a
    plain name of it reads, and every function or method an attribute of
    it names, matched by name alone; a nested function's references are
    its enclosing definition's."""
    defs = {}  # qualified name -> (name, is a method)
    refs = {}  # owning definition, None at module level -> [(name, is an attribute)]

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and isinstance(node, (ast.Module, ast.ClassDef))):
                method = isinstance(node, ast.ClassDef)
                inner = f"{module}.{node.name}.{child.name}" if method else (
                    f"{module}.{child.name}")
                defs[inner] = (child.name, method)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                refs.setdefault(owner, []).append((child.id, False))
            elif isinstance(child, ast.Attribute):
                refs.setdefault(owner, []).append((child.attr, True))
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, None)
    reached = set()
    frontier = [None] + [q for q, (name, _) in defs.items() if _dunder(name)]
    while frontier:
        for name, attribute in refs.get(frontier.pop(), ()):
            for q, (defined, method) in defs.items():
                if defined == name and (attribute or not method) and q not in reached:
                    reached.add(q)
                    frontier.append(q)
    return sorted(
        q for q, (name, _) in defs.items() if q not in reached and not _dunder(name))


def test_scanner_finds_unreached_definitions():
    source = (
        "def main():\n"
        "    return helper() + Box().used\n"
        "def helper():\n"
        "    return 1\n"
        "def dead():\n"
        "    return dead_callee()\n"
        "def dead_callee():\n"
        "    return 2\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def helper_shadow():\n"
        "    helper_shadow = 3\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.tidy()\n"
        "    def tidy(self):\n"
        "        pass\n"
        "    @property\n"
        "    def used(self):\n"
        "        return 0\n"
        "    def unused(self):\n"
        "        return self.used\n"
        "main()\n"
    )
    assert unreached({"m": source}) == [
        "m.Box.unused", "m.dead", "m.dead_callee", "m.helper_shadow",
        "m.recursive"]


def test_modules_found():
    assert {"formula", "decide", "cli"} <= set(SOURCES)


def test_src_reaches_every_definition_not_allowed():
    assert unreached(SOURCES) == sorted(ALLOWED)
