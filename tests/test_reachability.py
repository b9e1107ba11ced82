"""Every module, function, method and class under ``src/repro`` is
reached from an entry point.

The entry points are the ``repro`` CLI, every module that runs under
``python -m`` (a ``__main__`` module or one with a
``__name__ == "__main__"`` guard), and every ``repro`` import in
``benchmarks/``, ``examples/`` and ``perfbench/``.  The module walk
follows ``import`` statements anywhere in a module's source, function
bodies included, and reaching a module reaches its parent packages.

The definition walk is name-based and conservative.  Its roots are all
code in ``benchmarks/``, ``examples/`` and ``perfbench/`` plus the
module-level and class-level code of every package module (the module
walk proves each one is imported).  A definition is reached when
reached code spells its name: as a ``Name``, as an ``Attribute``, in an
``import`` outside a package ``__init__``, or as a word of a string
constant (spec strings, ``getattr``).  Its body is then reached too,
iterated to a fixpoint.  A docstring, or any other string that stands
alone as a statement, is prose and spells nothing.  A package
``__init__``'s imports and ``__all__`` are not uses: a re-export alone
keeps nothing alive.
Dunders and ``visit_*`` methods (dispatched by ``ast.NodeVisitor``) are
exempt, and ``PUBLIC_API`` lists the few definitions kept for outside
callers, each with its reason.  Known limit: names are not resolved to
their definitions, so a dead method that shares its name with a live
one is not flagged.

Tests do not count: a module or function that only its own tests
use is dead code.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CONSUMERS = ("benchmarks", "examples", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
EXEMPT = re.compile(r"__\w+__|visit_\w+")
WORD = re.compile(r"[A-Za-z_]\w*")

READS_CONTEST_FILES = (
    "reads the contest's published benchmark files (care minterms as "
    "PLA), the format repro.contest.export writes"
)
PUBLIC_API = {
    "repro.twolevel.pla.read_pla": READS_CONTEST_FILES,
    "repro.ml.dataset.Dataset.from_pla": READS_CONTEST_FILES,
}


def package_modules(src: Path, package: str) -> dict[str, Path]:
    """Dotted name -> source file of every module in ``src/package``."""
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(tree: ast.AST, module: str, is_package: bool) -> set[str]:
    """Dotted names an ``import`` in ``tree`` may load, submodules of
    ``from package import name`` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = module.split(".")
                keep = len(parts) - node.level + is_package
                base = ".".join([*parts[:keep], *filter(None, [node.module])])
            else:
                base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def runs_as_main(tree: ast.Module) -> bool:
    """True if the module has an ``if __name__ == "__main__"`` guard."""
    for node in tree.body:
        test = node.test if isinstance(node, ast.If) else None
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in test.comparators)
        ):
            return True
    return False


def unreachable(root: Path, package: str, entry: str) -> list[str]:
    """Modules of ``root/src/package`` that no entry point reaches."""
    modules = package_modules(root / "src", package)
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in modules.items()
    }
    todo = [entry]
    todo += [name for name, tree in trees.items()
             if name.endswith(".__main__") or runs_as_main(tree)]
    for folder in CONSUMERS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            todo += imported_names(tree, "", False)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in modules or name in seen:
            continue
        seen.add(name)
        parent = name.rpartition(".")[0]
        todo.append(parent)
        is_package = modules[name].name == "__init__.py"
        todo += imported_names(trees[name], name, is_package)
    return sorted(set(modules) - seen)


class Definition(NamedTuple):
    where: str  # "path:line qualname"
    qualname: str
    name: str
    uses: set[str]


def _scan(nodes, qualname: str, uses: set[str], found: list[Definition],
          where: str, in_init: bool) -> None:
    """Add the names ``nodes`` spell to ``uses``; each function body
    goes to a new ``Definition`` of ``found`` instead."""
    for node in nodes:
        if isinstance(node, DEFINITIONS):
            name = f"{qualname}.{node.name}"
            own: set[str] = set()
            found.append(Definition(f"{where}:{node.lineno} {name}", name,
                                    node.name, own))
            inside = {id(stmt) for stmt in node.body}
            header = [c for c in ast.iter_child_nodes(node) if id(c) not in inside]
            _scan(header, qualname, uses, found, where, in_init)
            # Class-level code runs where the class statement does.
            body = uses if isinstance(node, ast.ClassDef) else own
            _scan(node.body, name, body, found, where, in_init)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not in_init:
                uses.update(alias.name.rpartition(".")[2] for alias in node.names)
            continue
        if in_init and isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        # A docstring (or any bare string statement) is prose, not a use.
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.update(WORD.findall(node.value))
        _scan(ast.iter_child_nodes(node), qualname, uses, found, where, in_init)


def unreached_definitions(root: Path, package: str,
                          public_api: dict[str, str]) -> list[str]:
    """``path:line qualname`` of every definition in ``root/src/package``
    that no root reaches (see the module docstring)."""
    roots: set[str] = set()
    for folder in CONSUMERS:
        for path in sorted((root / folder).rglob("*.py")):
            consumer: list[Definition] = []
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _scan(tree.body, "", roots, consumer, "", False)
            for definition in consumer:
                roots |= definition.uses
    found: list[Definition] = []
    for module, path in package_modules(root / "src", package).items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _scan(tree.body, module, roots, found, str(path.relative_to(root)),
              path.name == "__init__.py")
    by_name: dict[str, list[Definition]] = {}
    for definition in found:
        by_name.setdefault(definition.name, []).append(definition)
        if EXEMPT.fullmatch(definition.name) or definition.qualname in public_api:
            roots |= definition.uses
    todo, reached = list(roots), set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for definition in by_name.get(name, ()):
                todo += definition.uses
    return [
        d.where for d in found
        if d.name not in reached
        and not EXEMPT.fullmatch(d.name)
        and d.qualname not in public_api
    ]


def test_every_repro_module_is_reachable():
    dead = unreachable(ROOT, "repro", "repro.cli")
    assert not dead, (
        f"modules no entry point imports: {dead}; delete them, or wire "
        "them into a flow, the CLI, serving or a benchmark"
    )


def test_walk_finds_a_dead_module(tmp_path):
    pkg = tmp_path / "src" / "demo"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "def main():\n    from .sub import used\n"
    )
    (pkg / "sub" / "__init__.py").write_text("")
    (pkg / "sub" / "used.py").write_text("from ..sub import helper\n")
    (pkg / "sub" / "helper.py").write_text("")
    (pkg / "tool.py").write_text(
        "import demo.sub.extra\nif __name__ == '__main__':\n    pass\n"
    )
    (pkg / "sub" / "extra.py").write_text("")
    (pkg / "dead.py").write_text("import demo.sub.helper\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "ex.py").write_text("import os\n")
    assert unreachable(tmp_path, "demo", "demo.cli") == ["demo.dead"]



def test_walk_finds_dead_definitions(tmp_path):
    pkg = tmp_path / "src" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from .core import exported\n__all__ = ['exported']\n"
    )
    (pkg / "cli.py").write_text(
        "from .core import Runner\n"
        "def main():\n"
        "    \"\"\"Prose may name prose_only; that is not a call.\"\"\"\n"
        "    Runner().go()\n"
        "    return {'spec': 'by_string'}\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    (pkg / "core.py").write_text(
        "def exported():\n"        # 1: only re-exported
        "    pass\n"
        "def dead_root():\n"       # 3: nothing calls it
        "    return dead_leaf()\n"
        "def dead_leaf():\n"       # 5: only a dead function calls it
        "    pass\n"
        "class Runner:\n"
        "    def go(self):\n"      # reached through an attribute
        "        pass\n"
        "    def __repr__(self):\n"
        "        return 'Runner'\n"
        "    def visit_Name(self, node):\n"
        "        pass\n"
        "def by_string():\n"       # reached through a string
        "    pass\n"
        "def kept():\n"            # allowlisted
        "    pass\n"
        "def tested():\n"          # 18: only a test uses it
        "    pass\n"
        "def prose_only():\n"      # 20: only a docstring names it
        "    pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text(
        "from demo.core import tested\ntested()\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "ex.py").write_text("import demo.cli\n")
    dead = unreached_definitions(tmp_path, "demo", {"demo.core.kept": "why"})
    assert dead == [
        "src/demo/core.py:1 demo.core.exported",
        "src/demo/core.py:3 demo.core.dead_root",
        "src/demo/core.py:5 demo.core.dead_leaf",
        "src/demo/core.py:18 demo.core.tested",
        "src/demo/core.py:20 demo.core.prose_only",
    ]

def test_every_repro_definition_is_reachable():
    dead = unreached_definitions(ROOT, "repro", PUBLIC_API)
    assert not dead, (
        "definitions no entry point reaches:\n" + "\n".join(dead) + "\n"
        "delete them (with their tests), move a test-only oracle to "
        "tests/oracles.py, or wire them into a flow, the CLI, serving or "
        "a benchmark"
    )


def test_public_api_is_short_and_needed():
    assert len(PUBLIC_API) <= 6 and all(PUBLIC_API.values())
    # An entry that names no definition, or that an entry point
    # reaches anyway, is stale.
    unlisted = unreached_definitions(ROOT, "repro", {})
    assert set(PUBLIC_API) <= {where.split()[-1] for where in unlisted}
