"""Every module, function, method and class under ``src/repro`` is
reached from an entry point, and every defaulted parameter of a
reached definition is set by some caller.

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

The parameter walk matches calls to definitions by spelling too (see
``test_every_repro_parameter_is_set``).  Its exemptions are seeds and
RNGs, ``main``'s ``argv`` and the ``KNOBS`` allowlist.

Tests do not count: a module, function or parameter that only its own
tests use is dead code.
"""

import ast
import functools
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


@functools.cache
def parse(path: Path) -> ast.Module:
    """The syntax tree of ``path``, parsed once per test session."""
    return ast.parse(path.read_text(encoding="utf-8"))


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
    trees = {name: parse(path) for name, path in modules.items()}
    todo = [entry]
    todo += [name for name, tree in trees.items()
             if name.endswith(".__main__") or runs_as_main(tree)]
    for folder in CONSUMERS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = parse(path)
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


def walk_definitions(root: Path, package: str, public_api: dict[str, str]
                     ) -> tuple[list[Definition], set[str]]:
    """Every definition in ``root/src/package`` and the set of names the
    walk reaches from the roots (see the module docstring)."""
    roots: set[str] = set()
    for folder in CONSUMERS:
        for path in sorted((root / folder).rglob("*.py")):
            consumer: list[Definition] = []
            tree = parse(path)
            _scan(tree.body, "", roots, consumer, "", False)
            for definition in consumer:
                roots |= definition.uses
    found: list[Definition] = []
    for module, path in package_modules(root / "src", package).items():
        tree = parse(path)
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
    return found, reached


def unreached_definitions(root: Path, package: str,
                          public_api: dict[str, str]) -> list[str]:
    """``path:line qualname`` of every definition in ``root/src/package``
    that no root reaches (see the module docstring)."""
    found, reached = walk_definitions(root, package, public_api)
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


SOURCES = ("src", *CONSUMERS)
SEEDS = {"seed", "master_seed", "rng"}
KNOBS = {
    "repro.sim.engine._levelize(_stats)": (
        "observation seam: the cutover regression tests read the Jacobi "
        "round count and whether the scalar fallback ran, which the "
        "returned levels do not show"
    ),
}


class Parameter(NamedTuple):
    where: str  # "path:line qualname(param)"
    qualname: str
    function: str
    owner: str | None  # the class whose ``__init__`` this is
    name: str
    position: int | None  # index among a call's arguments; None: keyword-only


class Call(NamedTuple):
    positional: int  # arguments before the first ``*args``
    star: bool  # ``*args`` may set every later position
    keywords: set[str | None]  # ``None``: ``**kwargs`` may set any name


def _spelling(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call(args: list[ast.expr], keywords: list[ast.keyword]) -> Call:
    star = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)),
                None)
    return Call(len(args) if star is None else star, star is not None,
                {k.arg for k in keywords})


def _forwards(keyword: ast.keyword) -> bool:
    """``p=p``: a parameter passed on under its own name."""
    return isinstance(keyword.value, ast.Name) and keyword.value.id == keyword.arg


def _calls(node: ast.AST, calls: dict[str, list[Call]],
           bases: list[str], within: str | None) -> None:
    """Add each call under ``node`` to ``calls`` under the name it
    spells.  ``partial(f, ...)`` calls ``f``; ``super().__init__(...)``
    calls the enclosing class's ``bases``, as ``Base(...)`` would.
    Inside the function named ``within``, a call spelled the same
    (recursion, or ``super().f``) that passes ``p=p`` on does not set
    ``p``: the parameter only sets itself."""
    if isinstance(node, ast.ClassDef):
        bases = [b for b in map(_spelling, node.bases) if b]
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        within = node.name
    elif isinstance(node, ast.Call):
        names, args = [_spelling(node.func)], node.args
        if names == ["partial"] and args:
            names, args = [_spelling(args[0])], args[1:]
        elif (names == ["__init__"] and isinstance(node.func.value, ast.Call)
              and _spelling(node.func.value.func) == "super"):
            names = bases
        for name in filter(None, names):
            keywords = [k for k in node.keywords
                        if not (name == within and _forwards(k))]
            calls.setdefault(name, []).append(_call(args, keywords))
    for child in ast.iter_child_nodes(node):
        _calls(child, calls, bases, within)


def _parameters(nodes, qualname: str, owner: str | None, where: str,
                found: list[Parameter], bases: dict[str, set[str]]) -> None:
    """Add each defaulted parameter defined in ``nodes`` to ``found`` and
    each class's base names to ``bases``."""
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            bases.setdefault(node.name, set()).update(
                b for b in map(_spelling, node.bases) if b)
            _parameters(node.body, f"{qualname}.{node.name}", node.name,
                        where, found, bases)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{qualname}.{node.name}"
            # A method's call sites omit ``self``.
            static = any(_spelling(d) == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if owner and not static else 0
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(arg, i - skip)
                         for i, arg in enumerate(positional) if i >= first]
            defaulted += [(arg, None) for arg, default
                          in zip(a.kwonlyargs, a.kw_defaults) if default]
            for arg, position in defaulted:
                found.append(Parameter(
                    f"{where}:{node.lineno} {name}({arg.arg})", name,
                    node.name, owner if node.name == "__init__" else None,
                    arg.arg, position))
            _parameters(node.body, name, None, where, found, bases)
        else:
            _parameters(ast.iter_child_nodes(node), qualname, owner, where,
                        found, bases)


def unset_parameters(root: Path, package: str, public_api: dict[str, str],
                     knobs: dict[str, str]) -> list[str]:
    """``path:line qualname(param)`` of every defaulted parameter of a
    reached definition in ``root/src/package`` that no call in ``src/``,
    ``benchmarks/``, ``examples/`` or ``perfbench/`` may set (see
    ``test_every_repro_parameter_is_set``)."""
    calls: dict[str, list[Call]] = {}
    for folder in SOURCES:
        for path in sorted((root / folder).rglob("*.py")):
            _calls(parse(path), calls, [], None)
    found: list[Parameter] = []
    bases: dict[str, set[str]] = {}
    for module, path in package_modules(root / "src", package).items():
        tree = parse(path)
        _parameters(tree.body, module, None, str(path.relative_to(root)),
                    found, bases)
    subclasses: dict[str, set[str]] = {}
    for cls, names in bases.items():
        for base in names:
            subclasses.setdefault(base, set()).add(cls)
    definitions, reached = walk_definitions(root, package, public_api)
    live = {d.qualname for d in definitions
            if d.name in reached or EXEMPT.fullmatch(d.name)
            or d.qualname in public_api}

    def callers(p: Parameter) -> set[str]:
        """Names whose calls reach ``p``: a class's constructor is
        called through the class or any subclass, and ``__call__``
        through an instance, which any name may hold."""
        if p.function == "__call__":
            return set(calls)
        names, todo = {p.function}, [p.owner] if p.owner else []
        while todo:
            cls = todo.pop()
            if cls not in names:
                names.add(cls)
                todo += subclasses.get(cls, ())
        return names

    def sets(call: Call, p: Parameter) -> bool:
        if p.name in call.keywords or None in call.keywords:
            return True
        return p.position is not None and (
            p.position < call.positional or call.star)

    return [
        p.where for p in found
        if p.qualname in live
        and p.name not in SEEDS
        and not (p.function == "main" and p.name == "argv")
        and f"{p.qualname}({p.name})" not in knobs
        and not any(sets(call, p) for name in callers(p)
                    for call in calls.get(name, ()))
    ]


def test_every_repro_parameter_is_set():
    """A defaulted parameter that nothing outside the tests sets is a
    knob no entry point turns: its default belongs in the body as a
    constant, with any branch that only another value selects deleted.
    Calls are matched to definitions by spelling, as in the definition
    walk: by keyword, by position (a method's calls omit ``self``),
    through ``functools.partial``, through a class or a subclass for
    ``__init__``, and through ``*args``/``**kwargs``, which may set any
    parameter they could reach.  Seeds, RNGs and ``main``'s ``argv``
    are exempt, and ``KNOBS`` lists the few seams kept on purpose, each
    with its reason."""
    unset = unset_parameters(ROOT, "repro", PUBLIC_API, KNOBS)
    assert not unset, (
        "parameters nothing outside the tests sets:\n" + "\n".join(unset)
        + "\nmake each default a constant in the body and delete the "
        "branches only another value selects"
    )


def test_walk_finds_dead_parameters(tmp_path):
    pkg = tmp_path / "src" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "from functools import partial\n"
        "from .core import (Child, Grandchild, Plain, by_keyword,\n"
        "                   by_position, forwarded, seam, seeded, tested,\n"
        "                   via_partial)\n"
        "def wrapper(**kwargs):\n"
        "    return forwarded(**kwargs)\n"
        "def main(argv=None):\n"
        "    by_keyword(1, flag=True)\n"
        "    by_position(1, 2)\n"
        "    partial(via_partial, k=3)(0)\n"
        "    Child(5)\n"
        "    seeded(1)\n"
        "    tested(1)\n"
        "    seam(1)\n"
        "    Plain().method(1)\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    (pkg / "core.py").write_text(
        "def by_keyword(a, flag=False):\n"
        "    pass\n"
        "def by_position(a, b=0):\n"
        "    pass\n"
        "def via_partial(a, k=1):\n"
        "    pass\n"
        "class Base:\n"
        "    def __init__(self, size=1, depth=2):\n"
        "        pass\n"
        "class Child(Base):\n"               # Child(5) sets size
        "    pass\n"
        "class Grandchild(Child):\n"
        "    def __init__(self):\n"
        "        super().__init__(depth=3)\n"
        "def forwarded(x=0):\n"
        "    pass\n"
        "def seeded(a, seed=0, rng=None):\n"
        "    pass\n"
        "def tested(a, knob=1):\n"           # 19: only a test sets knob
        "    pass\n"
        "def seam(a, _stats=None):\n"        # allowlisted
        "    pass\n"
        "class Plain:\n"
        "    def method(self, a, opt=3):\n"  # 24: a call omits self
        "        pass\n"
        "class Fancy(Plain):\n"
        "    def method(self, a, opt=3):\n"  # 27: only passes opt on
        "        return super().method(a, opt=opt)\n"
        "def dead(a, b=1):\n"                # unreached: not a knob
        "    pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text(
        "from demo.core import tested\ntested(1, knob=2)\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "ex.py").write_text("import demo.cli\n")
    unset = unset_parameters(tmp_path, "demo", {},
                             {"demo.core.seam(_stats)": "why"})
    assert unset == [
        "src/demo/core.py:19 demo.core.tested(knob)",
        "src/demo/core.py:24 demo.core.Plain.method(opt)",
        "src/demo/core.py:27 demo.core.Fancy.method(opt)",
    ]


def test_knobs_are_short_and_needed():
    assert len(KNOBS) <= 3 and all(KNOBS.values())
    # An entry that names no parameter, or one some caller sets
    # anyway, is stale.
    unlisted = unset_parameters(ROOT, "repro", PUBLIC_API, {})
    assert set(KNOBS) <= {where.split()[-1] for where in unlisted}
