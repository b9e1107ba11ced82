"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the ``repro`` CLI, every module that runs under
``python -m`` (a ``__main__`` module or one with a
``__name__ == "__main__"`` guard), and every ``repro`` import in
``benchmarks/``, ``examples/`` and ``perfbench/``.  The walk follows
``import`` statements anywhere in a module's source, function bodies
included, and reaching a module reaches its parent packages.  Tests
do not count: a module that only its own tests import is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSUMERS = ("benchmarks", "examples", "perfbench")


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
