"""Every public module-level function and class in ``src/mvreport`` is
used by the program or bound by the benchmark.

The scan reads the source with ``ast`` and imports nothing. A public name
``module.name`` counts as used when one of these refers to it:

- code in ``src/mvreport`` outside the name's own definition, resolved
  through the package's own imports: ``ad.exp`` after ``from . import
  autodiff as ad`` refers to ``autodiff.exp``, ``np.exp`` to nothing, and
  an import alone is no use;
- the non-test files of ``perfbench/``, through their ``mvreport``
  imports, or through a string whose first dotted segment is the name
  (``"layer_norm"``, ``"Tensor.backward"``), since the tracer binds its
  targets by string.

``cli.main``, the console-script entry point, is the only exception.
Run as a script, this file also lists the names that only the benchmark
uses.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvreport"
BENCH = ROOT / "perfbench"
ENTRY_POINTS = {("cli", "main")}


def public_definitions() -> dict:
    """``(module, name) -> "file:line"`` of every public module-level
    function and class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[(path.stem, node.name)] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return found


def _package_module(level: int, module: str | None):
    """The ``mvreport`` submodule an import names ("" for the package
    itself), or None for an import from outside the package."""
    if level:
        return module or ""
    if module == "mvreport" or (module or "").startswith("mvreport."):
        return module[len("mvreport."):]
    return None


def _bindings(tree) -> tuple:
    """``(modules, names)``: local name -> package module for module
    imports, and local name -> ``(module, name)`` for name imports."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node.level, node.module)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if not source and (PACKAGE / f"{alias.name}.py").exists():
                    modules[local] = alias.name
                elif source:
                    names[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                source = _package_module(0, alias.name)
                if source is not None:  # "import mvreport.x" binds the package, "... as y" the module
                    modules[alias.asname or "mvreport"] = source if alias.asname else ""
    return modules, names


def _module_of(node, modules):
    """The package module an expression names (``ad``, ``mvreport.kgrg``), or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute) and _module_of(node.value, modules) == "":
        return node.attr
    return None


def _references(tree, module: str, own_names) -> set:
    """``(module, name)`` pairs that ``tree`` (the file of ``module``)
    refers to, except a top-level definition's references to itself."""
    modules, names = _bindings(tree)
    refs = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                if node.id in names:
                    refs.add(names[node.id])
                elif node.id in own_names and node.id != owner:
                    refs.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                source = _module_of(node.value, modules)
                if source:
                    refs.add((source, node.attr))
    return refs


def _string_references(tree, public) -> set:
    """Public names that a string constant in ``tree`` starts with, as a
    dotted path: ``"Tensor.backward"`` refers to every public ``Tensor``."""
    heads = {node.value.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return {key for key in public if key[1] in heads}


def scan() -> tuple:
    """``(unused, benchmark_only)``: sorted ``(module, name, where)`` of
    the public names nothing uses, and of those only ``perfbench/`` uses."""
    public = public_definitions()
    in_src, in_bench = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        own = {name for module, name in public if module == path.stem}
        in_src |= _references(ast.parse(path.read_text()), path.stem, own)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_bench |= _references(tree, None, ()) | _string_references(tree, public)
    unused = [(*key, where) for key, where in sorted(public.items())
              if key not in in_src | in_bench | ENTRY_POINTS]
    benchmark_only = [(*key, where) for key, where in sorted(public.items())
                      if key in in_bench and key not in in_src]
    return unused, benchmark_only


def test_every_public_name_is_used_by_the_program_or_the_benchmark():
    unused, _ = scan()
    assert not unused, "public names that nothing in src/ or perfbench/ uses:\n" + "\n".join(
        f"  {module}.{name} ({where})" for module, name, where in unused)


def test_the_scan_resolves_references_through_the_package_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import autodiff as ad\n"
        "from .kgrg import generate_batch as decode\n"
        "from .metrics import bleu\n"
        "def helper():\n"
        "    return ad.exp(np.log(1.0)), decode, helper()\n"
        "def user(init):\n"
        "    init.layer_norm()\n"
        "    return helper\n")
    refs = _references(tree, "synthetic", {"helper", "user"})
    assert refs == {("autodiff", "exp"), ("kgrg", "generate_batch"), ("synthetic", "helper")}


def test_the_scan_counts_an_attribute_of_the_package_and_a_string_target():
    tree = ast.parse(
        "import mvreport.cli\n"
        "from mvreport import kgrg\n"
        "TARGETS = ('Tensor.backward', 'layer_norm', 'autodiff.op')\n"
        "mvreport.cli.main()\n"
        "kgrg.init.layer_norm\n")
    public = {("autodiff", "Tensor"), ("autodiff", "layer_norm"), ("encoders", "ParamInit"), ("cli", "main")}
    assert _references(tree, None, ()) == {("cli", "main"), ("kgrg", "init")}
    assert _string_references(tree, public) == {("autodiff", "Tensor"), ("autodiff", "layer_norm")}


if __name__ == "__main__":
    unused, benchmark_only = scan()
    for title, rows in (("unused", unused), ("used only by perfbench/", benchmark_only)):
        print(f"{title}:")
        for module, name, where in rows:
            print(f"  {module}.{name} ({where})")
    sys.exit(1 if unused else 0)
