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

The scan cannot see methods and operators: ``a * b`` calls
``Tensor.__mul__`` without naming it. A second check runs a small pass
of the program and counts the calls that reach each engine function
and ``Tensor`` method.
"""

import ast
import inspect
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


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.add(name)
        return fn(*args, **kwargs)
    return counted


def test_every_engine_function_and_tensor_method_runs_in_a_program_pass(monkeypatch):
    """Each public ``autodiff`` function, and each public method, property
    and operator of ``Tensor`` but ``__init__`` and ``__repr__``, is called
    by one step of each stage, both validation losses and a beam:2 decode.

    The ``ast`` scan above cannot see these calls: an operator names no
    method (``a * b`` calls ``Tensor.__mul__``), and a method is found
    through its object, whose type the scan does not know. So this check
    counts calls at run time. ``layer_norm`` is the one exception: only the
    benchmark's tracer binds it, as the scan sees."""
    # imported here: the scan, which also runs as a script, imports nothing
    from mvreport import autodiff as ad
    from mvreport.data import make_batches
    from mvreport.encoders import init_stage1_params
    from mvreport.kgrg import finetune_step, generate_batch, init_stage2_params, split_param_groups
    from mvreport.mvcl import pretrain_step
    from mvreport.optim import AdamW
    from mvreport.rng import Rng
    from mvreport.synthetic import SynthSpec
    from mvreport.training import validation_lm_loss, validation_stage1_loss
    from conftest import synth_studies, tiny_config

    calls, names = set(), set()
    for name, fn in vars(ad).items():
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_"):
            names.add(name)
            monkeypatch.setattr(ad, name, _counting(calls, name, fn))
    for name, member in vars(ad.Tensor).items():
        public = not name.startswith("_") or (name.endswith("__") and name not in ("__init__", "__repr__"))
        qualified = f"Tensor.{name}"
        if public and inspect.isfunction(member):
            names.add(qualified)
            monkeypatch.setattr(ad.Tensor, name, _counting(calls, qualified, member))
        elif public and isinstance(member, property):
            names.add(qualified)
            monkeypatch.setattr(ad.Tensor, name, property(_counting(calls, qualified, member.fget)))

    config = tiny_config(max_tokens=4)
    studies, vocab = synth_studies(SynthSpec(n_studies=8, view_count_range=(1, 3), image_size=8,
                                             indication_rate=0.5, seed=3))
    batch = make_batches(studies, config.batch_size, seed=0)[0]
    params = init_stage1_params(config, len(vocab), Rng(1))
    pretrain_step(batch, params, vocab, AdamW([(params, 1e-3)]), config)
    validation_stage1_loss(studies, params, vocab, config)
    params.update(init_stage2_params(config, len(vocab), Rng(2)))
    group1, group2 = split_param_groups(params)
    finetune_step(batch, params, vocab, AdamW([(group1, 1e-4), (group2, 1e-3)]), config)
    validation_lm_loss(studies, params, vocab, config)
    generate_batch(studies, params, vocab, config, mode="beam", beam_width=2)

    never = names - calls
    assert never == {"layer_norm"}, "engine names a program pass never calls: " + ", ".join(sorted(never))


if __name__ == "__main__":
    unused, benchmark_only = scan()
    for title, rows in (("unused", unused), ("used only by perfbench/", benchmark_only)):
        print(f"{title}:")
        for module, name, where in rows:
            print(f"  {module}.{name} ({where})")
    sys.exit(1 if unused else 0)
