"""The package's public names, and the ones the benchmark imports.

``__all__`` lists each name once, and each resolves, and no module of the
package imports a ``_``-prefixed name from another. Every name that a
``perfbench/`` script takes from kernelcg resolves too, and the output check
``perfbench/outcheck.py`` runs its dense reference calls on a tiny design,
so a change to those names fails here before the benchmark's own tests run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelcg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(kernelcg.__file__).resolve().parent


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from kernelcg import *", namespace)
    names = kernelcg.__all__
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(kernelcg, name)]
    assert missing == []
    assert set(names) <= namespace.keys()


def private_imports(path: Path) -> list[str]:
    """``module.name`` for each ``_``-prefixed name a package module imports from another."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "kernelcg"
        ):
            out += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return out


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_another_modules_private_name(module):
    assert private_imports(PACKAGE / module) == []


def kernelcg_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from kernelcg... import name`` and each
    ``kernelcg.name`` attribute in a script."""
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kernelcg":
            out += [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "kernelcg"
        ):
            out.append(("kernelcg", node.attr))
    return out


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_imports_resolve(script):
    names = kernelcg_names(PERFBENCH / script)
    unresolved = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert unresolved == []


def load_outcheck():
    """The output check, imported from its path: it needs numpy and kernelcg alone."""
    name = "perfbench_outcheck"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "outcheck.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("mode", ["kn_norm", "euclidean"])
def test_outcheck_reference_calls_run(mode):
    # The calls of outcheck's dense route, each in the form it makes it:
    # KernelMatrix(entries=, n=) from MercerKernel.gram, cg_fit(K, y,
    # max_iter=, mode=), krylov_oracle(K, y, m, mode=) and error_norm(...).
    outcheck = load_outcheck()
    model = kernelcg.make_model(s=0.5, r=1.0, rho=1.0, truncation=20)
    rng = np.random.default_rng(3)
    x = rng.random(12)
    y = kernelcg.eval_target(model, x) + rng.uniform(-0.1, 0.1, x.size)
    K = outcheck._dense(model.kernel, x)
    assert isinstance(K, kernelcg.KernelMatrix) and K.n == x.size
    alphas = outcheck._iterates(K, y, 4, mode=mode)
    assert alphas.shape == (5, x.size)
    sq = outcheck._sq_error(model, alphas[-1], x, 0.0)
    assert np.isfinite(sq) and sq >= 0.0
