"""The demos, the benchmark and the README only name package attributes that exist.

``bench/`` and the README's examples do not run in this suite, so a renamed
or deleted public name would break them silently (``demos/`` runs in
test_demos.py). Here the scripts and the README's ```python blocks are
parsed, not run: every
name imported from ``emospeaker``, every ``<emospeaker module>.<name>`` read,
and every ``("emospeaker.<module>", "<attribute path>")`` string pair (the
benchmark's tracing targets) must resolve.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def sources() -> list[tuple[str, str, int]]:
    """(label, Python source, line offset in its file) of every script and
    every ```python block of README.md."""
    found = [(f"{p.parent.name}/{p.name}", p.read_text(encoding="utf-8"), 0) for p in SCRIPTS]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.finditer(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE):
        fence = readme.count("\n", 0, block.start()) + 1
        found.append((f"README.md:{fence}", block.group(1), fence))
    return found


def _is_package(name: str) -> bool:
    return name == "emospeaker" or name.startswith("emospeaker.")


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if hasattr(owner, part):
            owner = getattr(owner, part)
            continue
        try:
            owner = importlib.import_module(f"{owner.__name__}.{part}")
        except (AttributeError, ImportError):
            return False
    return True


def references(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, module, attribute path) for every package reference in a script."""
    modules: dict[str, str] = {}  # local name -> emospeaker module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and _is_package(node.module):
            for alias in node.names:
                found.append((node.lineno, node.module, alias.name))
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name):
                    name = alias.asname or alias.name.split(".")[0]
                    modules[name] = alias.name if alias.asname else name
        elif isinstance(node, (ast.Tuple, ast.Call)):
            items = node.elts if isinstance(node, ast.Tuple) else node.args
            for first, second in zip(items, items[1:]):
                if (
                    isinstance(first, ast.Constant) and isinstance(first.value, str)
                    and _is_package(first.value)
                    and isinstance(second, ast.Constant) and isinstance(second.value, str)
                ):
                    found.append((first.lineno, first.value, second.value))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return found


@pytest.mark.parametrize("script", sources(), ids=lambda source: source[0])
def test_package_references_resolve(script):
    label, text, offset = script
    tree = ast.parse(text, filename=label)
    missing = [
        f"{label.split(':')[0]}:{line + offset}: {module}.{path}"
        for line, module, path in references(tree)
        if not _resolves(module, path)
    ]
    assert not missing, "names the package no longer has:\n" + "\n".join(missing)


def test_readme_examples_are_checked():
    readme = [text for label, text, _ in sources() if label.startswith("README")]
    assert readme, "no ```python block found in README.md"
    assert all(references(ast.parse(text)) for text in readme)


def test_checker_sees_every_kind_of_reference():
    tree = ast.parse(
        "from emospeaker.hmm import log_forward, gone_name\n"
        "from emospeaker import sphmm\n"
        "import emospeaker.features as feats\n"
        "sphmm.fused_log_score\n"
        "sphmm.also_gone\n"
        "feats.load_observation\n"
        "TARGETS = {'a': ('emospeaker.hmm', 'GaussianMixture.component_log_pdf'),\n"
        "           'b': ('emospeaker.hmm', 'GaussianMixture.gone_method')}\n"
    )
    broken = sorted(
        f"{module}.{path}" for _, module, path in references(tree) if not _resolves(module, path)
    )
    assert broken == [
        "emospeaker.hmm.GaussianMixture.gone_method",
        "emospeaker.hmm.gone_name",
        "emospeaker.sphmm.also_gone",
    ]
