import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import jrsched


@pytest.mark.parametrize("name", jrsched.__all__)
def test_lazy_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"jrsched.{jrsched._HOME[name]}")
    value = getattr(jrsched, name)
    assert value is getattr(home, name)
    # classes and functions are defined in their home, not re-exported there
    if hasattr(value, "__qualname__"):
        assert value.__module__ == home.__name__


def test_every_benchmark_wrapped_name_resolves():
    # the benchmark replaces these attributes; a dropped import would break
    # only its own suite, which Tier-1 does not run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attribute}" for module, attribute, _, _ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"jrsched.{module}"), attribute, None))
    ]
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jrsched.no_such_name


def _unused_imports(path):
    """Names a module imports but never reads (stdlib ``ast`` only)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_every_module_uses_its_imports():
    package = Path(jrsched.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []
