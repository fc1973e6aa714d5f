import importlib
import pkgutil

import pytest

import elastica

MODULES = ["elastica"] + [
    f"elastica.{info.name}" for info in pkgutil.iter_modules(elastica.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_wg_export_has_a_user_outside_the_unit_tests():
    # helpers that only unit tests read live in tests/; tests/test_acceptance.py
    # counts as a user, since it gates the paper's claims
    import re
    from pathlib import Path

    import elastica.wg as module

    root = Path(__file__).resolve().parent.parent
    own = Path(module.__file__).resolve()
    files = [*root.glob("src/elastica/*.py"), *root.glob("demos/*.py"),
             *root.glob("perfbench/*.py"), root / "README.md",
             root / "tests" / "test_acceptance.py"]
    text = "\n".join(f.read_text() for f in files if f.resolve() != own)
    unused = [n for n in module.__all__ if not re.search(rf"\b{n}\b", text)]
    assert unused == []
