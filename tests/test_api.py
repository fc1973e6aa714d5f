import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import elastica

MODULES = ["elastica"] + [
    f"elastica.{info.name}" for info in pkgutil.iter_modules(elastica.__path__)
]
ROOT = Path(__file__).resolve().parent.parent
INIT = Path(elastica.__file__).resolve()


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _user_text(*skip: Path) -> str:
    # helpers that only unit tests read live in tests/; tests/test_acceptance.py
    # counts as a user, since it gates the paper's claims
    files = [*ROOT.glob("src/elastica/*.py"), *ROOT.glob("demos/*.py"),
             *ROOT.glob("perfbench/*.py"), ROOT / "README.md",
             ROOT / "tests" / "test_acceptance.py"]
    return "\n".join(f.read_text() for f in files if f.resolve() not in skip)


def _public_members(cls) -> list[str]:
    """Public methods, properties and class attributes that cls defines or inherits
    from the package, without its dataclass fields."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return sorted({n for base in cls.__mro__ if base.__module__.startswith("elastica")
                   for n in vars(base) if not n.startswith("_") and n not in fields})


def test_every_public_name_has_a_user_outside_the_unit_tests():
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        own = Path(module.__file__).resolve()
        text = _user_text(own, INIT)
        unused += [n for n in getattr(module, "__all__", ()) if not re.search(rf"\b{n}\b", text)]
    everywhere = _user_text()
    classes = {obj for name in MODULES for obj in vars(importlib.import_module(name)).values()
               if inspect.isclass(obj) and obj.__module__.startswith("elastica")
               and obj.__name__ in getattr(importlib.import_module(obj.__module__), "__all__", ())}
    for cls in sorted(classes, key=lambda c: c.__name__):
        unused += [f"{cls.__name__}.{n}" for n in _public_members(cls)
                   if not re.search(rf"\.{n}\b", everywhere)]
    assert unused == []
