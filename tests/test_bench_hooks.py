"""The benchmark's traced run wraps germkit names where they are looked up.

``germbench/spans.py`` replaces each ``WRAPS`` entry with
``setattr(owner, attr, wrapper)`` after reading ``vars(owner)[attr]``.  A
name that moves to another module raises ``KeyError`` there; a name that
stays importable but is no longer called through that lookup site makes its
layer read 0 s.  This test catches both without running the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "germbench" / "spans.py"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "germkit"


def _load_spans():
    spec = importlib.util.spec_from_file_location("germbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPS = _load_spans().WRAPS


def _calls(source: str, name: str) -> bool:
    """Whether ``source`` calls ``name``, which may be dotted; a definition
    or a call through some other attribute does not count."""
    return re.search(rf"(?<!def )(?<![\w.]){re.escape(name)}\(", source) is not None


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in WRAPS])
def test_wrapped_name_resolves_and_is_called(module, path):
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    assert attr in vars(owner), f"{module}.{path} is not an attribute of its owner"
    sources = [p.read_text(encoding="utf-8") for p in SRC.glob("*.py")]
    if attr == "__init__":
        # Wrapped on the class: every construction goes through it.
        called = any(_calls(s, classes[-1]) for s in sources)
    elif classes:
        called = any(f".{attr}(" in s for s in sources)
    else:
        # Wrapped on the module: calls by bare name inside it, or through
        # the module object (``linalg.rref``) from elsewhere, go through it.
        own = inspect.getsource(owner)
        dotted = f"{module.rsplit('.', 1)[-1]}.{attr}"
        called = _calls(own, attr) or any(_calls(s, dotted) for s in sources)
    assert called, f"no call to {path} goes through {module}"
