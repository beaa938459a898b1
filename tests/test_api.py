"""Every public name in ``lofo.__all__`` has a caller.

A caller is a whole-word reference in ``src/lofo`` outside the name's own
module and ``__init__.py``, in ``perfbench/``, in ``demos/`` or in the
acceptance suite.  Unit tests of the name's own module do not count.  A
class also passes when a passing function's return annotation names it.
"""

import inspect
import re
from pathlib import Path

import lofo

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "lofo"


def _caller_texts() -> dict:
    paths = [p for p in sorted(PKG.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return {p: p.read_text(encoding="utf-8") for p in paths}


def _mentions(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def _has_caller(name: str, texts: dict) -> bool:
    own = PKG / (getattr(lofo, name).__module__.rsplit(".", 1)[-1] + ".py")
    return any(path != own and _mentions(name, text) for path, text in texts.items())


def _return_annotation(obj) -> str:
    if isinstance(obj, type) or not callable(obj):
        return ""
    ret = inspect.signature(obj).return_annotation
    return "" if ret is inspect.Signature.empty else str(ret)


def test_every_public_name_has_a_caller():
    texts = _caller_texts()
    called = {name for name in lofo.__all__ if _has_caller(name, texts)}
    returned = " ".join(_return_annotation(getattr(lofo, name)) for name in called)
    uncalled = [
        name for name in lofo.__all__
        if name not in called
        and not (isinstance(getattr(lofo, name), type) and _mentions(name, returned))
    ]
    assert uncalled == []
