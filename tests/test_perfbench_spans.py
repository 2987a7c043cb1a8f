"""The repository benchmark's instrumentation still fits the program.

``perfbench/run.py --trace 1`` wraps public functions by attribute name
(``perfbench/workloads.py``) and names event callbacks and network
handlers by ``__qualname__`` (``perfbench/spans.py``).  A renamed
function would otherwise crash only the traced benchmark run; these
checks fail in tier-1 within a second instead.  They only read
``perfbench/``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: The script-directory modules ``perfbench/run.py`` imports by bare name.
_MODULES = ("checks", "spans", "workloads")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``spans`` and ``workloads`` modules, imported the way
    ``run.py`` imports them (its directory first on ``sys.path``)."""
    saved = {n: sys.modules.pop(n) for n in _MODULES if n in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for n in _MODULES:
            sys.modules.pop(n, None)
        sys.modules.update(saved)


def _method_qualnames() -> set[str]:
    """``Class.method`` of every function defined on a class in ``repro``."""
    names = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__:
                names.update(
                    fn.__qualname__
                    for fn in vars(cls).values()
                    if inspect.isfunction(fn)
                )
    return names


def test_core_spans_install_and_restore(perfbench):
    spans, workloads = perfbench
    rec = spans.SpanRecorder()
    try:
        workloads._install_core_spans(rec)
        patched = list(rec.patches._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        rec.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_span_qualnames_name_existing_methods(perfbench):
    spans, _ = perfbench
    methods = _method_qualnames()
    mapped = [
        q
        for q in (*spans.CALLBACK_SPANS, *spans.HANDLER_SPANS)
        if "<locals>" not in q
    ]
    assert mapped
    missing = [q for q in mapped if q not in methods]
    assert not missing, f"perfbench/spans.py names missing methods: {missing}"
