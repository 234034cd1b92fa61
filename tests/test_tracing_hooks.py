"""Every function that ``bench/tracing.py`` wraps by name exists in the package.

The file is read, not imported, so nothing is written next to it.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
hooks = {}
exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), hooks)
ENTRIES = hooks["SPANNED"] + hooks["COUNTED"]


@pytest.mark.parametrize(
    "module, cls, attr, name", ENTRIES, ids=[".".join(filter(None, e[:3])) for e in ENTRIES]
)
def test_trace_hook_resolves(module, cls, attr, name):
    holder = importlib.import_module("troptri." + module)
    if cls:
        holder = getattr(holder, cls)
    assert callable(getattr(holder, attr, None)), "%s wraps a missing function" % name
