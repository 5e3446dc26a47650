"""The benchmark's tracer hooks still name real functions.

``bench/tracing.py`` wraps each ``TARGETS`` entry by module and
attribute name; a rename in ``src/`` would leave a hook that no longer
resolves. ``Class.method`` targets are patched on the class, so the
method must be defined in the class body itself.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
TARGETS = _tracing.TARGETS


@pytest.mark.parametrize("mod_name, attr", [(t[2], t[3]) for t in TARGETS], ids=lambda v: v)
def test_target_resolves(mod_name, attr):
    mod = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))
