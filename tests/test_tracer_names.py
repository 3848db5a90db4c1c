"""The benchmark tracer (``perfbench/tracer.py``) still finds every name it
rebinds, and puts each original back.

The tracer wraps library functions by name and reads ring payload methods
with ``vars(cls)[...]``, so renaming a wrapped function, or moving a ring's
``payload_mul`` or ``payload_add`` to a base class, breaks it.  Only a
traced benchmark run would show that otherwise.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")  # wrapped functions are read here
    methods = {*tracer.METHODS.values(), *tracer.COUNTERS.values()}
    modules = [m for name, m in sys.modules.items() if name == "arclift" or name.startswith("arclift.")]
    before = [(owner, dict(vars(owner))) for owner in modules + [cls for cls, _ in methods]]
    t = tracer.Tracer()
    try:
        t.install()  # payload methods are read with vars(cls)[...] here
        rebound = list(t._undo)
        for owner, attr, original in rebound:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        t.uninstall()
    assert {fn for fns in tracer.FUNCTIONS.values() for fn in fns} <= {fn for _, _, fn in rebound}
    assert methods <= {(owner, attr) for owner, attr, _ in rebound}
    for owner, names in before:  # every rebound attribute is the original again
        assert all(vars(owner).get(k) is v for k, v in names.items()), owner
