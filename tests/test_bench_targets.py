"""The benchmark tracer's patch targets exist where it patches them.

``perfbench/tracer.py`` wraps each ``Class.method`` target through the
class's own ``__dict__`` and each function target by name in its module.  A
method moved into a base class, or a function renamed, would break only a
traced benchmark run, so its ``TARGETS`` list is checked here.  The file is
loaded from disk and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _span, module, attr, _mode, _pairs in tracer.TARGETS]


TARGETS = load_targets()


def test_the_tracer_has_targets():
    assert len(TARGETS) > 30


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_each_target_is_where_the_tracer_patches_it(module, attr):
    owner = importlib.import_module(f"superspin.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), f"{attr} is not in its class's own body"
    else:
        assert callable(getattr(owner, attr))
