"""Shared test configuration: every hypothesis test runs derandomised with no
deadline, so a run is reproducible and a slow example is not a failure.
Per-test ``settings`` set only ``max_examples``.

The ``wrap_kernel`` fixture is the one way for a test to count or poison
the package's kernel products."""

import functools
import sys

import pytest
from hypothesis import settings

from superspin import grassmann

settings.register_profile("superspin", deadline=None, derandomize=True)
settings.load_profile("superspin")


@pytest.fixture
def wrap_kernel(monkeypatch):
    """``wrap_kernel(wrapper)`` binds ``wrapper`` in place of ``_blade_product``
    in every superspin module that binds it (grassmann, supermatrix,
    orthosymplectic and clifford), each product then made as
    ``wrapper(product, *args, **kwargs)`` with ``product`` the kernel itself:
    a test sees every kernel product, wherever the package makes it."""
    product = grassmann._blade_product
    modules = [module for name, module in sys.modules.items()
               if name.startswith("superspin.")
               and getattr(module, "_blade_product", None) is product]

    def wrap(wrapper):
        for module in modules:
            monkeypatch.setattr(module, "_blade_product", functools.partial(wrapper, product))

    return wrap
