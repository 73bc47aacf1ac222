"""Shared test set-up."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _empty_flexhist_caches():
    """Start every test with every functools cache in flexhist empty, as the
    benchmark does before each pass, so cache counts never depend on which
    tests ran first."""
    for key, mod in list(sys.modules.items()):
        if key == "flexhist" or key.startswith("flexhist."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
