import pytest

from invariant_props import PROPERTIES


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.__name__)
def test_invariant(prop, run_property):
    assert run_property(prop), f"{prop.__name__} failed earlier in this session"
