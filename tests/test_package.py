import importlib

import pytest

import jrsched


@pytest.mark.parametrize("name", jrsched.__all__)
def test_lazy_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"jrsched.{jrsched._HOME[name]}")
    value = getattr(jrsched, name)
    assert value is getattr(home, name)
    # classes and functions are defined in their home, not re-exported there
    if hasattr(value, "__qualname__"):
        assert value.__module__ == home.__name__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jrsched.no_such_name
