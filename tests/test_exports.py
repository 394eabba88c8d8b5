"""Tests for the package's export list."""

import types

import airmodem


def test_no_module_or_underscore_name_exported():
    for name in airmodem.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(airmodem, name, None), types.ModuleType), name


def test_every_exported_name_resolves():
    missing = [name for name in airmodem.__all__ if not hasattr(airmodem, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from airmodem import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(airmodem.__all__)
