"""The package's export list."""
import fas


def test_every_exported_name_resolves():
    assert [name for name in fas.__all__ if not hasattr(fas, name)] == []


def test_no_duplicate_exports():
    assert len(set(fas.__all__)) == len(fas.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fas import *", namespace)
    assert set(fas.__all__) <= set(namespace)
