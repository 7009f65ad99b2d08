import mfglab


def test_every_export_resolves():
    assert [name for name in mfglab.__all__ if not hasattr(mfglab, name)] == []


def test_exports_are_unique():
    assert len(set(mfglab.__all__)) == len(mfglab.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from mfglab import *", namespace)
    assert {name: namespace[name] for name in mfglab.__all__} == {name: getattr(mfglab, name) for name in mfglab.__all__}


def test_retired_registries_are_not_exported():
    assert {"FEEDBACK_CATALOG", "register_game"}.isdisjoint(mfglab.__all__)
    assert not hasattr(mfglab, "FEEDBACK_CATALOG") and not hasattr(mfglab, "register_game")
