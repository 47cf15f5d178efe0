import lossylqr


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from lossylqr import *", namespace)
    missing = [name for name in lossylqr.__all__ if name not in namespace]
    assert not missing
    assert len(set(lossylqr.__all__)) == len(lossylqr.__all__)
