"""The package's public names: ``__all__`` lists each once, and each resolves."""

import kernelcg


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from kernelcg import *", namespace)
    names = kernelcg.__all__
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(kernelcg, name)]
    assert missing == []
    assert set(names) <= namespace.keys()
