"""The package's public surface: __all__ names exactly what ksnet/__init__.py binds."""

import types

import ksnet

REMOVED = ("BranchValue", "ClassReport", "InnerValue", "PropertyReport", "RangeReport", "TopologyReport",
           "lambda_series", "phi_exact")


def test_every_export_resolves_and_star_import_binds_exactly_them():
    for name in ksnet.__all__:
        getattr(ksnet, name)
    namespace: dict = {}
    exec("from ksnet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ksnet.__all__)
    assert len(set(ksnet.__all__)) == len(ksnet.__all__)


def test_all_is_every_public_name_the_package_binds():
    """Submodules are bound too (ksnet.hashmaps and the like), but they are not exports."""
    bound = {name for name, value in vars(ksnet).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(ksnet.__all__)
    assert not bound.intersection(REMOVED)
