"""Lazy re-exports (PEP 562): a package ``__init__`` names its public surface
once, and a submodule loads when one of its names is first used."""

import sys
from importlib import import_module


def lazy_exports(package, table):
    """``(__getattr__, __dir__, __all__)`` of ``package`` for ``{submodule: names}``.

    ``submodule`` is relative to ``package`` (``".lp"``, ``"..workload.population"``).
    A resolved name is cached in the package namespace, so ``__getattr__`` runs once per name.
    """
    origin = {name: submodule for submodule, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(origin[name], package), name)
        return value

    def __dir__():
        return sorted({*namespace, *origin})

    return __getattr__, __dir__, sorted(origin)
