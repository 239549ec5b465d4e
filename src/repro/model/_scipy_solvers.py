"""scipy's HiGHS bindings, reached without ``scipy.optimize``.

``import scipy.optimize`` executes the package ``__init__``, which imports
every optimiser scipy ships plus ``scipy.linalg`` and OpenBLAS: ≈ 0.3 s and
≈ 40 MB of a process that needs HiGHS (the LP) only.  :func:`load` maps one
extension module from its file, as ``import`` would, without executing the
``__init__`` files between ``scipy`` and it.  The proportionally fair
references need no scipy at all (:func:`repro.model.lp.proportional_fair`).
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

#: scipy's HiGHS bindings (scipy >= 1.15), what ``linprog(method="highs")`` calls.
HIGHS = "scipy.optimize._highspy._core"


def load(name: str):
    """``import name`` for one of scipy's extension modules, minus the package
    ``__init__`` files between ``scipy`` and it.  As with ``import``, a module
    already in ``sys.modules`` is reused and a ``None`` there, for it or a
    parent, is an ``ImportError``; a later ``import scipy.optimize`` finds it
    registered."""
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        prefix = ".".join(parts[:end])
        if prefix in sys.modules and sys.modules[prefix] is None:
            raise ModuleNotFoundError(f"import of {prefix} halted; None in sys.modules", name=prefix)
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = import_module(parts[0])  # scipy's own __init__ (≈ 12 ms), as import runs it
    directory = os.path.join(package.__path__[0], *parts[1:-1])
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
