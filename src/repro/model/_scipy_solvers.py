"""scipy's two compiled solvers, reached without ``scipy.optimize``.

``import scipy.optimize`` executes the package ``__init__``, which imports
every optimiser scipy ships plus ``scipy.linalg`` and OpenBLAS: ≈ 0.3 s and
≈ 40 MB of a process that needs HiGHS (the LP) and SLSQP (the
proportional-fair references) only.  :func:`load` maps one extension module
from its file, as ``import`` would, without executing the ``__init__`` files
between ``scipy`` and it; :func:`minimize_slsqp` drives SLSQP with the loop
``scipy.optimize._slsqp_py._minimize_slsqp`` runs for the problems repro
poses, so its floats are ``minimize(method="SLSQP")``'s
(``tests/test_model_slsqp.py`` keeps ``minimize`` as the oracle).
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

from ..errors import ModelError

#: scipy's HiGHS bindings (scipy >= 1.15), what ``linprog(method="highs")`` calls.
HIGHS = "scipy.optimize._highspy._core"
#: scipy's SLSQP (scipy >= 1.17, whose calling convention minimize_slsqp follows),
#: what ``minimize(method="SLSQP")`` calls.
SLSQP = "scipy.optimize._slsqplib"

#: ``minimize``'s SLSQP messages, by exit mode.
EXIT_MODES = {
    0: "Optimization terminated successfully",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}


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


def minimize_slsqp(fun, grad, x0, a, b, lower, upper):
    """``minimize(fun, x0, jac=grad, bounds=zip(lower, upper), method="SLSQP",
    constraints={"type": "ineq", "fun": lambda x: b - a @ x, "jac": lambda x: -a},
    options={"maxiter": 500, "ftol": 1e-10})`` as ``(x, exit mode, iterations)``.

    ``lower`` / ``upper`` are float arrays, ±inf where ``bounds`` held ``None``.
    Without scipy's SLSQP module, or with a scipy older than 1.17 (whose
    module may take other arguments), this is a :class:`ModelError` naming it.
    """
    needs = f"proportional fairness needs {SLSQP} (scipy >= 1.17)"
    try:
        slsqp = load(SLSQP).slsqp
    except ImportError as error:
        raise ModelError(needs) from error
    if tuple(int(part) for part in sys.modules["scipy"].__version__.split(".")[:2]) < (1, 17):
        raise ModelError(needs)
    import numpy as np

    if (lower > upper).any():
        raise ValueError("SLSQP Error: lb > ub in bounds")
    x = np.clip(np.asarray(x0, dtype=float).reshape(-1), lower, upper)
    xl = np.where(np.isfinite(lower), lower, np.nan)  # NaN: no bound, as the C code reads it
    xu = np.where(np.isfinite(upper), upper, np.nan)
    m, n = a.shape
    state = {
        "acc": 1e-10, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
        "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * 1e-10, "exact": 0, "inconsistent": 0,
        "reset": 0, "iter": 0, "itermax": 500, "line": 0, "m": m, "meq": 0,
        "mode": 0, "n": n,
    }
    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28
    if m == 0:
        size += 2 * n * (n + 1)
    buffer = np.zeros(max(size, 1))
    fx, g = fun(x), grad(x)
    mult = np.zeros(max(1, m + 2 * n + 2))
    normals = -a
    c = np.zeros((max(1, m), n), order="F")
    d = np.zeros(max(1, m))
    c[:m] = normals
    d[:m] = b - a @ x
    while True:
        slsqp(state, fx, g, c, d, x, mult, xl, xu, buffer, indices)
        if state["mode"] == 1:  # f and the constraints at the new x
            fx = fun(x)
            d[:m] = b - a @ x
        elif state["mode"] == -1:  # the gradient and the constraint normals
            g = grad(x)
            c[:m] = normals
        else:
            return x, state["mode"], state["iter"]
