"""Self-contained builder for the compiled kernel extension.

The compiled kernel is a single hand-written CPython C extension
(``_ckernel.c``) living next to this module.  There is no build-time
dependency beyond a C compiler and the Python headers: the extension is
compiled lazily on first use, cached next to the source (or under the user
cache directory when the package directory is read-only) and keyed by a
content hash of the source, so editing ``_ckernel.c`` triggers a rebuild
while repeated imports pay three file reads and a stat.  That cache hit is
looked up first and needs neither compiler nor headers nor any import beyond
``os``, ``sys`` and ``importlib``; the toolchain loads in :func:`_compile`.

Every failure mode (no compiler, no headers, unwritable cache, compile
error) degrades to ``(None, reason)`` so the facade can fall back to the
pure-Python kernel; nothing here ever raises on the import path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import List, Optional, Tuple

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_DIR, "_ckernel.c")
#: What ``_ckernel.c`` includes from beside it (hashed with it, not compiled).
_INCLUDED = (os.path.join(_DIR, "_transport.h"), os.path.join(_DIR, "_fluid.h"))

#: Bump to force a rebuild when the build recipe (not the source) changes.
_RECIPE = "2"


def _source_key() -> str:
    blob = _RECIPE.encode()
    for path in (_SOURCE,) + _INCLUDED:
        with open(path, "rb") as handle:
            blob += handle.read()
    # The hash ``.pyc`` files are checked with: C, and loaded already.
    return importlib.util.source_hash(blob).hex()[:12]


def cache_filename() -> str:
    """The file a candidate directory holds the extension of these sources in."""
    return f"_ckernel-{_source_key()}{importlib.machinery.EXTENSION_SUFFIXES[0]}"


def _candidate_dirs() -> List[str]:
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    version = f"cp{sys.version_info[0]}{sys.version_info[1]}"
    return [_DIR, os.path.join(cache_root, "repro-kernel", version)]


def build_extension() -> Tuple[Optional[str], str]:
    """Return ``(path_to_shared_object, reason)``; path is None on failure."""
    try:
        filename = cache_filename()
    except FileNotFoundError as exc:
        return None, f"kernel source missing: {exc.filename}"
    except OSError as exc:  # pragma: no cover - unreadable source
        return None, f"kernel source unreadable: {exc}"
    directories = _candidate_dirs()
    for directory in directories:
        target = os.path.join(directory, filename)
        if os.path.exists(target):
            return target, "cached"
    return _compile(filename, directories)


def _compile(filename: str, directories: List[str]) -> Tuple[Optional[str], str]:
    """Build the extension into the first of ``directories`` that takes it."""
    import shlex
    import subprocess
    import sysconfig

    include_dir = sysconfig.get_paths().get("include")
    if not include_dir or not os.path.exists(os.path.join(include_dir, "Python.h")):
        return None, f"Python.h not found under {include_dir!r}"
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")

    last_error = "no writable cache directory"
    for directory in directories:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            last_error = f"cannot create {directory}: {exc}"
            continue
        if not os.access(directory, os.W_OK):
            last_error = f"{directory} not writable"
            continue
        target = os.path.join(directory, filename)
        tmp = os.path.join(directory, f".{filename}.tmp{os.getpid()}")
        cmd = compiler + [
            "-O2",
            # Byte identity with CPython's floats: a * b + c stays two roundings
            # where the target has FMA (GCC's default contracts it into one).
            "-ffp-contract=off",
            "-fPIC",
            "-shared",
            "-fno-strict-aliasing",
            f"-I{include_dir}",
            _SOURCE,
            "-o",
            tmp,
            "-lm",
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=240, check=False
            )
        except (OSError, subprocess.SubprocessError) as exc:
            last_error = f"compiler launch failed: {exc}"
        else:
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-6:]
                last_error = "compile failed: " + " | ".join(tail)
            else:
                try:
                    os.replace(tmp, target)
                    return target, "built"
                except OSError as exc:
                    last_error = f"cannot install extension: {exc}"
        if os.path.exists(tmp):  # a failed or timed-out compile's partial output
            os.unlink(tmp)
    return None, last_error


def load_extension():
    """Build (if needed) and import the extension module.

    Returns ``(module_or_None, reason)``.
    """
    path, reason = build_extension()
    if path is None:
        return None, reason
    try:
        loader = importlib.machinery.ExtensionFileLoader("repro.kernel._ckernel", path)
        spec = importlib.util.spec_from_file_location(
            "repro.kernel._ckernel", path, loader=loader
        )
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except Exception as exc:  # pragma: no cover - corrupt cache / ABI drift
        return None, f"extension import failed: {exc}"
    return module, reason
