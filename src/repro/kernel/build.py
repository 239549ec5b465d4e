"""Self-contained builder for the compiled kernel extension.

The compiled kernel is a single hand-written CPython C extension
(``_ckernel.c``) living next to this module.  There is no build-time
dependency beyond a C compiler and the Python headers: the extension is
compiled lazily on first use, cached next to the source (or under the user
cache directory when the package directory is read-only) and keyed by a
content hash of the source, so editing ``_ckernel.c`` triggers a rebuild
while repeated imports pay only a file-stat.

Every failure mode (no compiler, no headers, unwritable cache, compile
error) degrades to ``(None, reason)`` so the facade can fall back to the
pure-Python kernel; nothing here ever raises on the import path.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import pathlib
import shlex
import subprocess
import sys
import sysconfig
from typing import Optional, Tuple

_SOURCE = pathlib.Path(__file__).with_name("_ckernel.c")
#: What ``_ckernel.c`` includes from beside it (hashed with it, not compiled).
_INCLUDED = (_SOURCE.with_name("_transport.h"), _SOURCE.with_name("_fluid.h"))

#: Bump to force a rebuild when the build recipe (not the source) changes.
_RECIPE = "2"


def _source_key() -> str:
    digest = hashlib.sha256()
    digest.update(_RECIPE.encode())
    for path in (_SOURCE,) + _INCLUDED:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _candidate_dirs() -> list:
    dirs = [_SOURCE.parent]
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    version = f"cp{sys.version_info[0]}{sys.version_info[1]}"
    dirs.append(pathlib.Path(cache_root) / "repro-kernel" / version)
    return dirs


def _compiler_command() -> list:
    cc = sysconfig.get_config_var("CC") or "cc"
    return shlex.split(cc)


def build_extension() -> Tuple[Optional[str], str]:
    """Return ``(path_to_shared_object, reason)``; path is None on failure."""
    for path in (_SOURCE,) + _INCLUDED:
        if not path.exists():
            return None, f"kernel source missing: {path}"
    try:
        key = _source_key()
    except OSError as exc:  # pragma: no cover - unreadable source
        return None, f"kernel source unreadable: {exc}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    filename = f"_ckernel-{key}{suffix}"
    include_dir = sysconfig.get_paths().get("include")
    if not include_dir or not os.path.exists(os.path.join(include_dir, "Python.h")):
        return None, f"Python.h not found under {include_dir!r}"

    last_error = "no writable cache directory"
    for directory in _candidate_dirs():
        target = directory / filename
        if target.exists():
            return str(target), "cached"
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            last_error = f"cannot create {directory}: {exc}"
            continue
        if not os.access(directory, os.W_OK):
            last_error = f"{directory} not writable"
            continue
        tmp = directory / f".{filename}.tmp{os.getpid()}"
        cmd = _compiler_command() + [
            "-O2",
            # Byte identity with CPython's floats: a * b + c stays two roundings
            # where the target has FMA (GCC's default contracts it into one).
            "-ffp-contract=off",
            "-fPIC",
            "-shared",
            "-fno-strict-aliasing",
            f"-I{include_dir}",
            str(_SOURCE),
            "-o",
            str(tmp),
            "-lm",
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=240, check=False
            )
        except (OSError, subprocess.SubprocessError) as exc:
            last_error = f"compiler launch failed: {exc}"
            continue
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-6:]
            last_error = "compile failed: " + " | ".join(tail)
            continue
        try:
            os.replace(tmp, target)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            last_error = f"cannot install extension: {exc}"
            continue
        return str(target), "built"
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
