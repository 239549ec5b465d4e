"""The kernel loader: what names the cached extension, and what a cache hit costs.

A process that finds the extension built pays three file reads, a hash and a
stat: no compiler, no Python headers, no ``subprocess`` / ``sysconfig`` /
``shlex`` / ``pathlib`` / ``hashlib`` import.  Only a miss reaches for the
toolchain, and every way a miss can fail reads as ``(None, reason)``.

The compile itself is stubbed (the stub writes the file ``-o`` names): these
tests are about where the loader looks and what it says, and must pass on a
machine that has no compiler at all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sysconfig
import types

import pytest

from repro.kernel import build

from .test_import_hygiene import _run_python

TOOLCHAIN = ("subprocess", "sysconfig", "shlex", "pathlib", "hashlib")


@pytest.fixture
def sources(tmp_path, monkeypatch):
    """The three hashed sources, copied where a test may edit them."""
    copies = []
    for path in (build._SOURCE,) + build._INCLUDED:
        copies.append(shutil.copy(path, tmp_path))
    monkeypatch.setattr(build, "_SOURCE", copies[0])
    monkeypatch.setattr(build, "_INCLUDED", tuple(copies[1:]))
    return copies


@pytest.fixture
def compiler(monkeypatch):
    """Stands in for the compiler; the list holds every command line it got."""
    commands = []

    def run(cmd, **kwargs):
        commands.append(cmd)
        with open(cmd[cmd.index("-o") + 1], "wb") as handle:
            handle.write(b"built")
        return types.SimpleNamespace(returncode=0, stdout="", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return commands


def candidates(monkeypatch, *directories):
    monkeypatch.setattr(build, "_candidate_dirs", lambda: [str(d) for d in directories])


class TestCacheKey:
    def test_one_byte_of_any_source_or_the_recipe_changes_it(self, sources, monkeypatch):
        key = build._source_key()
        for path in sources:
            with open(path, "rb") as handle:
                original = handle.read()
            with open(path, "wb") as handle:
                handle.write(original[:-1] + bytes([original[-1] ^ 1]))
            assert build._source_key() != key, path
            with open(path, "wb") as handle:
                handle.write(original)
            assert build._source_key() == key, path
        monkeypatch.setattr(build, "_RECIPE", build._RECIPE + "x")
        assert build._source_key() != key

    def test_the_file_name_carries_the_key_and_this_interpreter_s_suffix(self):
        name = build.cache_filename()
        assert name.startswith(f"_ckernel-{build._source_key()}.")
        assert name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))

    def test_a_missing_source_is_reported(self, sources):
        os.unlink(sources[2])
        path, reason = build.build_extension()
        assert path is None
        assert reason == f"kernel source missing: {sources[2]}"


class TestWhereTheExtensionGoes:
    @pytest.fixture(autouse=True)
    def headers(self, tmp_path_factory, monkeypatch):
        include = tmp_path_factory.mktemp("include")
        (include / "Python.h").write_text("")
        monkeypatch.setattr(sysconfig, "get_paths", lambda *a, **k: {"include": str(include)})

    def test_built_once_then_cached(self, tmp_path, monkeypatch, compiler):
        candidates(monkeypatch, tmp_path / "cache")
        target = str(tmp_path / "cache" / build.cache_filename())
        assert build.build_extension() == (target, "built")
        assert build.build_extension() == (target, "cached")
        assert len(compiler) == 1 and build._SOURCE in compiler[0]
        assert os.listdir(tmp_path / "cache") == [build.cache_filename()]  # no .tmp left

    def test_an_unwritable_first_candidate_falls_through_to_the_second(
        self, tmp_path, monkeypatch, compiler
    ):
        (tmp_path / "file").write_text("not a directory")
        candidates(monkeypatch, tmp_path / "file" / "cache", tmp_path / "second")
        assert build.build_extension() == (
            str(tmp_path / "second" / build.cache_filename()), "built"
        )

    def test_no_candidate_takes_it(self, tmp_path, monkeypatch, compiler):
        (tmp_path / "file").write_text("not a directory")
        candidates(monkeypatch, tmp_path / "file" / "cache")
        path, reason = build.build_extension()
        assert path is None and reason.startswith("cannot create")
        assert compiler == []

    def test_a_hit_in_a_later_candidate_is_taken_before_anything_is_built(
        self, tmp_path, monkeypatch, compiler
    ):
        candidates(monkeypatch, tmp_path / "first", tmp_path / "second")
        (tmp_path / "second").mkdir()
        target = tmp_path / "second" / build.cache_filename()
        target.write_bytes(b"built earlier")
        assert build.build_extension() == (str(target), "cached")
        assert compiler == [] and not (tmp_path / "first").exists()

    def test_a_missing_compiler_is_reported(self, tmp_path, monkeypatch):
        def missing(cmd, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", cmd[0])

        monkeypatch.setattr(subprocess, "run", missing)
        candidates(monkeypatch, tmp_path)
        path, reason = build.build_extension()
        assert path is None and reason.startswith("compiler launch failed")

    def test_a_compile_error_is_reported_and_leaves_nothing_behind(self, tmp_path, monkeypatch):
        def fail(cmd, **kwargs):
            with open(cmd[cmd.index("-o") + 1], "wb") as handle:
                handle.write(b"half an object")
            return types.SimpleNamespace(returncode=1, stdout="", stderr="a.c:1: error: no\n")

        monkeypatch.setattr(subprocess, "run", fail)
        candidates(monkeypatch, tmp_path)
        assert build.build_extension() == (None, "compile failed: a.c:1: error: no")
        assert os.listdir(tmp_path) == []


class TestWithoutPythonHeaders:
    """A machine with the ``.so`` but no ``Python.h`` used to drop to the Python tier."""

    @pytest.fixture(autouse=True)
    def no_headers(self, tmp_path, monkeypatch):
        (tmp_path / "include").mkdir()
        monkeypatch.setattr(
            sysconfig, "get_paths", lambda *a, **k: {"include": str(tmp_path / "include")}
        )

    def test_a_cache_hit_needs_none(self, tmp_path, monkeypatch):
        candidates(monkeypatch, tmp_path)
        target = tmp_path / build.cache_filename()
        target.write_bytes(b"built earlier")
        assert build.build_extension() == (str(target), "cached")

    def test_a_miss_says_what_is_missing(self, tmp_path, monkeypatch, compiler):
        candidates(monkeypatch, tmp_path / "cache")
        path, reason = build.build_extension()
        assert path is None
        assert reason == f"Python.h not found under {str(tmp_path / 'include')!r}"
        assert compiler == [] and not (tmp_path / "cache").exists()


def test_loading_a_cached_kernel_imports_no_toolchain():
    """Against ``import repro.cli`` alone, in a fresh interpreter: whatever the
    interpreter's own start-up holds is not the loader's doing."""
    path, reason = build.build_extension()
    if path is None:
        pytest.skip(f"no compiled kernel to find cached: {reason}")
    script = (
        "import sys\n"
        "import repro.cli\n"
        "before = set(sys.modules)\n"
        "from repro.kernel.build import load_extension\n"
        "module, reason = load_extension()\n"
        "assert module is not None and reason == 'cached', reason\n"
        "print('NEW', *sorted(set(sys.modules) - before))"
    )
    new = _run_python("-c", script).splitlines()[-1].split()[1:]
    assert "repro.kernel._ckernel" in new
    assert [name for name in new if name.split(".")[0] in TOOLCHAIN] == []
