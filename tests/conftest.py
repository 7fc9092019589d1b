"""Session fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    """A module of ``perfbench/``, loaded under a private name."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """Path of ``thetakit._core`` built from ``src/thetakit/_core.c`` with
    the benchmark's compiler and flags; ``src/`` is not written."""
    build = _perfbench("build")
    cc = build.find_compiler()
    if cc is None:
        pytest.skip("no C compiler (cc, or $CC) to build thetakit._core")
    return build.build_core(ROOT, tmp_path_factory.mktemp("core"), cc)


@pytest.fixture(scope="session")
def perfbench_child():
    """``perfbench/child.py``: one benchmark pass in a fresh interpreter."""
    return _perfbench("child")


@pytest.fixture(scope="session")
def compiled(compiled_core, perfbench_child):
    """The compiled kernel module, loaded through perfbench's finder."""
    finder = perfbench_child.CoreFinder(str(compiled_core))
    spec = finder.find_spec("thetakit._core")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
