"""Build the C kernel from src/hexsaw/_dfs.c once per session and test it.

``hexsaw`` requires the compiled kernel ``hexsaw._dfs``.  So the kernel
is compiled into a temporary directory before any test module imports
``hexsaw`` and registered under that name: every test runs the kernel
that ships, built fresh from this checkout (a stale in-place build is
never loaded).  A session that cannot build the kernel cleanly (no C
compiler, a failed build or a compiler warning) stops with the reason.
The build runs in the session's environment, so ``CFLAGS`` and
``LDFLAGS`` reach ``setup.py build_ext``: the CI workflow sets them to
run the kernel's tests under UBSan.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# (temporary build directory, kernel module)
BUILD = pytest.StashKey[tuple]()


def _build(out: Path):
    """The compiled kernel module, built into ``out``."""
    if not (shutil.which("cc") or shutil.which("gcc")):
        raise pytest.UsageError("cannot build _dfs.c: no C compiler (cc or gcc) found")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, env=os.environ, capture_output=True, text=True,
    )
    log = proc.stdout + proc.stderr
    if proc.returncode != 0 or ": warning:" in log:
        raise pytest.UsageError(f"building _dfs.c failed or warned:\n{log}")
    (path,) = (out / "lib" / "hexsaw").glob("_dfs.*")
    spec = importlib.util.spec_from_file_location("hexsaw._dfs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_configure(config):
    tmp = tempfile.TemporaryDirectory(prefix="hexsaw-kernel-")
    config.stash[BUILD] = (tmp, None)   # pytest_unconfigure removes it even if the build fails
    kernel = _build(Path(tmp.name))
    sys.modules["hexsaw._dfs"] = kernel
    config.stash[BUILD] = (tmp, kernel)


def pytest_unconfigure(config):
    if BUILD in config.stash:
        config.stash[BUILD][0].cleanup()


def pytest_report_header(config):
    return f"hexsaw kernel: compiled (_dfs.c built into {config.stash[BUILD][0].name})"


@pytest.fixture(scope="session")
def c_kernel(pytestconfig):
    """The session's compiled kernel."""
    return pytestconfig.stash[BUILD][1]
