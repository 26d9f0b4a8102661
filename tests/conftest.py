"""Build the C kernel from src/hexsaw/_dfs.c once per session and test it.

``hexsaw.enumeration`` picks its backend when it is first imported, by
importing ``hexsaw._dfs``.  So the kernel is compiled into a temporary
directory before any test module imports ``hexsaw`` and registered under
that name: every test runs the kernel that ships, built fresh from this
checkout (a stale in-place build is never loaded), and the pure twin
``_dfs_py`` runs only where a test asks for it.  A compiler warning
fails the build.  A run that cannot build the kernel runs the twin and
says so in the report header and in a warning.
"""

import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NO_COMPILER = "no C compiler (cc or gcc) found"
# (temporary build directory, kernel module or None, why there is none)
BUILD = pytest.StashKey[tuple]()


def _build(out: Path):
    """The compiled kernel module, or the reason none was built."""
    if not (shutil.which("cc") or shutil.which("gcc")):
        return NO_COMPILER
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    log = proc.stdout + proc.stderr
    if proc.returncode != 0 or ": warning:" in log:
        return f"building _dfs.c failed or warned:\n{log}"
    (path,) = (out / "lib" / "hexsaw").glob("_dfs.*")
    spec = importlib.util.spec_from_file_location("hexsaw._dfs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_configure(config):
    tmp = tempfile.TemporaryDirectory(prefix="hexsaw-kernel-")
    built = _build(Path(tmp.name))
    if isinstance(built, str):
        config.stash[BUILD] = (tmp, None, built)
        config.issue_config_time_warning(
            pytest.PytestWarning(f"tests run the pure-python twin: {built}"), stacklevel=2)
    else:
        sys.modules["hexsaw._dfs"] = built
        config.stash[BUILD] = (tmp, built, None)


def pytest_unconfigure(config):
    if BUILD in config.stash:
        config.stash[BUILD][0].cleanup()


def pytest_report_header(config):
    from hexsaw.enumeration import backend_name

    tmp, _, failure = config.stash[BUILD]
    where = failure.splitlines()[0] if failure else f"_dfs.c built into {tmp.name}"
    return f"hexsaw kernel: {backend_name()} ({where})"


@pytest.fixture(scope="session")
def c_kernel(pytestconfig):
    """The session's compiled kernel; fails when _dfs.c did not build
    cleanly, and skips only where no C compiler exists."""
    _, kernel, failure = pytestconfig.stash[BUILD]
    if failure == NO_COMPILER:
        pytest.skip(failure)
    if kernel is None:
        pytest.fail(failure)
    return kernel
