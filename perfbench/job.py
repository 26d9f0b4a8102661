"""Run one hexsaw CLI job in this fresh interpreter and record its timeline.

    python3 perfbench/job.py RECORD [--trace] -- <hexsaw arguments>
    python3 perfbench/job.py RECORD --probe

The job does what the `hexsaw` console script does (import
`hexsaw.cli`, call `main`), and writes to RECORD, as JSON, the
monotonic clock readings at which `hexsaw.cli` finished importing, the
work started and `main` returned (after its report was written).  The
parent compares them with its own spawn and exit readings; on Linux
`time.perf_counter` is the system-wide monotonic clock.

With --trace the layer tracer is installed after the import and before
the work, and its counters and spans go into RECORD.  --probe records
the run metadata instead of running a job.
"""

import json
import sys
import time

_clock = time.perf_counter


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy  # noqa: F401  (loads OpenBLAS)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _probe() -> dict:
    import platform

    import numpy

    import hexsaw
    import hexsaw.enumeration as en

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "hexsaw_file": hexsaw.__file__,
        "backend": en.backend_name(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    record_path, *rest = sys.argv[1:]
    if rest == ["--probe"]:
        record = _probe()
        rc = 0
    else:
        trace = rest[0] == "--trace"
        argv = rest[rest.index("--") + 1:]
        import hexsaw.cli as cli
        t_imported = _clock()
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer.install()
        t_work = _clock()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.root(f"cli.{argv[0]}"):
                rc = cli.main(argv)
        t_done = _clock()
        record = {"t_imported": t_imported, "t_work": t_work, "t_done": t_done}
        if tracer is not None:
            record["trace"] = tracer.finish()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
