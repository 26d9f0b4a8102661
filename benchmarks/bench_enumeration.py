"""Benchmark the compiled enumeration kernel against its pure-Python twin.

Both kernels walk the same flattened step tables and must produce
identical histograms; the point of this script is the wall-time ratio.
D(4,2) (4,658,995 walks) is the size at which the kernel dominates a
`verify-global` run; the smaller cases take milliseconds compiled.

Usage:
    python3 benchmarks/bench_enumeration.py [--repeat 3]
"""

import argparse
import time

from hexsaw import domains as dm
from hexsaw import enumeration as en


def bench(domain, backend: str, repeat: int) -> float:
    en.build_tables(domain)  # build outside the timed region
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        en.class_histogram(domain, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    cases = [
        ("trapezoid T=2 L=2", dm.build_trapezoid(2, 2)),
        ("trapezoid T=2 L=3", dm.build_trapezoid(2, 3)),
        ("trapezoid T=3 L=2", dm.build_trapezoid(3, 2)),
        ("rectangle T=3 L=3", dm.build_rectangle(3, 3)),
        ("trapezoid T=4 L=2", dm.build_trapezoid(4, 2)),
    ]

    print(f"active backend: {en.backend_name()}")
    header = f"{'domain':<22}{'walks':>12}{'pure (s)':>12}{'compiled (s)':>14}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, domain in cases:
        hist = en.class_histogram(domain, backend="pure")
        walks = int(hist.sum())
        t_pure = bench(domain, "pure", args.repeat)
        if en.COMPILED:
            assert (en.class_histogram(domain, backend="compiled")
                    == en.class_histogram(domain, backend="pure")).all()
            t_comp = bench(domain, "compiled", args.repeat)
            print(f"{name:<22}{walks:>12}{t_pure:>12.4f}{t_comp:>14.4f}"
                  f"{t_pure / t_comp:>9.1f}x")
        else:
            print(f"{name:<22}{walks:>12}{t_pure:>12.4f}{'n/a':>14}{'n/a':>10}")


if __name__ == "__main__":
    main()
