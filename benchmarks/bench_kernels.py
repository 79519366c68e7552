"""Time the hot kernels on fixed inputs, best of five calls each.

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each workload is ``(name, call)`` where ``call(module)`` runs one kernel of
``module``, so the same inputs can be timed on any module with the kernel
names of ``tamecert._kernels``.
"""

import time

import numpy as np

import tamecert._kernels as K
from tamecert.exactarith import GOLDEN
from tamecert.systems import CutProjectCoding, full_shift_word


def timeit(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads():
    cantor = CutProjectCoding(GOLDEN, cantor_generation=6).word(100_000).astype(np.int64)
    full16 = full_shift_word(16).astype(np.int64)
    factors16 = K.extract_factors(full16, 16)
    positions = np.asarray([0, 3, 5, 8, 11, 15], dtype=np.int64)
    rng = np.random.RandomState(0)
    values = np.sort(rng.rand(10_000))
    images = rng.rand(10_000, 25)
    weights = 0.5 ** np.abs(np.arange(25, dtype=float) - 12)
    return [
        ("extract_factors (1e5 word, L=20)", lambda m: m.extract_factors(cantor, 20)),
        ("distinct_projection_count (65k factors)",
         lambda m: m.distinct_projection_count(factors16, positions)),
        ("window_oscillation (1e4 x 25, r=0.002)",
         lambda m: m.window_oscillation(values, 0.002, images, weights)),
    ]


def main():
    rows = [(name, timeit(lambda c=call: c(K))) for name, call in workloads()]
    width = max(len(name) for name, _ in rows)
    print(f"{'kernel':<{width}}  {'best':>10}")
    for name, best in rows:
        print(f"{name:<{width}}  {best * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
