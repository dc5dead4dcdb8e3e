"""Re-measure the per-call and per-element table of ROADMAP.md's re-anchor.

    python3 perfbench/reanchor.py

Each entry calls a public putpricer function from outside the library and
reports the median over repeated calls, beside the value the ROADMAP
records, so a reader can see where the two disagree.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROADMAP_SOURCE = "ROADMAP.md re-anchor: in-process perf_counter, 2 cores, Python 3.10, numpy 2.4.6"
ELEMENTS = 100_000
REPEATS = 5


def median_seconds(fn, calls):
    """Median over REPEATS batches of the mean time of one call in a batch of `calls`."""
    batches = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) / calls)
    return statistics.median(batches)


def entries():
    import numpy as np
    from putpricer import exact_pricing, hpm_series, pde_oracle, special_functions, transforms

    spec = transforms.VanillaOptionSpec(spot=40.0, strike=40.0, rate=0.05, vol=0.324336,
                                        maturity=0.5)
    rc = transforms.to_dimensionless(spec)
    params = transforms.GeneralizedReducedParams(k1=rc.k, k2=rc.k)
    rng = np.random.default_rng(2104)
    erfc_args = rng.uniform(-6.0, 6.0, ELEMENTS)
    z = rng.uniform(-10.0, 10.0, ELEMENTS)
    grid = pde_oracle.GridSpec(ny=800, n_steps=800)
    # (entry, ROADMAP value in seconds, call, calls per batch, what is timed)
    return (
        ("bs_put, one call", 113e-6, lambda: exact_pricing.bs_put(spec), 200,
         "exact_pricing.bs_put(spec), S=E=40 paper spec"),
        ("price_single_hpm2, one call", 407e-6, lambda: hpm_series.price_single_hpm2(spec), 100,
         "hpm_series.price_single_hpm2(spec), same spec"),
        ("scalar normal_cdf, one call", 36e-6, lambda: special_functions.normal_cdf(0.3), 500,
         "special_functions.normal_cdf(0.3)"),
        ("erfc on 1e5 elements", 3.5e-3, lambda: special_functions.erfc(erfc_args), 5,
         "special_functions.erfc(x), x ~ U(-6, 6)"),
        ("phi_term(5) on 1e5 elements", 6.3e-3, lambda: hpm_series.phi_term(5, z, params), 5,
         "hpm_series.phi_term(5, z, k1=k2=k), z ~ U(-10, 10)"),
        ("cn_solve at 800x800", 0.77, lambda: pde_oracle.cn_solve(params, rc.tau, grid), 1,
         "pde_oracle.cn_solve(k1=k2=k, tau of the paper spec, GridSpec(ny=800, n_steps=800))"),
    )


def _fmt(seconds):
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9)):
        if seconds >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds:.3g} s"


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"| entry | ROADMAP | measured (median of {REPEATS}) | ratio | measured call |")
    print("|---|---|---|---|---|")
    for name, roadmap, fn, calls, what in entries():
        fn()   # warm
        measured = median_seconds(fn, calls)
        print(f"| {name} | {_fmt(roadmap)} | {_fmt(measured)} | {measured / roadmap:.2f} | {what} |")
    print(f"\nROADMAP column: {ROADMAP_SOURCE}.")
    print("Measured column: perfbench/reanchor.py on this machine, "
          f"{os.cpu_count()} CPUs visible, single-threaded native math.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
