"""Small child processes of the benchmark harness.

    python3 perfbench/probe.py setup
        Import strandfloer.cli and print, as one JSON line, the
        CLOCK_MONOTONIC time at which the import returned (the parent
        subtracts its spawn time) and the machine metadata.

    python3 perfbench/probe.py frontier G K VARIANT
        Count the generators and composable pairs of the (G, K, VARIANT)
        algebra from enumerate_generators and the idempotent maps alone,
        without building the table, and print them as one JSON line.

Both modes call only public strandfloer functions.
"""

import sys
import time


def setup() -> dict:
    import strandfloer.cli  # noqa: F401  (the import is what is timed)

    imported_at = time.monotonic()
    import importlib.util
    import os
    import platform

    import numpy

    from strandfloer import _kernels

    return {
        "imported_at": imported_at,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def frontier(g: int, k: int, variant: str) -> dict:
    from strandfloer.circle import idempotents, standard_matching
    from strandfloer.strands import enumerate_generators, source_idempotent, target_idempotent

    t0 = time.perf_counter()
    pmc = standard_matching(g)
    by_source = dict.fromkeys(idempotents(pmc, k), 0)
    by_target = dict(by_source)
    generators = 0
    for gen in enumerate_generators(pmc, k, variant):
        generators += 1
        by_source[source_idempotent(pmc, gen)] += 1
        by_target[target_idempotent(pmc, gen)] += 1
    pairs = sum(by_target[u] * by_source[u] for u in by_source)
    return {"generators": generators, "composable_pairs": pairs, "seconds": time.perf_counter() - t0}


if __name__ == "__main__":
    import json

    mode = sys.argv[1]
    if mode == "setup":
        out = setup()
    elif mode == "frontier":
        out = frontier(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
    else:
        raise SystemExit(f"unknown probe {mode!r}")
    print(json.dumps(out))
