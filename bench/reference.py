"""A fixed pure-Python loop that shows how fast the machine runs right now.

The work is of the kind the package does (tuples, comparisons, dict
updates) and shares no code with it.  This module imports nothing but
``time.perf_counter``, so a fresh interpreter can run the loop before
``import scarfrel.cli`` without loading any module the package needs.
"""

from time import perf_counter

# About the loop's time on an idle 2-vCPU x86-64 virtual machine, so that
# times scaled to this speed stay close to seconds on such a machine.
NOMINAL_S = 0.008


def reference_time() -> float:
    """Seconds one run of the loop takes."""
    start = perf_counter()
    x, counts = 12345, {}
    for _ in range(2500):
        x = (x * 1103515245 + 12345) % 2147483648
        a = tuple((x >> s) % 40 for s in (1, 6, 11, 16, 21, 26))
        label = tuple(u if u >= v else v for u, v in zip(a, a[::-1]))
        counts[label] = counts.get(label, 0) + 1
    return perf_counter() - start
