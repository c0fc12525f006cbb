"""Host speed reference: scales measured times to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 1.7x over seconds to minutes, with the neighbours' load.  Single-
threaded code of every kind seen here (interpreted Python, the scalar Newton
solver of the laws, small LAPACK eigensolves) slows down and speeds up
together, so a fixed single-threaded kernel timed next to the work tracks that
drift.  Over 30-s windows the ratio of `cdf_ell` time to kernel time varied
about ten times less than the `cdf_ell` time alone.

`reference_s` times the kernel; `scaled` turns a measured wall time into the
time it would have taken on a host where the kernel takes `REFERENCE_S`.  The
kernel is pure Python and does not touch eigipr, so no change to the program
can change it.
"""

import statistics
import time

# Kernel time that defines the reference host speed: about what the kernel
# takes on a 2-vCPU Intel Xeon (AVX-512) KVM guest in its fast phases, where
# it ranged from 0.0029 s (fast) to 0.0063 s (slowest).
REFERENCE_S = 0.003
KERNEL_STEPS = 30000
REPEATS = 5


def _kernel(steps):
    acc, table = 0, {}
    for i in range(steps):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return acc + len(table)


def reference_s():
    """Median wall time of `REPEATS` runs of the reference kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel(KERNEL_STEPS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(wall_s, ref_before, ref_after):
    """`wall_s` at the reference host speed, given kernel times measured just before and after it."""
    return wall_s * REFERENCE_S / (0.5 * (ref_before + ref_after))
