"""Host-speed calibration: a fixed pure-Python kernel.

The shared hosts this benchmark runs on switch between fast and slow
phases that last seconds, and CPU time slows down together with wall
time.  A run therefore times a fixed kernel between short batches of
interactions and scales every timing by the host factor
``REFERENCE_KERNEL_MS / mean kernel time``: a run on a host that is
currently 30% slow reads the kernel 30% slower and is scaled back.

The kernel only does small-integer arithmetic in local variables, so it
allocates no GC-tracked object (it cannot trigger or feed a collection),
and this module imports nothing from the program under test, so no change
to the program can change the yardstick.
"""

from __future__ import annotations

import time

#: Iterations of the kernel loop; about 2 ms on the reference host.
KERNEL_ITERATIONS = 10_000

#: Kernel time (ms) on the reference host: a fixed constant, so factors of
#: different runs, seeds and commits are comparable.  It was set to the
#: median kernel time of a 2-vCPU x86-64 host; its value only scales the
#: normalised figures, it never changes their spread.
REFERENCE_KERNEL_MS = 2.0


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """A linear-congruential loop; returns a checksum so nothing is elided."""
    state = 12345
    checksum = 0
    index = 0
    while index < iterations:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        checksum ^= state >> (index & 7)
        index += 1
    return checksum


def time_kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    """Wall time of one kernel run, in milliseconds."""
    started = time.perf_counter()
    kernel(iterations)
    return (time.perf_counter() - started) * 1000.0


#: Batches on each side of a batch whose kernel readings set its factor.
FACTOR_WINDOW = 5


def host_factor(kernel_ms: list[float], reference_ms: float = REFERENCE_KERNEL_MS) -> float:
    """``reference / mean(kernel_ms)``: multiply a time by it to normalise,
    divide a rate by it."""
    if not kernel_ms:
        raise ValueError("no kernel readings")
    return reference_ms / (sum(kernel_ms) / len(kernel_ms))


def batch_factors(
    kernel_ms: list[float],
    window: int = FACTOR_WINDOW,
    reference_ms: float = REFERENCE_KERNEL_MS,
) -> list[float]:
    """The host factor of every batch of a timed phase.

    ``kernel_ms[b]`` was read right before batch ``b`` and the last reading
    after the last batch, so there is one batch fewer than readings.
    Batch ``b`` uses the mean of readings ``b - window`` to
    ``b + 1 + window``: slow phases last seconds, so the readings around
    a batch describe the host it ran on better than the run's mean.
    """
    prefix = [0.0]
    for value in kernel_ms:
        prefix.append(prefix[-1] + value)
    factors = []
    for batch in range(len(kernel_ms) - 1):
        low = max(0, batch - window)
        high = min(len(kernel_ms), batch + window + 2)
        factors.append(reference_ms * (high - low) / (prefix[high] - prefix[low]))
    return factors
