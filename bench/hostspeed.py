"""Host-speed reference: a fixed piece of pure-Python work timed between
operations, so that times can be reported at one host speed.

The shared 2-core machine the benchmark was sized on changes speed by up
to a factor of two for tens of seconds to minutes at a time. An
interpreter start, a figurate operation and a plain Python loop all slow
down together: in one 200 s probe `certify --p 10` went from 61 to
121 ms while this reference went from 4.9 to 9.9 ms. The benchmark
therefore takes a reference sample before every CLI operation (in the
spawner) and every lib-warm round (in the client), and reports each time
scaled to a host on which the reference takes REFERENCE_MS: the time is
multiplied by REFERENCE_MS over the median of the reference samples
taken around it (`scales`), and a set-up time by three samples taken
just before it (`setup_scale`). The reference is the benchmark's own code
and allocates no containers, so a change to figurate does not move it.
The unscaled figures are printed beside the scaled ones.
"""

import statistics
import time

#: The reference's time on the machine the benchmark was sized on, quiet.
REFERENCE_MS = 5.0
#: Iterations of the reference loop; about REFERENCE_MS on that machine.
LOOPS = 60_000
#: A time is scaled by the median of this many samples on either side of
#: its own, plus its own. Two kept the two trials of one CLI operation
#: closest together, out of 0 to 8, in 600 operation pairs measured on
#: the noisy host.
HALF_WINDOW = 2


def sample_ms() -> float:
    """Time one run of the reference loop, in ms."""
    start = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x = (x + i * i) % 1000003
    return (time.perf_counter() - start) * 1000.0


def setup_scale() -> float:
    """REFERENCE_MS over the median of three samples taken now: the factor
    for a set-up time measured right after."""
    return REFERENCE_MS / statistics.median(sample_ms() for _ in range(3))


def scales(samples: list) -> list:
    """For each sample, REFERENCE_MS over the median of the samples within
    HALF_WINDOW of it: the factor that brings a time measured beside that
    sample to the reference host speed."""
    return [
        REFERENCE_MS / statistics.median(samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1])
        for i in range(len(samples))
    ]
