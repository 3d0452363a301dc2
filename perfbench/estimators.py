"""Order statistics and accounting shared by run.py and steady.py.

All percentiles are nearest-rank over the sorted samples, so every
reported value is an observed op time, never an interpolation.
"""

import statistics

# Candidate tail percentiles in tenths of a percent, highest first. The
# ladder tops out at p99, the serve tail the project reports; above it
# a run's tail is set by a handful of host preemptions (steal) and does
# not repeat from run to run.
TAIL_LADDER = (990, 950, 900, 750, 500)
MIN_BEYOND = 10


def nearest_rank(sorted_values, tenths):
    """The `tenths`/10 percentile of ascending `sorted_values` and the
    number of samples strictly above its rank."""
    n = len(sorted_values)
    rank = -(-tenths * n // 1000)  # ceil(p * n) in integers
    rank = max(rank, 1)
    return sorted_values[rank - 1], n - rank


def tail(values, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, as (percentile, value, samples beyond). Below 20 samples
    not even the median qualifies; it is returned with its true count
    so callers can see the tail is unresolved."""
    ordered = sorted(values)
    for tenths in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, tenths)
        if beyond >= min_beyond:
            return tenths / 10, value, beyond
    value, beyond = nearest_rank(ordered, 500)
    return 50.0, value, beyond


def accounting(ok_flags):
    """(attempted, failed) from per-op check outcomes. An op whose
    checks failed counts against the ops attempted."""
    attempted = len(ok_flags)
    failed = sum(1 for ok in ok_flags if not ok)
    return attempted, failed


def spread(values):
    """Inter-quartile distance as a share of the median, with the
    quartiles statistics.quantiles(n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
