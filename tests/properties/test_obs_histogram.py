"""The bisecting ``Histogram.observe`` against its definition.

An observation lands in the first bucket whose bound is >= the value, past
the last bound in the overflow bucket. :func:`reference` is that definition
written as the linear scan ``observe`` used to run; for values below, on,
just beside, between and above every bound of both bucket sets in use, and
for random sequences of them, the histogram must end in the same state.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import ATTEMPT_BUCKETS, LATENCY_BUCKETS, Histogram

BUCKET_SETS = {"latency": LATENCY_BUCKETS, "attempts": ATTEMPT_BUCKETS}


def reference(bounds, values) -> dict:
    """Histogram state after *values*, by the linear scan."""
    counts, overflow, total = [0] * len(bounds), 0, 0.0
    for value in values:
        total += value
        for index, bound in enumerate(bounds):
            if value <= bound:
                counts[index] += 1
                break
        else:
            overflow += 1
    return {"counts": counts, "overflow": overflow, "count": len(values),
            "min": min(values), "max": max(values), "total": total}


def state(bounds, values) -> dict:
    histogram = Histogram(bounds)
    for value in values:
        histogram.observe(value)
    return {"counts": histogram.counts, "overflow": histogram.overflow,
            "count": histogram.count, "min": histogram.min,
            "max": histogram.max, "total": histogram.total}


def edge_values(bounds) -> list[float]:
    values = [-1.0, 0.0, bounds[0] / 2, bounds[-1] * 2, math.inf]
    values.extend((low + high) / 2 for low, high in zip(bounds, bounds[1:]))
    for bound in bounds:
        values.extend((math.nextafter(bound, -math.inf), bound,
                       math.nextafter(bound, math.inf)))
    return values


@pytest.mark.parametrize("buckets", sorted(BUCKET_SETS))
def test_every_edge_value_lands_where_the_scan_puts_it(buckets):
    bounds = BUCKET_SETS[buckets]
    for value in edge_values(bounds):
        assert state(bounds, [value]) == reference(bounds, [value]), value
    values = edge_values(bounds)
    assert state(bounds, values) == reference(bounds, values)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), buckets=st.sampled_from(sorted(BUCKET_SETS)))
def test_random_sequences_match_the_scan(data, buckets):
    bounds = BUCKET_SETS[buckets]
    value = st.one_of(
        st.sampled_from(edge_values(bounds)),
        st.floats(min_value=-1.0, max_value=2 * bounds[-1]),
    )
    values = data.draw(st.lists(value, min_size=1, max_size=50))
    assert state(bounds, values) == reference(bounds, values)
