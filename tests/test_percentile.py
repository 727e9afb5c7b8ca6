"""The shared nearest-rank percentile: rounding pinned on small lengths."""

import pytest

from repro.percentile import nearest_rank

# (length, q) -> index picked from a sorted sequence of that length.
EXPECTED_INDEX = {
    (1, 0.0): 0, (1, 0.5): 0, (1, 0.95): 0, (1, 1.0): 0,
    (2, 0.0): 0, (2, 0.5): 0, (2, 0.95): 1, (2, 1.0): 1,
    (3, 0.0): 0, (3, 0.5): 1, (3, 0.95): 2, (3, 1.0): 2,
    (10, 0.0): 0, (10, 0.5): 4, (10, 0.95): 9, (10, 1.0): 9,
}


@pytest.mark.parametrize("length,q", sorted(EXPECTED_INDEX))
def test_rounding_is_pinned(length, q):
    values = [10 * i + 3 for i in range(length)]
    assert nearest_rank(values, q) == values[EXPECTED_INDEX[length, q]]


def test_out_of_range_quantiles_clamp():
    assert nearest_rank([1, 2, 3], -0.5) == 1
    assert nearest_rank([1, 2, 3], 1.5) == 3


def test_floats_and_tuples_pass_through():
    assert nearest_rank([0.25, 0.5], 1.0) == 0.5
    assert nearest_rank((7,), 0.95) == 7


def test_every_former_copy_uses_it():
    from repro.analysis import chaos, comparison, survival
    from repro.service import stats

    for module in (chaos, comparison, survival, stats):
        assert module.nearest_rank is nearest_rank
        assert not hasattr(module, "_rank") and not hasattr(module, "_percentile")
