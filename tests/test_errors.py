import numpy as np
import pytest

from airypng.errors import NumericsError, settled


def test_settled_returns_first_agreeing_level():
    levels = [1.0, 1.5, 1.5 + 1e-9, 1.5 + 2e-9]
    assert settled(iter(levels), 1e-6, "value") == 1.5 + 1e-9


def test_settled_does_not_evaluate_later_levels():
    evaluated = []

    def levels():
        for v in (2.0, 2.0, 3.0):
            evaluated.append(v)
            yield v

    assert settled(levels(), 1e-12, "value") == 2.0
    assert evaluated == [2.0, 2.0]


def test_settled_raises_with_both_estimates_when_levels_run_out():
    with pytest.raises(NumericsError, match="window doubling") as info:
        settled(iter([1.0, 2.0, 4.0]), 0.5, "window doubling")
    assert info.value.estimates == (2.0, 4.0)


def test_settled_compares_whole_arrays_and_tuples():
    coarse = np.array([1.0, 2.0])
    fine = np.array([1.0, 2.0 + 1e-3])
    with pytest.raises(NumericsError):
        settled(iter([coarse, fine]), 1e-4, "block")
    assert settled(iter([(1.0, 5.0), (1.0, 5.0 + 1e-9)]), 1e-8,
                   "pair") == (1.0, 5.0 + 1e-9)


def test_settled_relative_scales_by_max_one_abs_value():
    # a change of 5e-9 on a value of 100 is 5e-11 relative
    assert settled(iter([100.0, 100.0 + 5e-9]), 1e-10, "big",
                   relative=True) == 100.0 + 5e-9
    with pytest.raises(NumericsError):
        settled(iter([100.0, 100.0 + 5e-9]), 1e-10, "big")
    # below 1 in magnitude the scale is 1, so the test stays absolute
    assert settled(iter([0.0, 5e-11]), 1e-10, "small", relative=True) == 5e-11
    with pytest.raises(NumericsError):
        settled(iter([0.0, 2e-10]), 1e-10, "small", relative=True)
