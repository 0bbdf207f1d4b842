"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_array_1d,
    check_array_2d,
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
)


class TestScalarChecks:
    def test_positive_accepts(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)

    def test_nonnegative_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_nonnegative_rejects(self, bad):
        with pytest.raises(ValueError):
            check_nonnegative("x", bad)

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_fraction_inclusive(self, ok):
        assert check_fraction("f", ok) == ok

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_fraction_exclusive_rejects_bounds(self, bad):
        with pytest.raises(ValueError):
            check_fraction("f", bad, inclusive=False)

    def test_fraction_rejects_outside(self):
        with pytest.raises(ValueError):
            check_fraction("f", 1.2)

    def test_check_in(self):
        assert check_in("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError, match="mode"):
            check_in("mode", "c", ("a", "b"))


class TestArrayChecks:
    def test_1d_coerces_list(self):
        out = check_array_1d("v", [1, 2, 3])
        assert out.shape == (3,)

    def test_1d_rejects_2d(self):
        with pytest.raises(ValueError):
            check_array_1d("v", [[1, 2]])

    def test_2d_coerces(self):
        assert check_array_2d("m", [[1.0, 2.0]]).shape == (1, 2)

    def test_2d_rejects_1d(self):
        with pytest.raises(ValueError):
            check_array_2d("m", [1, 2, 3])
