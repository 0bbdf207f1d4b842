"""Tests for model_selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlkit.model_selection import train_test_split


class TestTrainTestSplit:
    def test_sizes(self, rng):
        X = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, size=100)
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.25, seed=0)
        assert len(Xte) == 25 and len(Xtr) == 75
        assert len(ytr) == 75 and len(yte) == 25

    def test_partition_is_exact(self, rng):
        X = np.arange(20).reshape(20, 1).astype(float)
        y = np.arange(20)
        Xtr, Xte, ytr, yte = train_test_split(X, y, seed=1)
        together = np.sort(np.concatenate([ytr, yte]))
        np.testing.assert_array_equal(together, np.arange(20))

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, size=30)
        a = train_test_split(X, y, seed=7)[3]
        b = train_test_split(X, y, seed=7)[3]
        np.testing.assert_array_equal(a, b)

    def test_stratify_keeps_rare_class_on_both_sides(self, rng):
        y = np.array([0] * 45 + [1] * 5)
        X = rng.normal(size=(50, 2))
        _, _, ytr, yte = train_test_split(X, y, test_size=0.25, seed=0, stratify=True)
        assert 1 in ytr and 1 in yte

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((1, 1)), np.zeros(1))

    def test_bad_test_size(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((10, 1)), np.zeros(10), test_size=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((10, 1)), np.zeros(9))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 200), frac=st.floats(0.1, 0.9))
def test_split_sizes_property(n, frac):
    """Property: split sizes sum to n and respect the fraction ±1."""
    X = np.zeros((n, 1))
    y = np.arange(n)
    Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=frac, seed=0)
    assert len(Xtr) + len(Xte) == n
    assert 1 <= len(Xte) <= n - 1
    assert abs(len(Xte) - n * frac) <= 1
