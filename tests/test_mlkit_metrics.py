"""Tests for repro.mlkit.metrics."""

import numpy as np
import pytest

from repro.mlkit.metrics import accuracy_score, sse


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half(self):
        assert accuracy_score([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_string_labels(self):
        assert accuracy_score(["a", "b"], ["a", "c"]) == 0.5


class TestSse:
    def test_zero_when_points_equal_centers(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert sse(X, X, [0, 1]) == 0.0

    def test_known_value(self):
        X = np.array([[0.0], [2.0]])
        centers = np.array([[1.0]])
        assert sse(X, centers, [0, 0]) == 2.0

    def test_label_bounds(self):
        with pytest.raises(ValueError):
            sse(np.zeros((2, 1)), np.zeros((1, 1)), [0, 5])

    def test_label_length(self):
        with pytest.raises(ValueError):
            sse(np.zeros((2, 1)), np.zeros((1, 1)), [0])
