"""Tests for the random forest and gradient-boosted classifiers."""

import numpy as np
import pytest

from repro.mlkit.forest import RandomForestClassifier
from repro.mlkit.gbdt import GradientBoostedClassifier


def spiral_data(rng, n=300, noise=0.08):
    """Two interleaved spirals — needs a nonlinear decision boundary."""
    t = rng.uniform(0.3, 3.0, size=n)
    label = rng.integers(0, 2, size=n)
    angle = t * 2.5 + label * np.pi
    X = np.stack([t * np.cos(angle), t * np.sin(angle)], axis=1)
    X += rng.normal(scale=noise, size=X.shape)
    return X, label


class TestRandomForest:
    def test_beats_chance_on_spirals(self, rng):
        X, y = spiral_data(rng)
        rf = RandomForestClassifier(40, seed=0).fit(X[:200], y[:200])
        assert rf.score(X[200:], y[200:]) > 0.85

    def test_deterministic_under_seed(self, rng):
        X, y = spiral_data(rng, n=120)
        a = RandomForestClassifier(10, seed=5).fit(X, y).predict(X)
        b = RandomForestClassifier(10, seed=5).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_proba_rows_sum_to_one(self, rng):
        X, y = spiral_data(rng, n=100)
        rf = RandomForestClassifier(15, seed=0).fit(X, y)
        p = rf.predict_proba(X)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_multiclass(self, rng):
        X = np.concatenate([rng.normal(c, 0.5, size=(50, 2)) for c in ([0, 0], [5, 0], [0, 5])])
        y = np.repeat([0, 1, 2], 50)
        rf = RandomForestClassifier(20, seed=0).fit(X, y)
        assert rf.score(X, y) > 0.97

    def test_string_labels(self, rng):
        X = rng.normal(size=(60, 2))
        y = np.where(X[:, 0] > 0, "pos", "neg")
        rf = RandomForestClassifier(10, seed=0).fit(X, y)
        assert set(rf.predict(X)) <= {"pos", "neg"}

    def test_max_features_int(self, rng):
        X, y = spiral_data(rng, n=80)
        RandomForestClassifier(5, max_features=1, seed=0).fit(X, y)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(0)
        with pytest.raises(ValueError):
            RandomForestClassifier(5, max_features="log2")

    def test_no_bootstrap(self, rng):
        X, y = spiral_data(rng, n=80)
        rf = RandomForestClassifier(5, bootstrap=False, seed=0).fit(X, y)
        assert rf.score(X, y) > 0.9


class TestGBDT:
    def test_beats_chance_on_spirals(self, rng):
        X, y = spiral_data(rng)
        gb = GradientBoostedClassifier(60, max_depth=3, seed=0).fit(X[:200], y[:200])
        assert gb.score(X[200:], y[200:]) > 0.85

    def test_training_loss_decreases(self, rng):
        X, y = spiral_data(rng, n=150)
        gb = GradientBoostedClassifier(30, seed=0).fit(X, y)
        losses = np.asarray(gb.train_losses_)
        assert losses[-1] < losses[0]
        # Mostly monotone: allow tiny numerical wiggles.
        assert np.sum(np.diff(losses) > 1e-6) <= 2

    def test_multiclass_probabilities(self, rng):
        X = np.concatenate([rng.normal(c, 0.6, size=(40, 2)) for c in ([0, 0], [4, 0], [0, 4])])
        y = np.repeat(["a", "b", "c"], 40)
        gb = GradientBoostedClassifier(25, seed=0).fit(X, y)
        p = gb.predict_proba(X)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert gb.score(X, y) > 0.95

    def test_subsample(self, rng):
        X, y = spiral_data(rng, n=120)
        gb = GradientBoostedClassifier(20, subsample=0.7, seed=0).fit(X, y)
        assert gb.score(X, y) > 0.8

    def test_deterministic_under_seed(self, rng):
        X, y = spiral_data(rng, n=100)
        a = GradientBoostedClassifier(10, seed=2).fit(X, y).decision_function(X)
        b = GradientBoostedClassifier(10, seed=2).fit(X, y).decision_function(X)
        np.testing.assert_allclose(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostedClassifier(0)
        with pytest.raises(ValueError):
            GradientBoostedClassifier(5, learning_rate=0)
        with pytest.raises(ValueError):
            GradientBoostedClassifier(5, subsample=1.5)

    def test_feature_mismatch_raises(self, rng):
        X, y = spiral_data(rng, n=60)
        gb = GradientBoostedClassifier(5, seed=0).fit(X, y)
        with pytest.raises(ValueError):
            gb.predict(np.zeros((2, 5)))
