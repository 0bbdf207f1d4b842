"""Tests for model/library/profile serialization round-trips."""

import json

import numpy as np
import pytest

from repro.core.pipeline import GameProfile
from repro.core.stages import StageLibrary, StageTypeId
from repro.mlkit.forest import RandomForestClassifier
from repro.mlkit.gbdt import GradientBoostedClassifier
from repro.mlkit.regression_tree import DecisionTreeRegressor
from repro.mlkit.serialize import model_from_dict, model_to_dict
from repro.mlkit.tree import DecisionTreeClassifier


@pytest.fixture
def data(rng):
    X = rng.normal(size=(120, 4))
    y = ((X[:, 0] > 0) | (X[:, 1] > 0.5)).astype(int)
    return X, y


class TestModelRoundTrips:
    def test_dtc(self, data):
        X, y = data
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))
        np.testing.assert_allclose(clone.predict_proba(X), model.predict_proba(X))

    def test_dtr(self, data):
        X, _ = data
        y = X[:, 0] * 2 + np.sin(X[:, 1])
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(clone.predict(X), model.predict(X))

    def test_rf(self, data):
        X, y = data
        model = RandomForestClassifier(8, seed=0).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(clone.predict_proba(X), model.predict_proba(X))

    def test_gbdt(self, data):
        X, y = data
        model = GradientBoostedClassifier(10, seed=0).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(
            clone.decision_function(X), model.decision_function(X)
        )

    def test_string_labels_survive(self, rng):
        X = rng.normal(size=(40, 2))
        y = np.where(X[:, 0] > 0, "hot", "cold")
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))

    def test_unfitted_rejected(self):
        with pytest.raises(Exception):
            model_to_dict(DecisionTreeClassifier())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "svm"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict(object())


class TestLibraryRoundTrip:
    def test_full_round_trip(self, toy_profile):
        lib = toy_profile.library
        clone = StageLibrary.from_dict(
            json.loads(json.dumps(lib.to_dict()))
        )
        assert clone.game == lib.game
        np.testing.assert_allclose(clone.centers, lib.centers)
        assert clone.loading_clusters == lib.loading_clusters
        assert clone.stage_types == lib.stage_types
        for t in lib.stage_types:
            np.testing.assert_allclose(clone.stats(t).peak, lib.stats(t).peak)
            np.testing.assert_allclose(clone.stats(t).mean, lib.stats(t).mean)
            assert clone.stats(t).occurrences == lib.stats(t).occurrences
        for t in lib.execution_types:
            assert clone.transition_counts(t) == lib.transition_counts(t)

    def test_classification_identical(self, toy_profile, rng):
        lib = toy_profile.library
        clone = StageLibrary.from_dict(lib.to_dict())
        frames = rng.uniform(0, 80, size=(50, 4))
        for f in frames:
            assert clone.classify_frame(f) == lib.classify_frame(f)


class TestProfileSaveLoad:
    def test_round_trip_predictions(self, toy_profile, toy_spec, tmp_path):
        path = tmp_path / "toy.profile.json"
        toy_profile.save(path)
        loaded = GameProfile.load(path, toy_spec)
        assert set(loaded.predictors) == set(toy_profile.predictors)
        for backend in toy_profile.predictors:
            orig = toy_profile.predictors[backend]
            clone = loaded.predictors[backend]
            assert clone.accuracy_ == orig.accuracy_
            hist = orig.builder.types[:1]
            assert clone.predict_next(hist) == orig.predict_next(hist)

    def test_wrong_game_rejected(self, toy_profile, catalog, tmp_path):
        path = tmp_path / "toy.profile.json"
        toy_profile.save(path)
        with pytest.raises(ValueError, match="toygame"):
            GameProfile.load(path, catalog["contra"])

    def test_wrong_format_rejected(self, toy_spec, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            GameProfile.load(path, toy_spec)

    def test_loaded_profile_drives_scheduler(self, toy_profile, toy_spec, tmp_path):
        """A reloaded profile must be usable end-to-end."""
        from repro.baselines import CoCGStrategy
        from repro.cluster.experiment import ColocationExperiment

        path = tmp_path / "toy.profile.json"
        toy_profile.save(path)
        loaded = GameProfile.load(path, toy_spec)
        result = ColocationExperiment(
            {"toygame": loaded}, CoCGStrategy(), horizon=400, seed=1
        ).run()
        assert result.completed_runs["toygame"] >= 1
