"""Self-contained machine-learning substrate.

scikit-learn is not available in this environment, so every algorithm the
paper names is implemented here from scratch, vectorized with NumPy:

* :class:`~repro.mlkit.kmeans.KMeans` — Lloyd's algorithm with k-means++
  initialisation, inertia (SSE) reporting and elbow-based model selection
  (used by the frame profiler, Figs 5/6/14).
* :class:`~repro.mlkit.tree.DecisionTreeClassifier` — CART with Gini or
  entropy impurity (the paper's DTC).
* :class:`~repro.mlkit.forest.RandomForestClassifier` — bagged CART trees
  with feature subsampling (the paper's RF).
* :class:`~repro.mlkit.gbdt.GradientBoostedClassifier` — multiclass
  softmax gradient boosting over regression trees (the paper's GBDT).

Plus what the paper's protocol needs around them: the 75/25
train/test split, accuracy and the K-means SSE.
"""

from repro import _lazy_exports

__all__ = [
    "Estimator",
    "ClassifierMixin",
    "KMeans",
    "elbow_k",
    "sse_curve",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "GradientBoostedClassifier",
    "accuracy_score",
    "sse",
    "train_test_split",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ClassifierMixin": ".base",
    "Estimator": ".base",
    "KMeans": ".kmeans",
    "elbow_k": ".kmeans",
    "sse_curve": ".kmeans",
    "DecisionTreeClassifier": ".tree",
    "DecisionTreeRegressor": ".regression_tree",
    "RandomForestClassifier": ".forest",
    "GradientBoostedClassifier": ".gbdt",
    "accuracy_score": ".metrics",
    "sse": ".metrics",
    "train_test_split": ".model_selection",
})
