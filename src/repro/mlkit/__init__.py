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

from repro.mlkit.base import ClassifierMixin, Estimator
from repro.mlkit.kmeans import KMeans, elbow_k, sse_curve
from repro.mlkit.tree import DecisionTreeClassifier
from repro.mlkit.regression_tree import DecisionTreeRegressor
from repro.mlkit.forest import RandomForestClassifier
from repro.mlkit.gbdt import GradientBoostedClassifier
from repro.mlkit.metrics import accuracy_score, sse
from repro.mlkit.model_selection import train_test_split

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
