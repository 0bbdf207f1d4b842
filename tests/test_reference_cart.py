"""Reference CART split searches, and production checked against them.

The references are the plain per-feature form of the split search: for
each candidate feature in turn, sort the node's rows by that feature,
take running sums of the targets (squared error) or class counts (Gini,
entropy) along the sorted order, score every split between distinct
values that leaves both children ``min_samples_leaf`` rows, and keep
the feature whose best split has the strictly greatest gain, the first
in ``feats`` order on ties.

Production (:func:`repro.mlkit._cart.best_split_regression` /
:func:`~repro.mlkit._cart.best_split_classification`) sorts and scores
all candidate features in one pass over an ``(n, k)`` block.  It must
return the same ``(feature, threshold, gain)`` triple, bit for bit: the
trees, and so every trained model, depend on it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mlkit._cart import best_split_classification, best_split_regression


def reference_split_regression(Xn, yn, feats, min_samples_leaf):
    n = yn.size
    total_sum = float(yn.sum())
    total_sq = float(np.dot(yn, yn))
    parent_sse = total_sq - total_sum**2 / n

    best = None
    for f in feats:
        xf = Xn[:, f]
        order = np.argsort(xf, kind="stable")
        xs = xf[order]
        ys = yn[order]
        csum = np.cumsum(ys)[:-1]
        csq = np.cumsum(ys * ys)[:-1]
        nl = np.arange(1, n, dtype=float)
        nr = n - nl
        sse_left = csq - csum**2 / nl
        rs = total_sum - csum
        rq = total_sq - csq
        sse_right = rq - rs**2 / nr
        valid = (xs[1:] != xs[:-1]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
        if not valid.any():
            continue
        gain = parent_sse - (sse_left + sse_right)
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        g = float(gain[i])
        if g <= 1e-12:
            continue
        threshold = 0.5 * (xs[i] + xs[i + 1])
        if best is None or g > best[2]:
            best = (int(f), float(threshold), g)
    return best


def reference_split_classification(Xn, yn, feats, n_classes, criterion,
                                   min_samples_leaf):
    n = yn.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), yn] = 1.0

    def node_impurity(counts, totals):
        with np.errstate(invalid="ignore", divide="ignore"):
            p = counts / totals[..., None]
            if criterion == "gini":
                imp = 1.0 - np.einsum("...k,...k->...", p, p)
            else:
                safe = np.where(p > 0, p, 1.0)
                logp = np.where(p > 0, np.log2(safe), 0.0)
                imp = -np.einsum("...k,...k->...", p, logp)
        return np.where(totals > 0, imp, 0.0)

    total_counts = onehot.sum(axis=0)
    parent_imp = float(node_impurity(total_counts[None, :], np.array([float(n)]))[0])

    best = None
    for f in feats:
        xf = Xn[:, f]
        order = np.argsort(xf, kind="stable")
        xs = xf[order]
        left = np.cumsum(onehot[order], axis=0)[:-1]
        nl = np.arange(1, n, dtype=float)
        nr = n - nl
        right = total_counts[None, :] - left
        valid = (xs[1:] != xs[:-1]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
        if not valid.any():
            continue
        child = (nl * node_impurity(left, nl) + nr * node_impurity(right, nr)) / n
        gain = parent_imp - child
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))
        g = float(gain[i])
        if g <= 1e-12:
            continue
        threshold = 0.5 * (xs[i] + xs[i + 1])
        if best is None or g > best[2]:
            best = (int(f), float(threshold), g)
    return best


# ----------------------------------------------------------------------
# Random nodes: few distinct values make ties and repeated values common
# ----------------------------------------------------------------------

@st.composite
def nodes(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):  # integer-valued features: many equal values
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    X = draw(arrays(float, (n, d), elements=values))
    k = draw(st.integers(1, d))
    feats = np.array(draw(st.permutations(range(d)))[:k])
    min_samples_leaf = draw(st.integers(1, 3))
    return X, feats, min_samples_leaf


def assert_same_split(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    feature, threshold, gain = got
    assert feature == expected[0]
    assert np.float64(threshold).tobytes() == np.float64(expected[1]).tobytes()
    assert np.float64(gain).tobytes() == np.float64(expected[2]).tobytes()


class TestRegressionSplit:
    @given(nodes(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, node, data):
        X, feats, msl = node
        if data.draw(st.booleans()):  # residual-like reals
            y_values = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
        else:  # a handful of levels: equal gains across features
            y_values = st.sampled_from([0.0, 0.5, 1.0])
        y = data.draw(arrays(float, X.shape[0], elements=y_values))
        assert_same_split(best_split_regression(X, y, feats, msl),
                          reference_split_regression(X, y, feats, msl))

    def test_duplicated_feature_ties_go_to_the_first(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x, x])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert best_split_regression(X, y, np.array([2, 0, 1]), 1)[0] == 2

    def test_no_admissible_split(self):
        X = np.ones((5, 2))
        y = np.arange(5.0)
        assert best_split_regression(X, y, np.array([0, 1]), 1) is None

    def test_gain_within_tolerance_is_no_split(self):
        X = np.arange(4.0)[:, None]
        y = np.array([0.0, 0.0, 1e-7, 1e-7])  # best gain 1e-14
        assert reference_split_regression(X, y, np.array([0]), 1) is None
        assert best_split_regression(X, y, np.array([0]), 1) is None


class TestClassificationSplit:
    @given(nodes(), st.integers(1, 4), st.sampled_from(["gini", "entropy"]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, node, n_classes, criterion, data):
        X, feats, msl = node
        y = data.draw(arrays(int, X.shape[0],
                             elements=st.integers(0, n_classes - 1)))
        assert_same_split(
            best_split_classification(X, y, feats, n_classes, criterion, msl),
            reference_split_classification(X, y, feats, n_classes, criterion, msl),
        )

    def test_duplicated_feature_ties_go_to_the_first(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        y = np.array([0, 0, 1, 1])
        for criterion in ("gini", "entropy"):
            found = best_split_classification(X, y, np.array([1, 0]), 2,
                                              criterion, 1)
            assert found == (1, 1.5, found[2])
