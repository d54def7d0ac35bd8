import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skd.dataset import StudentSet
from skd.metric import class_centroids, measure_matrix, pairwise_measure

finite_vec = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=8
)


def test_identical_vectors():
    v = np.array([0.3, 0.7, 0.1])
    assert pairwise_measure(v, v) == pytest.approx(1.0, abs=1e-12)
    assert pairwise_measure(v, v, mode="cosdist") == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_vectors():
    assert pairwise_measure([1, 0], [0, 1]) == 0.0
    assert pairwise_measure([1, 0], [0, 1], mode="cosdist") == 1.0


def test_known_cosine():
    # dot = 0.8, both unit norm
    assert pairwise_measure([1, 0], [0.8, 0.6]) == pytest.approx(0.8, abs=1e-12)
    assert pairwise_measure([1, 0], [0.8, 0.6], mode="cosdist") == pytest.approx(0.2, abs=1e-12)


def test_clamping_of_negative_cosine():
    assert pairwise_measure([1, 0], [-1, 0]) == 0.0
    assert pairwise_measure([1, 0], [-1, 0], mode="cosdist") == pytest.approx(2.0, abs=1e-12)


def test_zero_norm_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        pairwise_measure([0, 0], [1, 0])
    with pytest.raises(ValueError, match="zero-norm"):
        measure_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        pairwise_measure([1, 0], [1, 0, 0])


def test_unknown_mode_errors():
    with pytest.raises(ValueError):
        pairwise_measure([1, 0], [0, 1], mode="euclid")


@settings(max_examples=200, deadline=None)
@given(a=finite_vec, b=finite_vec, k=st.floats(min_value=1e-3, max_value=1e3))
def test_symmetry_and_scale_invariance(a, b, k):
    n = min(len(a), len(b))
    va, vb = np.array(a[:n]), np.array(b[:n])
    if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
        return
    for mode in ("cossim", "cosdist"):
        s1 = pairwise_measure(va, vb, mode)
        assert s1 == pytest.approx(pairwise_measure(vb, va, mode), abs=1e-12)
        assert s1 == pytest.approx(pairwise_measure(k * va, vb, mode), abs=1e-12)
    assert 0.0 <= pairwise_measure(va, vb) <= 1.0
    assert 0.0 <= pairwise_measure(va, vb, "cosdist") <= 2.0


def build_set(features_by_class, d_in=1, N=1):
    labels = [c for c, feats in enumerate(features_by_class, start=1) for _ in feats]
    features = [f for feats in features_by_class for f in feats]
    return StudentSet(labels, features, np.zeros((len(labels), N, d_in)),
                      C=len(features_by_class))


def test_centroid_of_identical_vectors():
    v = [0.2, 0.4, 0.4]
    s = build_set([[v, v, v]])
    table = class_centroids(s)
    assert np.allclose(table.centroids[0], v, atol=0)


def test_two_point_centroid():
    s = build_set([[[1.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(class_centroids(s).centroids[0], [0.5, 0.5])


def test_centroids_match_resummation_oracle():
    rng = np.random.default_rng(0)
    feats = [[rng.uniform(0, 1, 16) for _ in range(50)] for _ in range(3)]
    s = build_set(feats)
    table = class_centroids(s)
    for c in range(3):
        # independent oracle: exact compensated per-component summation
        oracle = np.array([
            math.fsum(f[d] for f in feats[c]) / len(feats[c]) for d in range(16)
        ])
        rel = np.abs(table.centroids[c] - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() < 1e-12


def test_centroid_permutation_invariance():
    rng = np.random.default_rng(1)
    feats = [[rng.uniform(0, 1, 8) for _ in range(20)] for _ in range(2)]
    s1 = build_set(feats)
    shuffled = [list(reversed(f)) for f in feats]
    s2 = build_set(shuffled)
    c1, c2 = class_centroids(s1).centroids, class_centroids(s2).centroids
    assert np.all(np.abs(c1 - c2) / np.maximum(np.abs(c1), 1e-300) < 1e-12)


def test_centroids_sum_sequentially_in_record_order():
    # Reference: the per-record loop. Magnitudes spread over 16 decades make
    # a reordered sum (e.g. in reverse record order) round differently.
    rng = np.random.default_rng(2)
    labels = np.concatenate([[1, 2, 3, 4], rng.integers(1, 5, size=196)])
    feats = rng.normal(size=(200, 7)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
    sums = np.zeros((4, 7))
    for label, f in zip(labels, feats):
        sums[label - 1] += f
    expected = sums / np.bincount(labels - 1)[:, None]
    s = StudentSet(labels, feats, np.zeros((200, 1, 1)), C=4)
    assert class_centroids(s).centroids.tobytes() == expected.tobytes()


def test_empty_class_errors():
    s = build_set([[[1.0, 0.0]]])
    s.C = 2  # declare a second class nobody has
    with pytest.raises(ValueError, match="empty"):
        class_centroids(s)
