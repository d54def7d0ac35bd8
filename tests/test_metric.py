import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skd.dataset import StudentSet
from skd.metric import (
    class_centroids,
    measure_matrix,
    unit_rows,
)

finite_vec = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=8
)


def measure(a, b, mode="cossim"):
    """The measure between two vectors, taken as one-row arrays."""
    A, B = np.array([a], dtype=float), np.array([b], dtype=float)
    return float(measure_matrix(A, B, mode)[0, 0])


def test_identical_vectors():
    v = np.array([0.3, 0.7, 0.1])
    assert measure(v, v) == pytest.approx(1.0, abs=1e-12)
    assert measure(v, v, mode="cosdist") == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_vectors():
    assert measure([1, 0], [0, 1]) == 0.0
    assert measure([1, 0], [0, 1], mode="cosdist") == 1.0


def test_known_cosine():
    # dot = 0.8, both unit norm
    assert measure([1, 0], [0.8, 0.6]) == pytest.approx(0.8, abs=1e-12)
    assert measure([1, 0], [0.8, 0.6], mode="cosdist") == pytest.approx(0.2, abs=1e-12)


def test_clamping_of_negative_cosine():
    assert measure([1, 0], [-1, 0]) == 0.0
    assert measure([1, 0], [-1, 0], mode="cosdist") == pytest.approx(2.0, abs=1e-12)


def test_zero_norm_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        measure([0, 0], [1, 0])
    with pytest.raises(ValueError, match="zero-norm"):
        measure_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        measure([1, 0], [1, 0, 0])


def test_unknown_mode_errors():
    with pytest.raises(ValueError):
        measure([1, 0], [0, 1], mode="euclid")


@settings(max_examples=200, deadline=None)
@given(a=finite_vec, b=finite_vec, k=st.floats(min_value=1e-3, max_value=1e3))
@example(a=[1.2912770807226725e-160, 0.0], b=[1.0, 0.0], k=2.0)
@example(a=[0.0, 1.5590947568764296e-158], b=[0.0, 1.0], k=0.5)
def test_symmetry_and_scale_invariance(a, b, k):
    n = min(len(a), len(b))
    va, vb = np.array(a[:n]), np.array(b[:n])
    if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
        return
    for mode in ("cossim", "cosdist"):
        s1 = measure(va, vb, mode)
        assert s1 == pytest.approx(measure(vb, va, mode), abs=1e-12)
        assert s1 == pytest.approx(measure(k * va, vb, mode), abs=1e-12)
    assert 0.0 <= measure(va, vb) <= 1.0
    assert 0.0 <= measure(va, vb, "cosdist") <= 2.0


def build_set(features_by_class, d_in=1, N=1):
    labels = [c for c, feats in enumerate(features_by_class, start=1) for _ in feats]
    features = [f for feats in features_by_class for f in feats]
    return StudentSet(labels, features, np.zeros((len(labels), N, d_in)),
                      C=len(features_by_class))


def test_centroid_of_identical_vectors():
    v = [0.2, 0.4, 0.4]
    s = build_set([[v, v, v]])
    table = class_centroids(s)
    assert np.allclose(table[0], v, atol=0)


def test_two_point_centroid():
    s = build_set([[[1.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(class_centroids(s)[0], [0.5, 0.5])


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
        rel = np.abs(table[c] - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() < 1e-12


def test_centroid_permutation_invariance():
    rng = np.random.default_rng(1)
    feats = [[rng.uniform(0, 1, 8) for _ in range(20)] for _ in range(2)]
    s1 = build_set(feats)
    shuffled = [list(reversed(f)) for f in feats]
    s2 = build_set(shuffled)
    c1, c2 = class_centroids(s1), class_centroids(s2)
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
    assert class_centroids(s).tobytes() == expected.tobytes()


# Classes 1..C once each, plus extra records of the classes above ``singles``
# (the rest keep a single record), shuffled so the classes interleave.
# Signed zeros and magnitudes over 16 decades make any sum taken in another
# order or from another start round differently.
@settings(max_examples=200, deadline=None)
@given(C=st.integers(1, 5), D=st.integers(1, 6), extra=st.integers(0, 80), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_centroids_equal_the_add_at_definition(C, D, extra, data, seed):
    singles = data.draw(st.integers(0, C - 1))
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.concatenate([np.arange(1, C + 1),
                                             rng.integers(singles + 1, C + 1, size=extra)]))
    n = len(labels)
    feats = rng.normal(size=(n, D)) * 10.0 ** rng.integers(-8, 8, size=(n, D))
    zeros = rng.random((n, D)) < 0.2
    feats[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
    sums = np.zeros((C, D))
    np.add.at(sums, labels - 1, feats)
    expected = sums / np.bincount(labels - 1)[:, None]
    s = StudentSet(labels, feats, np.zeros((n, 1, 1)), C=C)
    assert class_centroids(s).tobytes() == expected.tobytes()


def test_empty_class_errors():
    s = build_set([[[1.0, 0.0]]])
    s.C = 2  # declare a second class nobody has
    with pytest.raises(ValueError, match="empty"):
        class_centroids(s)


def out_of_place_measure(A, B, mode):
    cos = (A / np.linalg.norm(A, axis=1)[:, None]) @ (B / np.linalg.norm(B, axis=1)[:, None]).T
    cos = np.clip(cos, -1.0, 1.0)
    return np.maximum(cos, 0.0) if mode == "cossim" else 1.0 - cos


@pytest.mark.parametrize("mode", ["cossim", "cosdist"])
@pytest.mark.parametrize("rows, dim", [(30, 8), (300, 128)])
def test_measure_matrix_writes_only_its_result(mode, rows, dim):
    # At these shapes numpy's symmetric X @ X.T on one buffer differs from the
    # general product in the last bits, so a shared normalized operand fails.
    rng = np.random.default_rng(rows)
    A = rng.normal(size=(rows, dim))
    B = rng.normal(size=(rows // 3, dim))
    before = A.tobytes(), B.tobytes()
    A.flags.writeable = B.flags.writeable = False
    assert measure_matrix(A, B, mode).tobytes() == out_of_place_measure(A, B, mode).tobytes()
    assert measure_matrix(A, A, mode).tobytes() == out_of_place_measure(A, A, mode).tobytes()
    assert (A.tobytes(), B.tobytes()) == before


# Zeros and magnitudes 2**-200 .. 2**201: every square in a norm is a normal float.
normal_entry = st.one_of(st.just(0.0), st.builds(
    lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1.0, max_value=2.0, exclude_max=True), st.integers(-200, 200)))
normal_matrix = st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(normal_entry, min_size=d, max_size=d), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(M=normal_matrix, k=st.integers(-1100, 1100))
@example(M=[[1.0, 0.5], [0.0, 0.0], [-3.0, 2.0 ** -200]], k=530)
@example(M=[[1.0, 0.5], [0.0, 0.0], [-3.0, 2.0 ** -200]], k=-565)
def test_unit_rows_is_exact_at_every_scale(M, k):
    M = np.array(M)
    U = unit_rows(M)
    zero = ~M.any(axis=1)
    assert not U[zero].any()
    expected = M[~zero] / np.linalg.norm(M[~zero], axis=1, keepdims=True)
    assert U[~zero].tobytes() == expected.tobytes()
    with np.errstate(over="ignore"):
        scaled = np.ldexp(M, k)
    magnitudes = np.abs(scaled[M != 0.0])
    assume(magnitudes.size == 0 or (magnitudes.min() >= np.finfo(np.float64).tiny
                                    and np.isfinite(magnitudes.max())))
    assert unit_rows(scaled).tobytes() == U.tobytes()
