import itertools

import numpy as np
import pytest

from skd.dataset import StudentSet, SynthConfig, synthesize
from skd.evaluate import (
    auc_score,
    evaluate_identification,
    evaluate_retrieval,
    evaluate_verification,
    make_verification_pairs,
)
from skd.student import StudentArch, forward_batch, init_student, tap_output


def identity_model(dim, class_count=2):
    arch = StudentArch(input_dim=dim, mimic_dim=dim, class_count=class_count,
                       trunk=(dim,), identity_dim=dim,
                       hidden_activation="linear", mimic_activation="linear")
    m = init_student(arch, seed=0)
    m.layers[0].W = np.eye(dim)
    m.layers[1].W = np.eye(dim)
    m.layers[2].W = np.eye(dim)
    for l in m.layers:
        l.b[:] = 0.0
    return m


def auc_oracle(scores, labels):
    # O(n^2) pairwise comparison, ties counted half
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


class TestAUC:
    def test_perfect_separation(self):
        scores = np.array([1.0, 1.0, -1.0, -1.0])
        labels = np.array([True, True, False, False])
        assert auc_score(scores, labels) == 1.0

    def test_all_ties_is_half(self):
        scores = np.zeros(10)
        labels = np.arange(10) < 4
        assert auc_score(scores, labels) == 0.5

    def test_matches_quadratic_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 100
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            assert auc_score(scores, labels) == auc_oracle(scores, labels)

    def test_degenerate_labels_error(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(3), np.array([True, True, True]))


class TestVerification:
    def test_identical_vs_orthogonal_pairs(self):
        m = identity_model(3)
        v1, v2 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        pairs = [(v1, v1, True), (v2, v2, True), (v1, v2, False), (v2, v1, False)]
        assert evaluate_verification(m, pairs, tap="mimic") == 1.0

    def test_degenerate_pairs_error(self):
        m = identity_model(2)
        with pytest.raises(ValueError, match="degenerate"):
            evaluate_verification(m, [(np.ones(2), np.ones(2), True)])

    def test_pair_builder_deterministic(self):
        sset = synthesize(SynthConfig(C=3, per_class_count=4, D=4, d_in=2, N=2, seed=1))
        a = make_verification_pairs(sset, 10, 10, seed=5)
        b = make_verification_pairs(sset, 10, 10, seed=5)
        assert len(a) == 20
        for (xa, ya, sa), (xb, yb, sb) in zip(a, b):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb) and sa == sb
        assert sum(1 for p in a if p[2]) == 10


class TestIdentification:
    def test_perfect_classifier(self):
        sset = synthesize(SynthConfig(C=3, per_class_count=2, D=4, d_in=2, N=2, seed=2))
        m = identity_model(2, class_count=3)
        # route the head straight from per-record memorized logits: instead,
        # use a huge bias trick per class is impossible for mixed labels; use
        # a model that classifies by nearest input region: simpler oracle,
        # craft a set where inputs carry the label in coordinate 0
        labels = np.array([1, 2, 3, 1, 2, 3])
        inputs = np.zeros((6, 2, 2))
        inputs[:, :, 0] = labels[:, None]
        sset = StudentSet(labels, np.ones((6, 4)), inputs, C=3)
        arch = StudentArch(input_dim=2, mimic_dim=4, class_count=3, trunk=(4,),
                           identity_dim=4, hidden_activation="linear",
                           mimic_activation="linear")
        m = init_student(arch, seed=3)
        # hand-built head: logit_c = -(x0 - c)^2 expanded = 2*c*x0 - c^2 (+x0^2 common)
        for l in m.layers:
            l.W[:] = 0.0
            l.b[:] = 0.0
        m.layers[0].W[0, 0] = 1.0       # trunk passes x0
        m.layers[1].W[0, 0] = 1.0       # mimic passes x0
        m.layers[2].W[0, 0] = 1.0       # identity passes x0
        m.layers[3].W[:, 0] = 2.0 * np.array([1.0, 2.0, 3.0])
        m.layers[3].b[:] = -np.array([1.0, 2.0, 3.0]) ** 2
        top1, top5 = evaluate_identification(m, sset)
        assert (top1, top5) == (0.0, 0.0)

    def test_top5_of_five_classes_is_zero(self):
        sset = synthesize(SynthConfig(C=5, per_class_count=4, D=4, d_in=2, N=3, seed=4))
        m = init_student(StudentArch(input_dim=2, mimic_dim=4, class_count=5,
                                     trunk=(3,), identity_dim=3), seed=5)
        for l in m.layers:
            l.W[:] = 0.0
            l.b[:] = 0.0
        top1, top5 = evaluate_identification(m, sset)
        assert top5 == 0.0
        assert top1 > 0.0  # equal logits rank label 1 first everywhere

    def test_matches_hand_ranked_oracle(self):
        sset = synthesize(SynthConfig(C=4, per_class_count=5, D=4, d_in=3, N=2, seed=6))
        m = init_student(StudentArch(input_dim=3, mimic_dim=4, class_count=4,
                                     trunk=(5,), identity_dim=4), seed=7)
        top1, top5 = evaluate_identification(m, sset)
        errs1 = errs5 = total = 0
        for label, xs in zip(sset.labels, sset.inputs):
            for x in xs:
                _, logits = forward_batch(m, np.asarray(x)[None, :])
                order = sorted(range(4), key=lambda c: (-logits[0][c], c))
                rank = order.index(label - 1)
                errs1 += rank >= 1
                errs5 += rank >= 5
                total += 1
        assert top1 == pytest.approx(errs1 / total, abs=0)
        assert top5 == pytest.approx(errs5 / total, abs=0)

    def test_label_out_of_range(self):
        sset = synthesize(SynthConfig(C=5, per_class_count=2, D=4, d_in=2, N=1, seed=8))
        m = init_student(StudentArch(input_dim=2, mimic_dim=4, class_count=3,
                                     trunk=(3,), identity_dim=3), seed=0)
        with pytest.raises(ValueError):
            evaluate_identification(m, sset)


def retrieval_set(labels, features, inputs):
    """A set of the given records; ``inputs`` holds each record's versions."""
    labels = np.asarray(labels)
    return StudentSet(labels, features, inputs, C=int(labels.max()))


class TestRetrieval:
    def test_probes_equal_gallery(self):
        m = identity_model(3)
        features = np.random.default_rng(0).normal(size=(5, 3))
        sset = retrieval_set(np.arange(1, 6), features, features[:, None, :])
        assert evaluate_retrieval(m, sset) == 1.0

    def test_single_entry_gallery(self):
        m = identity_model(2)
        inputs = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.5, 0.5]]])
        sset = retrieval_set([1, 1, 1], np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), inputs)
        assert evaluate_retrieval(m, sset) == 1.0

    def test_tie_goes_to_lower_gallery_id(self):
        # records are not grouped by class: the gallery is records 0 (class 2)
        # and 1 (class 1), with identical features, so every probe matches
        # record 0 and only the three class-2 probes are right
        m = identity_model(2)
        v = np.array([1.0, 0.0])
        sset = retrieval_set([2, 1, 2, 1, 2], np.tile(v, (5, 1)), np.tile(v, (5, 2, 1)))
        assert evaluate_retrieval(m, sset) == 0.6

    def test_matches_bruteforce_oracle(self):
        dim = 4
        m = identity_model(dim)
        rng = np.random.default_rng(1)
        labels = rng.permutation(np.repeat(np.arange(1, 21), 4))
        sset = retrieval_set(labels, rng.normal(size=(80, dim)), rng.normal(size=(80, 3, dim)))
        gallery = {}
        for rid, label in enumerate(labels.tolist()):
            gallery.setdefault(label, rid)
        # the gallery's record order is not its class order
        assert list(gallery) != sorted(gallery)
        for tap in ("mimic", "identity"):
            hits = total = 0
            for label, xs in zip(labels, sset.inputs):
                for f in tap_output(m, xs, tap):
                    best_id, best_s = None, -np.inf
                    for gid in sorted(gallery.values()):
                        gv = sset.features[gid]
                        s = float(f @ gv / (np.linalg.norm(f) * np.linalg.norm(gv)))
                        if s > best_s:
                            best_id, best_s = gid, s
                    hits += labels[best_id] == label
                    total += 1
            assert evaluate_retrieval(m, sset, tap) == pytest.approx(hits / total, abs=0), tap


@pytest.mark.parametrize("k", [0, 600, -600])
def test_scores_do_not_depend_on_the_tap_magnitude(k):
    # Tap outputs of 2**600 or 2**-600 square out of the float range; the
    # cosine must still see their directions.
    m = identity_model(4)
    rng = np.random.default_rng(3)
    members = [(c, np.eye(4)[c] + 0.05 * rng.normal(size=4)) for c in range(4) for _ in range(3)]
    pairs = [(np.ldexp(a, k), np.ldexp(b, k), ca == cb)
             for (ca, a), (cb, b) in itertools.combinations(members, 2)]
    assert evaluate_verification(m, pairs) == 1.0
    sset = retrieval_set([c + 1 for c, _ in members], np.eye(4)[[c for c, _ in members]],
                         np.stack([np.ldexp(v, k) for _, v in members])[:, None, :])
    assert evaluate_retrieval(m, sset) == 1.0
