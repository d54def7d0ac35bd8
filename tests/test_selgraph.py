import hashlib
import math

import numpy as np
import pytest

from skd import selgraph
from skd.dataset import StudentSet, SynthConfig, synthesize
from skd.metric import class_centroids, measure_matrix
from skd.selgraph import (
    SelectionGraph,
    SelectionMask,
    build_selection_graph,
    dump_graph,
    energy,
    pairwise_reward,
    streamed_selection_graph,
)


def three_face_set():
    # class 1 = {(1,0), (0.8,0.6)}, class 2 = {(0,1)}
    feats = [[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]
    return StudentSet([1, 1, 2], feats, np.zeros((3, 1, 1)), C=2)


@pytest.fixture
def three_face_graph():
    s = three_face_set()
    return build_selection_graph(s, class_centroids(s))


def random_graph(rng, max_classes=4, max_faces=8):
    sizes = [int(rng.integers(1, max_faces + 1)) for _ in range(int(rng.integers(1, max_classes + 1)))]
    labels = np.concatenate([[c + 1] * k for c, k in enumerate(sizes)]).astype(np.int64)
    n = len(labels)
    unary = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(0.0, 2.0, n))
    ei, ej, ew = [], [], []
    for c in range(1, len(sizes) + 1):
        idx = np.flatnonzero(labels == c)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                ei.append(idx[a])
                ej.append(idx[b])
                ew.append(0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 1.0)))
    return SelectionGraph.from_edges(
        n, len(sizes), labels, unary,
        np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64),
        np.array(ew, dtype=np.float64),
    )


class TestBuild:
    def test_small_counts(self, three_face_graph):
        g = three_face_graph
        assert g.node_count == 5            # 3 faces + 2 centroids
        assert g.intra_edge_count == 1
        assert g.folded_connection_count == 3

    def test_hand_derived_values(self, three_face_graph):
        g = three_face_graph
        # u_1 = (0.9, 0.3), u_2 = (0, 1)
        expected_u = [0.0, 0.6, 0.3 / np.sqrt(0.9)]
        assert np.allclose(g.unary, expected_u, atol=1e-6)
        assert g.edge_w[0] == pytest.approx(0.8, abs=1e-6)
        assert (int(g.edge_i[0]), int(g.edge_j[0])) == (0, 1)

    def test_large_counts(self):
        s = synthesize(SynthConfig(C=100, per_class_count=30, D=8, d_in=2, N=1,
                                   noise_scale=0.1, seed=0))
        g = build_selection_graph(s, class_centroids(s))
        assert g.node_count == 3000 + 100
        assert g.intra_edge_count == 100 * (30 * 29 // 2)
        assert g.folded_connection_count == 3000 * 99

    def test_count_formulas_on_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            C = int(rng.integers(1, 6))
            sizes = [int(rng.integers(1, 7)) for _ in range(C)]
            labels = np.repeat(np.arange(1, C + 1), sizes)
            features = [rng.uniform(0.05, 1.0, 5) for _ in labels]
            s = StudentSet(labels, features, np.zeros((len(labels), 1, 1)), C=C)
            g = build_selection_graph(s, class_centroids(s))
            assert g.node_count == sum(sizes) + C
            assert g.intra_edge_count == sum(k * (k - 1) // 2 for k in sizes)
            assert g.folded_connection_count == sum(k * (C - 1) for k in sizes)

    def test_edges_match_a_per_class_scan(self):
        s = synthesize(SynthConfig(C=4, per_class_count=9, D=6, d_in=2, N=1,
                                   noise_scale=0.5, seed=5))
        # classes of 12, 1, 6 and 17 faces, interleaved
        s.labels = np.random.default_rng(0).permutation(np.repeat([1, 2, 3, 4], [12, 1, 6, 17]))
        for mode in ("cossim", "cosdist"):
            g = build_selection_graph(s, class_centroids(s), measure=mode)
            ei, ej, ew = [], [], []
            for c in range(1, s.C + 1):
                idx = np.flatnonzero(s.labels == c)
                a, b = np.triu_indices(len(idx), k=1)
                gram = measure_matrix(s.features[idx], s.features[idx], mode)
                ei.append(idx[a])
                ej.append(idx[b])
                ew.append(gram[a, b])
            assert (g.edge_i.dtype, g.edge_j.dtype, g.edge_w.dtype) == (np.int64, np.int64,
                                                                        np.float64)
            assert np.array_equal(g.edge_i, np.concatenate(ei))
            assert np.array_equal(g.edge_j, np.concatenate(ej))
            assert g.edge_w.tobytes() == np.concatenate(ew).tobytes()

    def test_streamed_blocks_equal_the_built_ones(self):
        s = synthesize(SynthConfig(C=5, per_class_count=9, D=6, d_in=2, N=1,
                                   noise_scale=0.5, seed=5))
        # classes of 12, 1, 6, 2 and 24 faces, interleaved
        s.labels = np.random.default_rng(0).permutation(np.repeat([1, 2, 3, 4, 5],
                                                                  [12, 1, 6, 2, 24]))
        for mode in ("cossim", "cosdist"):
            g = build_selection_graph(s, class_centroids(s), measure=mode)
            lazy = streamed_selection_graph(s.features, s.labels, s.C, class_centroids(s), mode)
            assert not isinstance(lazy.blocks, list)
            assert (lazy.n_faces, lazy.n_classes) == (g.n_faces, g.n_classes)
            assert lazy.labels is s.labels and lazy.unary.tobytes() == g.unary.tobytes()
            blocks = list(lazy.blocks)
            assert len(blocks) == len(g.blocks) == 5
            for got, want in zip(blocks, g.blocks):
                for part, expected in zip(got, want):
                    assert part.dtype == expected.dtype
                    assert part.tobytes() == expected.tobytes()

    def test_weights_nonnegative_both_measures(self):
        s = synthesize(SynthConfig(C=4, per_class_count=6, D=6, d_in=2, N=1,
                                   noise_scale=0.5, seed=3))
        for mode in ("cossim", "cosdist"):
            g = build_selection_graph(s, class_centroids(s), measure=mode)
            assert np.all(g.unary >= 0) and np.all(g.edge_w >= 0)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_labels_outside_class_range_rejected(self, three_face_graph, bad):
        g = SelectionGraph.from_edges(3, 2, np.array([1, bad, 2]), three_face_graph.unary,
                                      np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                                      np.zeros(0))
        with pytest.raises(ValueError, match=r"labels must lie in 1\.\.2"):
            g.validate()

    def test_relabelled_face_rejected(self, three_face_graph):
        # face 1 moved to class 2 after the build: its block no longer holds one class
        three_face_graph.labels = np.array([1, 2, 2])
        with pytest.raises(ValueError, match="each class's faces"):
            three_face_graph.validate()

    def test_centroid_class_count_mismatch(self):
        s = three_face_set()
        with pytest.raises(ValueError):
            build_selection_graph(s, class_centroids(s)[:1])

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, 7)])
    def test_edge_endpoint_outside_faces_rejected(self, three_face_graph, i, j):
        g = three_face_graph
        with pytest.raises(ValueError, match=r"endpoints must lie in 0\.\.2"):
            SelectionGraph.from_edges(3, 2, g.labels, g.unary, np.array([i]), np.array([j]),
                                      g.edge_w)

    @pytest.mark.parametrize("field", ["labels", "unary"])
    def test_face_count_mismatch_rejected(self, three_face_graph, field):
        three_face_graph.n_faces = 5
        with pytest.raises(ValueError, match="one entry per face"):
            three_face_graph.validate()
        three_face_graph.n_faces = 3
        setattr(three_face_graph, field, getattr(three_face_graph, field)[:2])
        with pytest.raises(ValueError, match="one entry per face"):
            three_face_graph.validate()

    @pytest.mark.parametrize("field", ["edge_i", "edge_j", "edge_w"])
    def test_edge_array_length_mismatch_rejected(self, three_face_graph, field):
        g = three_face_graph
        edges = {name: getattr(g, name) for name in ("edge_i", "edge_j", "edge_w")}
        edges[field] = np.repeat(edges[field], 2)
        with pytest.raises(ValueError, match="one length"):
            SelectionGraph.from_edges(3, 2, g.labels, g.unary, **edges)


@pytest.mark.parametrize("mode", ["cossim", "cosdist"])
@pytest.mark.parametrize("rows, dim", [(30, 8), (300, 128)])
def test_streamed_graph_equals_measure_matrix(monkeypatch, mode, rows, dim):
    rng = np.random.default_rng(rows)
    F = rng.normal(size=(rows, dim))
    centroids = rng.normal(size=(4, dim))
    labels = rng.permutation(np.concatenate([[2], rng.choice([1, 4], size=rows - 1)]))
    class_ids = [np.flatnonzero(labels == c) for c in range(1, 5)]  # class 3 is empty
    g = streamed_selection_graph(F, labels, 4, centroids, mode)
    face_cent = measure_matrix(F, centroids, mode)
    unary = face_cent.sum(axis=1) - face_cent[np.arange(rows), labels - 1]
    assert g.unary.tobytes() == unary.tobytes()
    blocks = list(g.blocks)
    assert [ids.tolist() for ids, *_ in blocks] == [class_ids[c].tolist() for c in (0, 1, 3)]
    for ids, a, b, w in blocks:
        upper = np.triu_indices(len(ids), k=1)
        assert np.array_equal(a, upper[0]) and np.array_equal(b, upper[1])
        assert w.tobytes() == measure_matrix(F[ids], F[ids], mode)[upper].tobytes()

    made = []
    monkeypatch.setattr(selgraph, "class_blocks", lambda *args: made.append(args))
    F[5] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        streamed_selection_graph(F, labels, 4, centroids, mode)
    with pytest.raises(ValueError, match="unknown measure"):
        streamed_selection_graph(rng.normal(size=(rows, dim)), labels, 4, centroids, "dot")
    assert made == []


class TestEnergy:
    def test_empty_mask_is_zero(self, three_face_graph):
        for lam in (0.0, -1.0, -512.0):
            assert energy(three_face_graph, SelectionMask.zeros(3), lam) == 0.0

    def test_hand_derived_energy(self, three_face_graph):
        m = SelectionMask(np.array([1, 1, 0]))
        assert energy(three_face_graph, m, -1.0) == pytest.approx(-0.2, abs=1e-9)

    def test_single_unary_term(self, three_face_graph):
        m = SelectionMask(np.array([0, 1, 0]))
        for lam in (0.0, -3.5):
            assert energy(three_face_graph, m, lam) == pytest.approx(0.6, abs=1e-9)

    def test_positive_lambda_rejected(self, three_face_graph):
        with pytest.raises(ValueError, match="nonpositive"):
            energy(three_face_graph, SelectionMask.zeros(3), 0.5)

    def test_mask_length_checked(self, three_face_graph):
        with pytest.raises(ValueError):
            energy(three_face_graph, SelectionMask.zeros(5), -1.0)

    def test_per_class_separability(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_graph(rng)
            mask = SelectionMask(rng.integers(0, 2, g.n_faces).astype(np.int8))
            lam = -float(rng.uniform(0, 4))
            total = energy(g, mask, lam)
            by_class = 0.0
            for c in range(1, g.n_classes + 1):
                restricted = mask.alpha.copy()
                restricted[g.labels != c] = 0
                by_class += energy(g, SelectionMask(restricted), lam)
            assert total == pytest.approx(by_class, abs=1e-9)

    @pytest.mark.parametrize("shape", [(2, 150), (3, 7)])
    def test_pairwise_reward_is_the_per_class_sum(self, shape):
        # (2, 150) has 22,350 edges, more than a BLAS dot product would split
        # across threads.
        C, per_class = shape
        s = synthesize(SynthConfig(C=C, per_class_count=per_class, D=8, d_in=2, N=1,
                                   noise_scale=0.3, seed=9))
        g = build_selection_graph(s, class_centroids(s))
        rng = np.random.default_rng(1)
        masks = [SelectionMask.zeros(g.n_faces), SelectionMask.ones(g.n_faces)] + [
            SelectionMask(rng.integers(0, 2, g.n_faces)) for _ in range(5)]
        for mask in masks:
            reward = 0.0
            for ids, a, b, w in g.blocks:
                alpha = mask.alpha[ids]
                reward += float(w[(alpha[a] == 1) & (alpha[b] == 1)].sum())
            assert pairwise_reward(g, mask) == reward
            both = (mask.alpha[g.edge_i] == 1) & (mask.alpha[g.edge_j] == 1)
            exact = math.fsum(g.edge_w[both].tolist())
            assert pairwise_reward(g, mask) == pytest.approx(exact, rel=1e-12, abs=0)
        assert pairwise_reward(g, masks[0]) == 0.0

    def test_energy_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng)
        mask = SelectionMask.ones(g.n_faces)
        if pairwise_reward(g, mask) == 0.0:
            return
        lams = sorted(-rng.uniform(0, 8, size=6))
        values = [energy(g, mask, lam) for lam in lams]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_dump_graph_format(tmp_path, three_face_graph):
    p = tmp_path / "g.txt"
    dump_graph(three_face_graph, p)
    # Unary costs and edge weights are both written as the repr of Python floats.
    assert p.read_bytes() == (
        b"SKDGRAPH1 3 2 1\n"
        b"0,1,0.0\n"
        b"1,1,0.6\n"
        b"2,2,0.316227766016838\n"
        b"0,1,0.8\n"
    )


def test_dump_graph_bytes_of_a_larger_graph(tmp_path):
    # 3 x 120 faces: 21,420 edge rows, written in several pieces.
    s = synthesize(SynthConfig(C=3, per_class_count=120, D=16, d_in=4, N=1,
                               noise_scale=0.2, seed=4))
    g = build_selection_graph(s, class_centroids(s))
    p = tmp_path / "g.txt"
    dump_graph(g, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "7257df626f845fabfbb6f2ea2242ce61f6b622dc0ee09b2212ab4b943d7b6643"
    )
