import numpy as np
import pytest

from skd.dataset import StudentSet, SynthConfig, synthesize
from skd.metric import class_centroids
from skd.selgraph import (
    SelectionGraph,
    SelectionMask,
    build_selection_graph,
    dump_graph,
    energy,
    pairwise_reward,
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
    return SelectionGraph(
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

    def test_weights_nonnegative_both_measures(self):
        s = synthesize(SynthConfig(C=4, per_class_count=6, D=6, d_in=2, N=1,
                                   noise_scale=0.5, seed=3))
        for mode in ("cossim", "cosdist"):
            g = build_selection_graph(s, class_centroids(s), measure=mode)
            assert np.all(g.unary >= 0) and np.all(g.edge_w >= 0)

    def test_centroid_class_count_mismatch(self):
        s = three_face_set()
        table = class_centroids(s)
        table.centroids = table.centroids[:1]
        with pytest.raises(ValueError):
            build_selection_graph(s, table)


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
    lines = p.read_text().splitlines()
    assert lines[0] == "SKDGRAPH1 3 2 1"
    assert lines[1].startswith("0,1,")
    assert len(lines) == 1 + 3 + 1
