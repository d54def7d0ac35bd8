import hashlib

import numpy as np
import pytest

from skd import mincut
from skd.dataset import FormatError, SynthConfig, synthesize
from skd.metric import class_centroids
from skd.mincut import (
    _class_edges,
    brute_force_minimize,
    default_lambda_grid,
    lambda_sweep,
    load_mask,
    minimize,
    save_mask,
    solve_class_cut,
    write_sweep_csv,
)
from skd.selgraph import SelectionGraph, SelectionMask, build_selection_graph, energy

from test_selgraph import random_graph, three_face_set


ADVERSARIAL_VALUES = (0.0, 1e-12, 1e-9, 1e-6, 0.5, 1.0, 2.0, 1e3, 1e6)
ADVERSARIAL_LAMBDAS = (0.0, -1e-6, -0.5, -1.0, -1e3)


def adversarial_graph(rng, max_classes=2, max_faces=7) -> SelectionGraph:
    """Dense classes whose unaries and weights span 1e-12..1e6, with exact ties."""
    sizes = [int(rng.integers(1, max_faces + 1)) for _ in range(int(rng.integers(1, max_classes + 1)))]
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes).astype(np.int64)
    values = np.array(ADVERSARIAL_VALUES)
    ei, ej = [], []
    for c in range(1, len(sizes) + 1):
        idx = np.flatnonzero(labels == c)
        a, b = np.triu_indices(len(idx), k=1)
        ei.append(idx[a])
        ej.append(idx[b])
    edge_i = np.concatenate(ei).astype(np.int64)
    edge_j = np.concatenate(ej).astype(np.int64)
    return SelectionGraph.from_edges(
        len(labels), len(sizes), labels, rng.choice(values, len(labels)),
        edge_i, edge_j, rng.choice(values, len(edge_i)),
    )


def golden_cases():
    """A fixed family of (graph, lambda) inputs covering the solver's regimes."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        for lam in (0.0, -0.25, -1.0, -3.0):
            yield g, lam
    for seed in range(60):
        g = adversarial_graph(np.random.default_rng(1000 + seed))
        for lam in ADVERSARIAL_LAMBDAS:
            yield g, lam
    s = synthesize(SynthConfig(C=3, per_class_count=40, D=16, d_in=4, N=1,
                               noise_scale=0.3, outlier_fraction=0.1, seed=17))
    g = build_selection_graph(s, class_centroids(s))
    # the pow2 grid, plus points inside this set's transition window
    for lam in default_lambda_grid() + [-0.1, -0.08, -0.076, -0.068, -0.06]:
        yield g, lam


# SHA-256 of every golden case's mask bytes, and of its mask bytes and
# repr(energy), in order. The solver must reproduce both bit for bit. A change
# to how energies are summed moves only the second; a change to the first
# changes selections.
GOLDEN_MASK_DIGEST = "cbf4ccbb2509eeecf89d9fa93bff39e952f48078ecef4d0b0b277fdbbf98ec4b"
GOLDEN_DIGEST = "f3150b9f96a8f4ab0180c3c9bd8c55fb64d4076fe69f72330afd59f96cfd9f3c"


def digests(cases) -> tuple[str, str]:
    """SHA-256 of the minimizing masks alone, and of the masks with repr(energy)."""
    masks, both = hashlib.sha256(), hashlib.sha256()
    for g, lam in cases:
        mask, e = minimize(g, lam)
        masks.update(mask.alpha.tobytes())
        both.update(mask.alpha.tobytes())
        both.update(repr(e).encode("ascii"))
    return masks.hexdigest(), both.hexdigest()


def single_face_graph(u: float) -> SelectionGraph:
    return SelectionGraph.from_edges(
        1, 1, np.array([1]), np.array([u], dtype=float),
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
    )


class TestMinimize:
    def test_three_face_graph(self):
        s = three_face_set()
        g = build_selection_graph(s, class_centroids(s))
        mask, e = minimize(g, -1.0)
        assert mask.alpha.tolist() == [1, 1, 0]
        assert e == pytest.approx(-0.2, abs=1e-9)

    def test_tie_break_prefers_empty(self):
        # at lambda=-0.5 selecting {face 0} (zero unary) ties the empty mask
        s = three_face_set()
        g = build_selection_graph(s, class_centroids(s))
        mask, e = minimize(g, -0.5)
        assert mask.alpha.tolist() == [0, 0, 0]
        assert e == 0.0

    def test_lambda_zero_all_positive_unary(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        g.unary = np.abs(g.unary) + 0.01
        mask, e = minimize(g, 0.0)
        assert mask.selected_count == 0
        assert e == 0.0

    def test_positive_lambda_rejected(self):
        with pytest.raises(ValueError):
            minimize(single_face_graph(0.5), 1.0)

    def test_non_finite_weights_rejected(self):
        g = single_face_graph(np.inf)
        with pytest.raises(ValueError):
            minimize(g, -1.0)

    def test_mutual_support_pair(self):
        # two zero-unary faces joined by an edge get selected together
        g = SelectionGraph.from_edges(
            2, 1, np.array([1, 1]), np.zeros(2),
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
            np.array([0.7]),
        )
        mask, e = minimize(g, -1.0)
        assert mask.alpha.tolist() == [1, 1]
        assert e == pytest.approx(-0.7, abs=1e-12)

    def test_labels_outside_class_range_rejected(self):
        g = single_face_graph(0.5)
        g.labels = np.array([257])  # a narrowed class key would wrap to class 1
        with pytest.raises(ValueError, match="labels must lie"):
            minimize(g, -1.0)

    def test_long_chain_does_not_recurse(self):
        # a 1,200-level residual path: a recursive augmenting search would
        # exceed Python's recursion limit here
        n = 1200
        unary = np.full(n, 3.0)
        unary[0], unary[-1] = 1.0, 0.0
        g = SelectionGraph.from_edges(
            n, 1, np.ones(n, dtype=np.int64), unary,
            np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64),
            np.ones(n - 1),
        )
        mask, e = minimize(g, -3.0)
        assert mask.selected_count == n
        assert e == -2.0


class TestGolden:
    def test_masks_and_energies_bit_identical(self):
        assert digests(golden_cases()) == (GOLDEN_MASK_DIGEST, GOLDEN_DIGEST)


def stress_cases():
    """The benchmark's 10 x 300 sets at seeds 7 and 1811, and 4 x 500 at seed 7."""
    def graph(C, per_class, seed):
        s = synthesize(SynthConfig(C=C, per_class_count=per_class, D=128, d_in=8, N=4,
                                   noise_scale=0.005, outlier_fraction=0.1, seed=seed))
        return build_selection_graph(s, class_centroids(s))

    for seed in (7, 1811):
        g = graph(10, 300, seed)
        for lam in (-1.0, -0.05, -0.002, 0.0):
            yield g, lam
    yield graph(4, 500, 7), -0.05


# Same digests as the golden ones, over stress_cases(): classes of 300-500
# faces with 44,850-124,750 edges each, the scale the solver's array paths are
# built for. The energies are numpy sums, with no BLAS call, so the digests do
# not depend on the BLAS thread count.
STRESS_MASK_DIGEST = "b8a6108a3d8fc8896d7254931f6e9da8e72b25db6e67aa243406661f930e0491"
STRESS_DIGEST = "e384c21ef5586fefb10a41038f2bb5430e92454cd133fd97d0b6884bea1bcaac"


class TestStressGolden:
    def test_masks_and_energies_bit_identical(self):
        assert digests(stress_cases()) == (STRESS_MASK_DIGEST, STRESS_DIGEST)


def streamed(cases):
    """``cases`` with each graph's blocks handed over as a one-shot iterator."""
    for g, lam in cases:
        yield SelectionGraph(g.n_faces, g.n_classes, g.labels, g.unary, iter(g.blocks)), lam


class TestStreamedBlocks:
    """``minimize`` makes one pass over its blocks, so an iterator of them will do."""

    def test_golden_digests(self):
        assert digests(streamed(golden_cases())) == (GOLDEN_MASK_DIGEST, GOLDEN_DIGEST)

    def test_stress_digests(self):
        assert digests(streamed(stress_cases())) == (STRESS_MASK_DIGEST, STRESS_DIGEST)

    @staticmethod
    def four_class_blocks():
        """Labels, unary costs and the blocks of four classes of 4, 3, 5 and 2 faces."""
        labels = np.repeat([1, 2, 3, 4], [4, 3, 5, 2])
        blocks = []
        for c in range(1, 5):
            ids = np.flatnonzero(labels == c)
            a, b = np.triu_indices(len(ids), k=1)
            blocks.append((ids, a.astype(np.uint8), b.astype(np.uint8),
                           np.linspace(0.1, 0.9, len(a))))
        return labels, np.full(len(labels), 0.2), blocks

    # (bad block, message, blocks taken, classes solved before the error)
    @pytest.mark.parametrize("bad, message, taken, solved", [
        ("negative weight", "edge weights must be finite and nonnegative", 2, 1),
        ("classes out of order",
         "blocks must hold each class's faces, ascending, in class order", 3, 2),
        ("missing class", "blocks must hold each class's faces, ascending, in class order", 3, 3),
    ], ids=["negative-weight", "classes-out-of-order", "missing-class"])
    def test_a_bad_block_mid_stream_raises_what_validate_raises(self, monkeypatch, bad, message,
                                                                taken, solved):
        labels, unary, blocks = self.four_class_blocks()
        if bad == "negative weight":
            ids, a, b, w = blocks[1]
            blocks[1] = (ids, a, b, np.where(np.arange(len(w)) == 1, -0.5, w))
        elif bad == "classes out of order":
            blocks[1], blocks[2] = blocks[2], blocks[1]
        else:
            del blocks[2]
        graph = SelectionGraph(len(labels), 4, labels, unary, blocks)
        with pytest.raises(ValueError) as eager:
            graph.validate()
        assert str(eager.value) == message

        taken_blocks, solves, solve = [], [], mincut.solve_class_cut
        monkeypatch.setattr(mincut, "solve_class_cut",
                            lambda *args: solves.append(args) or solve(*args))

        def stream():
            for block in blocks:
                taken_blocks.append(block)
                yield block

        graph.blocks = stream()
        with pytest.raises(ValueError) as streamed_error:
            minimize(graph, -1.0)
        assert str(streamed_error.value) == message
        # each block is checked when it arrives, after the classes before it are solved
        assert (len(taken_blocks), len(solves)) == (taken, solved)

    def test_a_used_stream_is_not_solved_again(self):
        labels, unary, blocks = self.four_class_blocks()
        graph = SelectionGraph(len(labels), 4, labels, unary, iter(blocks))
        mask, _ = minimize(graph, -1.0)
        assert mask.selected_count > 0
        with pytest.raises(ValueError, match="blocks must hold each class's faces"):
            minimize(graph, -1.0)


def shuffled(g: SelectionGraph, rng) -> SelectionGraph:
    """``g`` with its faces renumbered and its edges reordered at random."""
    new_id = rng.permutation(g.n_faces)
    labels = np.empty_like(g.labels)
    labels[new_id] = g.labels
    unary = np.empty_like(g.unary)
    unary[new_id] = g.unary
    i, j = new_id[g.edge_i], new_id[g.edge_j]
    order = rng.permutation(len(i))
    return SelectionGraph.from_edges(g.n_faces, g.n_classes, labels, unary,
                                     np.minimum(i, j)[order], np.maximum(i, j)[order],
                                     g.edge_w[order])


class TestClassEdges:
    @pytest.mark.parametrize("n_classes", [4, 300])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_matches_per_class_scan(self, n_classes, shuffle):
        rng = np.random.default_rng(n_classes)
        sizes = rng.integers(0, 5, n_classes)
        labels = np.repeat(np.arange(1, n_classes + 1), sizes)
        ei, ej = [], []
        for c in range(1, n_classes + 1):
            a, b = np.triu_indices(int(sizes[c - 1]), k=1)
            first = np.searchsorted(labels, c)
            ei.append(first + a)
            ej.append(first + b)
        g = SelectionGraph.from_edges(len(labels), n_classes, labels, rng.random(len(labels)),
                                      np.concatenate(ei), np.concatenate(ej),
                                      rng.random(sum(len(e) for e in ei)))
        if shuffle:
            g = shuffled(g, rng)
        got = _class_edges(g)
        want = []
        for c in range(1, n_classes + 1):
            ids = np.flatnonzero(g.labels == c)
            if len(ids):
                sel = g.labels[g.edge_i] == c
                want.append((ids, np.searchsorted(ids, g.edge_i[sel]),
                             np.searchsorted(ids, g.edge_j[sel]), g.edge_w[sel]))
        assert len(got) == len(want)
        for parts, expected in zip(got, want):
            for part, e in zip(parts, expected):
                assert np.array_equal(part, e)
            ids, a, b, _ = parts
            assert a.dtype == b.dtype == np.min_scalar_type(len(ids))

    @pytest.mark.parametrize("sizes,dtypes", [((3, 300, 2), (np.uint8, np.uint16, np.uint8)),
                                              ((256, 255), (np.uint16, np.uint8))])
    def test_local_endpoints_fit_the_narrowed_dtype(self, sizes, dtypes):
        s = synthesize(SynthConfig(C=1, per_class_count=sum(sizes), D=4, d_in=2, N=1,
                                   noise_scale=0.3, seed=2))
        s.labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        s.C = len(sizes)
        g = shuffled(build_selection_graph(s, class_centroids(s)), np.random.default_rng(3))
        classes = _class_edges(g)
        assert [len(ids) for ids, *_ in classes] == list(sizes)
        for (ids, a, b, _), dtype in zip(classes, dtypes):
            assert a.dtype == b.dtype == dtype
            assert len(a) == len(ids) * (len(ids) - 1) // 2
            assert a.max() == len(ids) - 2 and b.max() == len(ids) - 1
            in_class = np.isin(g.edge_i, ids)
            assert np.array_equal(ids[a], g.edge_i[in_class])
            assert np.array_equal(ids[b], g.edge_j[in_class])

    def test_builder_blocks_equal_from_edges_of_their_flat_views(self):
        s = synthesize(SynthConfig(C=4, per_class_count=9, D=6, d_in=2, N=1,
                                   noise_scale=0.5, seed=5))
        # classes of 12, 1, 6 and 17 faces, interleaved
        s.labels = np.random.default_rng(0).permutation(np.repeat([1, 2, 3, 4], [12, 1, 6, 17]))
        g = build_selection_graph(s, class_centroids(s))
        flat = SelectionGraph.from_edges(g.n_faces, g.n_classes, g.labels, g.unary,
                                         g.edge_i, g.edge_j, g.edge_w)
        assert len(flat.blocks) == len(g.blocks) == 4
        for got, want in zip(flat.blocks, g.blocks):
            for part, expected in zip(got, want):
                assert part.dtype == expected.dtype
                assert part.tobytes() == expected.tobytes()
        # renumbered and reordered: the same edges, in the shuffled order
        h = shuffled(g, np.random.default_rng(2))
        old_id = np.argsort(np.random.default_rng(2).permutation(g.n_faces))
        for (ids, a, b, w), (h_ids, h_a, h_b, h_w) in zip(g.blocks, h.blocks):
            assert np.array_equal(np.sort(old_id[h_ids]), ids)
            assert h_a.dtype == h_b.dtype == a.dtype
            i, j = old_id[h_ids[h_a]], old_id[h_ids[h_b]]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            order = np.lexsort((hi, lo))  # back to row-major upper-triangle order
            assert np.array_equal(lo[order], ids[a]) and np.array_equal(hi[order], ids[b])
            assert h_w[order].tobytes() == w.tobytes()

    def test_relabelled_graph_gets_the_same_selection(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng)
            h = shuffled(g, np.random.default_rng(6))
            new_id = np.random.default_rng(6).permutation(g.n_faces)
            for lam in (-0.25, -1.0):
                mask, e = minimize(g, lam)
                other, f = minimize(h, lam)
                assert np.array_equal(other.alpha[new_id], mask.alpha)
                assert f == pytest.approx(e, abs=1e-12)


class TestBruteForce:
    def test_single_positive_unary(self):
        for lam in (0.0, -1.0, -100.0):
            mask, e = brute_force_minimize(single_face_graph(0.5), lam)
            assert mask.selected_count == 0 and e == 0.0

    def test_zero_unary_tie_prefers_unselected(self):
        mask, e = brute_force_minimize(single_face_graph(0.0), -1.0)
        assert mask.alpha.tolist() == [0] and e == 0.0

    def test_class_size_limit(self):
        labels = np.ones(21, dtype=np.int64)
        g = SelectionGraph.from_edges(
            21, 1, labels, np.ones(21),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
        )
        with pytest.raises(ValueError, match="brute force"):
            brute_force_minimize(g, -1.0)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5, an exact cut under float capacities: the augmenting "
        "path snaps rounding dust relative to the pushed amount, not the arc's capacity"))
    def test_dust_on_a_sink_arc_does_not_select(self):
        # pushes of 1e-6 and then 1e-12 leave 2.8e-23 on face 2's sink arc,
        # above the snap threshold 1e-24, so face 2 stays reachable from the sink
        g = SelectionGraph.from_edges(
            3, 1, np.ones(3, dtype=np.int64), np.array([1e6, 1e3, 0.0]),
            np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, 1.0, 1e-6]),
        )
        cut_mask, cut_energy = minimize(g, -1e-6)
        oracle_mask, oracle_energy = brute_force_minimize(g, -1e-6)
        assert cut_energy == oracle_energy == 0.0
        assert cut_mask.alpha.tolist() == oracle_mask.alpha.tolist() == [0, 0, 0]


class TestOracleEquivalence:
    def test_200_random_instances(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            g = random_graph(rng)
            lam = float(rng.choice([0.0, -1.0, -0.25, -rng.uniform(0, 4)]))
            m1, e1 = minimize(g, lam)
            m2, e2 = brute_force_minimize(g, lam)
            assert np.array_equal(m1.alpha, m2.alpha), f"trial {trial}: mask mismatch"
            assert abs(e1 - e2) <= 1e-9

    def test_reparameterization_cut_equals_energy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            unaries = rng.uniform(0, 2, k)
            edges = [
                (a, b, float(rng.uniform(0, 1)))
                for a in range(k) for b in range(a + 1, k)
            ]
            lam = -float(rng.uniform(0, 4))
            alpha = solve_class_cut(
                unaries,
                np.array([a for a, _, _ in edges], dtype=np.int64),
                np.array([b for _, b, _ in edges], dtype=np.int64),
                np.array([w for _, _, w in edges], dtype=np.float64),
                lam,
            )
            # the reduction's network: lam * w folded into the higher endpoint,
            # unary arcs s->k (u' > 0) or k->t (u' < 0), pairwise arcs a->b
            u_mod = unaries.copy()
            for _, b, w in edges:
                u_mod[b] += lam * w
            offset = float(u_mod[u_mod < 0.0].sum())
            # an arc is cut when its tail is on the source side (alpha 0 or s)
            # and its head on the sink side (alpha 1 or t)
            cut = sum(u for u, sel in zip(u_mod, alpha) if u > 0.0 and sel)
            cut += sum(-u for u, sel in zip(u_mod, alpha) if u < 0.0 and not sel)
            cut += sum(-lam * w for a, b, w in edges if not alpha[a] and alpha[b])
            e = float(alpha @ unaries) + lam * sum(
                w for a, b, w in edges if alpha[a] and alpha[b]
            )
            assert cut + offset == pytest.approx(e, abs=1e-9)

    def test_per_class_concatenation_is_global_optimum(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = random_graph(rng)
            lam = -float(rng.uniform(0, 3))
            mask, e = minimize(g, lam)
            _, e_brute = brute_force_minimize(g, lam)
            assert e == pytest.approx(e_brute, abs=1e-9)
            assert e == pytest.approx(energy(g, mask, lam), abs=0)


class TestSweep:
    def test_default_grid(self):
        grid = default_lambda_grid()
        assert grid[0] == -8192.0
        assert grid[-2:] == [-1.0, 0.0]
        assert len(grid) == 15
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_three_face_counts_match_oracle(self):
        s = three_face_set()
        g = build_selection_graph(s, class_centroids(s))
        grid = [-8.0, -4.0, 0.0]
        oracle_counts = [brute_force_minimize(g, lam)[0].selected_count for lam in grid]
        assert oracle_counts == [2, 2, 0]  # frozen from the enumeration oracle
        result = lambda_sweep(g, grid)
        assert [e.selected_count for e in result.entries] == oracle_counts

    def test_count_zero_at_lambda_zero(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng)
        g.unary = np.abs(g.unary) + 1e-6
        result = lambda_sweep(g, [0.0])
        assert [e.selected_count for e in result.entries] == [0]

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = random_graph(rng)
            result = lambda_sweep(g)  # validates internally
            assert [e.lam for e in result.entries] == default_lambda_grid()
            counts = [e.selected_count for e in result.entries]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_canonical_optima_nested(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng)
        prev = None
        for lam in default_lambda_grid():
            mask, _ = minimize(g, lam)
            if prev is not None:
                assert np.all(mask.alpha <= prev)
            prev = mask.alpha

    def test_rejects_positive_lambda(self):
        g = single_face_graph(1.0)
        with pytest.raises(ValueError):
            lambda_sweep(g, [-1.0, 0.5])


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        mask = SelectionMask(np.array([1, 0, 1, 1, 0], dtype=np.int8))
        p = tmp_path / "m.mask"
        save_mask(p, mask, -2.0)
        loaded, lam = load_mask(p)
        assert np.array_equal(loaded.alpha, mask.alpha)
        assert lam == -2.0
        assert p.read_text().splitlines()[0] == "SKDMASK1 5 -2.0"

    def test_bytes(self, tmp_path):
        p = tmp_path / "m.mask"
        save_mask(p, SelectionMask(np.array([1, 0, 1], dtype=np.int8)), -0.25)
        assert p.read_bytes() == b"SKDMASK1 3 -0.25\n0,1\n1,0\n2,1\n"

    def test_byte_identical_saves(self, tmp_path):
        mask = SelectionMask(np.array([0, 1], dtype=np.int8))
        save_mask(tmp_path / "a", mask, -0.5)
        save_mask(tmp_path / "b", mask, -0.5)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_malformed_rows(self, tmp_path):
        p = tmp_path / "bad.mask"
        p.write_text("SKDMASK1 2 -1.0\n0,1\n1,2\n")
        with pytest.raises(FormatError) as exc:
            load_mask(p)
        assert exc.value.line == 3

    def test_sweep_csv(self, tmp_path):
        s = three_face_set()
        g = build_selection_graph(s, class_centroids(s))
        result = lambda_sweep(g, [-8.0, 0.0])
        p = tmp_path / "sweep.csv"
        write_sweep_csv(result, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "lambda,count,energy,pairwise_reward"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == -8.0 and int(first[1]) == 2
