import numpy as np
import pytest

from skd.maxflow import Dinic


def layered_chains(k: int, rng):
    """``k`` chains s -> a -> b -> t with capacities (1, 2, 3), (2, 2, 2), (3, 2, 1).

    Returns the network (arcs in a shuffled order), the max-flow value and the
    nodes that reach t afterwards: only the (1, 2, 3) chains, whose first arc
    is their unique bottleneck, keep residual paths to t.
    """
    n = 2 * k + 2
    s, t = 0, n - 1
    chain = np.arange(k)
    a, b = 1 + chain, 1 + k + chain
    kind = chain % 3
    tail = np.concatenate([np.full(k, s), a, b])
    head = np.concatenate([a, b, np.full(k, t)])
    cap = np.concatenate([kind + 1.0, np.full(k, 2.0), 3.0 - kind])
    shuffle = rng.permutation(len(cap))
    reaching = np.zeros(n, dtype=bool)
    reaching[a[kind == 0]] = reaching[b[kind == 0]] = reaching[t] = True
    flow = float(np.minimum(np.minimum(kind + 1.0, 2.0), 3.0 - kind).sum())
    return n, (tail[shuffle], head[shuffle], cap[shuffle]), flow, reaching


class TestKeyWidths:
    # the CSR sort runs on the narrowest unsigned key that holds every node id
    @pytest.mark.parametrize("k, key", [(10, np.uint8), (200, np.uint16), (35_000, np.uint32)])
    def test_known_cut(self, k, key):
        n, arcs, flow, reaching = layered_chains(k, np.random.default_rng(k))
        assert np.min_scalar_type(n) == key
        net = Dinic(n, *arcs)
        assert net.max_flow(0, n - 1) == flow
        assert np.array_equal(net.side_reaching_sink(n - 1), reaching)
        assert len(net.to) == 2 * len(arcs[2])


class TestInputs:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one length"):
            Dinic(3, np.array([0, 1]), np.array([1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="one length"):
            Dinic(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0]))

    @pytest.mark.parametrize("tail, head", [([0, 3], [1, 2]), ([0, 1], [-1, 2]), ([0, 1], [1, 256])])
    def test_node_out_of_range(self, tail, head):
        with pytest.raises(ValueError, match=r"node ids in 0\.\.2"):
            Dinic(3, np.array(tail), np.array(head), np.array([1.0, 1.0]))

    def test_negative_capacity(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dinic(2, np.array([0]), np.array([1]), np.array([-1.0]))

    def test_no_arcs(self):
        net = Dinic(2, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
        assert net.max_flow(0, 1) == 0.0
        assert net.side_reaching_sink(1).tolist() == [False, True]


def reference_network(n, tail, head, capacity):
    """The CSR arrays built with int64 temporaries throughout, one step per array."""
    m = len(capacity)
    src = np.empty(2 * m, dtype=np.min_scalar_type(n))
    src[0::2] = tail
    src[1::2] = head
    order = np.argsort(src, kind="stable")
    partner = order ^ 1
    position = np.empty(2 * m, dtype=np.int64)
    position[order] = np.arange(2 * m)
    residual = np.zeros(2 * m, dtype=np.float64)
    residual[0::2] = capacity
    start = np.searchsorted(src[order], np.arange(n + 1))
    return {"start": start, "degree": np.diff(start), "to": src[partner].astype(np.int64),
            "rev": position[partner], "cap": residual[order]}


def random_network(rng, n, m):
    tail = rng.integers(0, n, size=m)
    head = (tail + rng.integers(1, n, size=m)) % n  # no self-loops
    capacity = rng.choice([0.0, 0.5, 1.0, 2.5], size=m) * rng.random(m).round(2)
    return tail, head, capacity


class TestConstruction:
    """The constructor frees its temporaries early but builds the same network."""

    @pytest.mark.parametrize("n, m", [(2, 0), (9, 40), (200, 3_000), (255, 600),
                                      (256, 600), (700, 5_000)])
    def test_matches_the_reference_build(self, n, m):
        rng = np.random.default_rng(n + m)
        tail, head, capacity = random_network(rng, n, m)
        assert (capacity == 0.0).any() or m == 0
        net = Dinic(n, tail, head, capacity)
        expected = reference_network(n, tail, head, capacity)
        for name, array in expected.items():
            got = getattr(net, name)
            assert got.dtype == array.dtype, name
            assert got.tobytes() == array.tobytes(), name
        reference = object.__new__(Dinic)
        vars(reference).update(expected)
        s, t = 0, n - 1
        assert net.max_flow(s, t) == reference.max_flow(s, t)
        assert net.cap.tobytes() == reference.cap.tobytes()
        assert np.array_equal(net.side_reaching_sink(t), reference.side_reaching_sink(t))

    @pytest.mark.parametrize("n, key", [(255, np.uint8), (256, np.uint16)])
    def test_narrow_endpoints_give_the_network_of_wide_ones(self, n, key):
        tail, head, capacity = random_network(np.random.default_rng(n), n, 900)
        assert np.min_scalar_type(n) == key
        narrow = Dinic(n, tail.astype(key), head.astype(key), capacity)
        wide = Dinic(n, tail, head, capacity)
        for name in ("start", "degree", "to", "rev", "cap"):
            assert getattr(narrow, name).tobytes() == getattr(wide, name).tobytes(), name
