"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The heavy criteria (6 and 7) train many student models and take a few minutes
combined; everything else is seconds.
"""

import hashlib
import time

import numpy as np
import pytest

from skd.benchmark import (
    SELECT_LAMBDA,
    make_benchmark,
    supervision_comparison,
    transfer_comparison,
)
from skd.cli import main
from skd.dataset import StudentSet, SynthConfig, load_student_set, synthesize
from skd.distiller import TrainConfig, finetune, gradient_check, pretrain_student, transfer_student
from skd.metric import class_centroids, pairwise_measure
from skd.mincut import brute_force_minimize, default_lambda_grid, lambda_sweep, load_mask, minimize
from skd.selgraph import SelectionMask, build_selection_graph
from skd.student import StudentArch, init_student, load_checkpoint

from test_selgraph import random_graph


def report(n, name, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {n} ({name}): PASS{suffix}")


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    t0 = time.monotonic()
    for trial in range(220):
        g = random_graph(rng, max_classes=4, max_faces=8)
        lam = float(rng.choice([0.0, -1.0, -0.5, -rng.uniform(0, 4.0)]))
        m1, e1 = minimize(g, lam)
        m2, e2 = brute_force_minimize(g, lam)
        assert abs(e1 - e2) <= 1e-9, f"trial {trial}: energies {e1} vs {e2}"
        assert np.array_equal(m1.alpha, m2.alpha), f"trial {trial}: mask mismatch"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, "oracle equivalence", f"220 instances, {elapsed:.1f}s")


def test_criterion_2_parametric_monotonicity():
    rng = np.random.default_rng(7)
    graphs = [random_graph(rng) for _ in range(15)]
    bench = make_benchmark(seed=1)
    graphs.append(build_selection_graph(bench.train_set, class_centroids(bench.train_set)))
    for g in graphs:
        result = lambda_sweep(g, default_lambda_grid())
        rewards = [e.pairwise_reward for e in result.entries]
        energies = [e.optimal_energy for e in result.entries]
        assert all(a >= b for a, b in zip(rewards, rewards[1:]))
        assert all(a <= b for a, b in zip(energies, energies[1:]))
        assert all(e <= 0.0 for e in energies)
        if np.all(g.unary > 0.0):
            assert result.entries[-1].lam == 0.0
            assert result.entries[-1].selected_count == 0
    report(2, "parametric monotonicity", f"{len(graphs)} sweeps on the pow2 grid")


def test_criterion_3_graph_structure():
    rng = np.random.default_rng(17)
    for _ in range(25):
        C = int(rng.integers(1, 7))
        sizes = [int(rng.integers(1, 9)) for _ in range(C)]
        labels = np.repeat(np.arange(1, C + 1), sizes)
        features = [rng.uniform(0.05, 1.0, 6) for _ in labels]
        sset = StudentSet(labels, features, np.zeros((len(labels), 1, 2)), C=C)
        g = build_selection_graph(sset, class_centroids(sset))
        assert g.node_count == sum(sizes) + C
        assert g.intra_edge_count == sum(k * (k - 1) // 2 for k in sizes)
        assert g.folded_connection_count == sum(k * (C - 1) for k in sizes)
    report(3, "graph structure counts", "25 randomized shapes, exact")


def test_criterion_4_planted_outlier_discarding():
    t0 = time.monotonic()
    bench = make_benchmark(seed=1)
    train = bench.train_set
    assert train.C == 10 and len(train) == 300
    flags = train.outlier == 1
    assert flags.sum() == 30  # 10% planted
    g = build_selection_graph(train, class_centroids(train))
    best = None
    for lam in default_lambda_grid():
        mask, _ = minimize(g, lam)
        sel = mask.alpha.astype(bool)
        discarded = float((~sel & flags).sum() / flags.sum())
        retained = float((sel & ~flags).sum() / (~flags).sum())
        if discarded >= 0.8 and retained >= 0.8:
            best = (lam, discarded, retained)
    elapsed = time.monotonic() - t0
    assert best is not None, "no lambda on the default grid separates outliers"
    assert elapsed < 10.0
    report(4, "planted-outlier discarding",
           f"lambda={best[0]} discards {best[1]:.0%}, retains {best[2]:.0%}, {elapsed:.1f}s")


def test_criterion_5_gradient_correctness():
    sset = synthesize(SynthConfig(C=3, per_class_count=3, D=5, d_in=3, N=2,
                                  noise_scale=0.1, outlier_fraction=0.0, seed=31))
    arch = StudentArch(input_dim=3, mimic_dim=5, class_count=3, trunk=(6,), identity_dim=5)
    model = init_student(arch, seed=31)
    mask = SelectionMask(np.array([1, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.int8))
    worst = {}
    for mode in ("c", "s", "sc", "dc"):
        err = gradient_check(model, sset, mask, mode, epsilon=1e-5, max_coords=80, seed=5)
        assert err < 1e-4, f"mode {mode}: max relative error {err}"
        worst[mode] = err
    report(5, "gradient correctness",
           " ".join(f"{m}={e:.2e}" for m, e in worst.items()))


def test_criterion_6_distillation_benefit():
    t0 = time.monotonic()
    seeds = [1, 2, 3, 4, 5]
    results = supervision_comparison(seeds, modes=("c", "sc", "dc"))
    elapsed = time.monotonic() - t0
    mean = {m: float(np.mean(v)) for m, v in results.items()}
    assert mean["sc"] >= mean["c"] + 0.02, f"sc={mean['sc']:.4f} c={mean['c']:.4f}"
    assert mean["sc"] >= mean["dc"], f"sc={mean['sc']:.4f} dc={mean['dc']:.4f}"
    assert elapsed < 300.0
    report(6, "distillation benefit",
           f"AUC c={mean['c']:.4f} sc={mean['sc']:.4f} dc={mean['dc']:.4f}, {elapsed:.0f}s")


def test_criterion_7_transfer_contract():
    # freeze contract on a small model
    sset = synthesize(SynthConfig(C=3, per_class_count=5, D=6, d_in=3, N=2,
                                  noise_scale=0.1, seed=41))
    arch = StudentArch(input_dim=3, mimic_dim=6, class_count=3, trunk=(5,), identity_dim=4)
    model = init_student(arch, seed=41)
    cfg = TrainConfig(supervision="c", learning_rate=1e-3, epochs=5, seed=1)
    model = pretrain_student(model, sset, cfg)
    moved = transfer_student(model, new_class_count=3)
    frozen = moved.frozen_parameter_bytes()
    trained = finetune(moved, sset, None, cfg)
    assert trained.frozen_parameter_bytes() == frozen

    # transferred vs from-scratch top-1 error on 20 held-out classes
    t_errs, s_errs = [], []
    for seed in (11, 12, 13):
        te, se = transfer_comparison(seed)
        t_errs.append(te)
        s_errs.append(se)
    assert np.mean(t_errs) <= np.mean(s_errs), (t_errs, s_errs)
    report(7, "transfer contract",
           f"top1 transferred={np.mean(t_errs):.3f} scratch={np.mean(s_errs):.3f} over 3 seeds")


def test_criterion_8_metric_exactness():
    rng = np.random.default_rng(53)
    # centroid exactness vs compensated-summation oracle
    import math
    feats = [[rng.uniform(0.0, 1.0, 12) for _ in range(40)] for _ in range(4)]
    sset = StudentSet(np.repeat(np.arange(1, 5), 40), np.concatenate(feats),
                      np.zeros((160, 1, 1)), C=4)
    table = class_centroids(sset)
    for c in range(4):
        oracle = np.array([math.fsum(f[d] for f in feats[c]) / 40 for d in range(12)])
        rel = np.abs(table.centroids[c] - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() < 1e-12

    # symmetry and positive-scale invariance over 10^4 random trials
    for _ in range(10_000):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            continue
        k = float(rng.uniform(1e-3, 1e3))
        mode = "cossim" if rng.random() < 0.5 else "cosdist"
        s = pairwise_measure(a, b, mode)
        assert abs(s - pairwise_measure(b, a, mode)) < 1e-12
        assert abs(s - pairwise_measure(k * a, b, mode)) < 1e-12
    report(8, "metric/centroid exactness", "1e-12 over 10^4 trials")


def test_criterion_9_determinism_and_roundtrip(tmp_path):
    def pipeline(tag):
        d = tmp_path / tag
        d.mkdir()
        sset, mask, pre, fin = d / "s.skd", d / "m.mask", d / "pre.ckpt", d / "fin.ckpt"
        assert main(["synth", "--classes", "4", "--per-class", "8", "--teacher-dim", "16",
                     "--input-dim", "4", "--versions", "2", "--noise", "0.05",
                     "--outlier-fraction", "0.125", "--seed", "9", "--out", str(sset)]) == 0
        assert main(["select", "--set", str(sset), "--lambda", str(SELECT_LAMBDA),
                     "--out", str(mask)]) == 0
        assert main(["pretrain", "--set", str(sset), "--epochs", "5", "--lr", "1e-3",
                     "--seed", "9", "--hidden", "8,8", "--identity-dim", "8",
                     "--out", str(pre)]) == 0
        assert main(["finetune", "--set", str(sset), "--ckpt", str(pre), "--mask", str(mask),
                     "--supervision", "sc", "--epochs", "5", "--lr", "1e-3", "--seed", "9",
                     "--out", str(fin)]) == 0
        return d

    d1, d2 = pipeline("a"), pipeline("b")
    artifacts = ["s.skd", "m.mask", "pre.ckpt", "fin.ckpt",
                 "pre.ckpt.metrics.jsonl", "fin.ckpt.metrics.jsonl"]
    for name in artifacts:
        h1 = hashlib.sha256((d1 / name).read_bytes()).hexdigest()
        h2 = hashlib.sha256((d2 / name).read_bytes()).hexdigest()
        assert h1 == h2, f"{name} differs between identical runs"

    # exact file-format round-trips
    s = load_student_set(d1 / "s.skd")
    from skd.dataset import save_student_set
    save_student_set(s, d1 / "s2.skd")
    assert (d1 / "s.skd").read_bytes() == (d1 / "s2.skd").read_bytes()
    mask, lam = load_mask(d1 / "m.mask")
    from skd.mincut import save_mask
    save_mask(d1 / "m2.mask", mask, lam)
    assert (d1 / "m.mask").read_bytes() == (d1 / "m2.mask").read_bytes()
    model = load_checkpoint(d1 / "fin.ckpt")
    from skd.student import save_checkpoint
    save_checkpoint(model, d1 / "fin2.ckpt")
    assert (d1 / "fin.ckpt").read_bytes() == (d1 / "fin2.ckpt").read_bytes()
    report(9, "determinism & round-trip", f"{len(artifacts)} artifacts byte-identical")
