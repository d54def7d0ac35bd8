"""Desk-scale synthetic benchmark shared by the acceptance suite and scripts.

One benchmark instance is a 10-class / 30-records-per-class training set with
10% planted outliers, carved out of a slightly larger mother set so that a
held-out inlier evaluation split (and its frozen verification pair set) comes
from the same class geometry and degradation projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import StudentSet, SynthConfig, subset_classes, subset_records, synthesize
from .distiller import TrainConfig, finetune, pretrain_student, transfer_student
from .evaluate import evaluate_identification, evaluate_verification, make_verification_pairs
from .metric import class_centroids
from .mincut import minimize
from .selgraph import SelectionMask, build_selection_graph
from .student import StudentArch, StudentModel, init_student

__all__ = [
    "Benchmark",
    "TransferBenchmark",
    "make_benchmark",
    "make_transfer_benchmark",
    "default_arch_for",
    "select_informative",
    "pretrain_variant",
    "train_variant",
    "supervision_comparison",
    "transfer_comparison",
    "SELECT_LAMBDA",
]

# Teacher feature dim, student input dim, degraded versions per record.
BENCH_D = 128
BENCH_D_IN = 8
BENCH_N = 4
BENCH_NOISE = 0.005
# Mother set: 40 records/class at 7.5% outliers = 3 outliers + 37 inliers;
# the training split keeps 27 inliers + the 3 outliers (30 records, 10%).
MOTHER_PER_CLASS = 40
MOTHER_OUTLIER_FRACTION = 0.075
TRAIN_INLIERS_PER_CLASS = 27

# Lambda used for "selective" supervision; sits on the default pow2 grid.
SELECT_LAMBDA = -1.0

# Fine-tuning runs close to convergence: the wrong-target penalty of direct
# distillation only materializes once the regression term is well fit.
PRETRAIN_EPOCHS = 40
FINETUNE_EPOCHS = 400
LEARNING_RATE = 1e-3
BATCH_SIZE = 32


@dataclass
class Benchmark:
    train_set: StudentSet    # C=10, 30/class, 10% planted outliers
    eval_set: StudentSet     # held-out inliers of the same classes
    eval_pairs: list         # frozen verification pairs from eval_set
    seed: int


@dataclass
class TransferBenchmark:
    source_set: StudentSet   # 10 classes for source training
    target_train: StudentSet  # 20 held-out classes, training split
    target_eval: StudentSet   # same 20 classes, evaluation split
    seed: int


def make_benchmark(seed: int) -> Benchmark:
    mother = synthesize(
        SynthConfig(
            C=10,
            per_class_count=MOTHER_PER_CLASS,
            D=BENCH_D,
            d_in=BENCH_D_IN,
            N=BENCH_N,
            noise_scale=BENCH_NOISE,
            outlier_fraction=MOTHER_OUTLIER_FRACTION,
            seed=seed,
        )
    )
    train_ids: list[int] = []
    eval_ids: list[int] = []
    for c in range(1, mother.C + 1):
        members = mother.class_members(c)
        # An unknown flag (-1) counts as an inlier.
        inliers = [i for i in members if mother.outlier[i] != 1]
        outliers = [i for i in members if mother.outlier[i] == 1]
        train_ids += inliers[:TRAIN_INLIERS_PER_CLASS] + outliers
        eval_ids += inliers[TRAIN_INLIERS_PER_CLASS:]
    train_set = subset_records(mother, train_ids)
    eval_set = subset_records(mother, eval_ids)
    pairs = make_verification_pairs(eval_set, n_pos=300, n_neg=300, seed=seed + 101)
    return Benchmark(train_set=train_set, eval_set=eval_set, eval_pairs=pairs, seed=seed)


def default_arch_for(sset: StudentSet, identity_dim: int = 128) -> StudentArch:
    return StudentArch(
        input_dim=sset.d_in,
        mimic_dim=sset.D,
        class_count=sset.C,
        trunk=(64, 64),
        identity_dim=identity_dim,
    )


def select_informative(sset: StudentSet, lam: float = SELECT_LAMBDA) -> SelectionMask:
    graph = build_selection_graph(sset, class_centroids(sset))
    mask, _ = minimize(graph, lam)
    return mask


def pretrain_variant(bench: Benchmark, seed: int) -> StudentModel:
    """Classification pretraining shared by every supervision variant."""
    model = init_student(default_arch_for(bench.train_set), seed)
    pre_cfg = TrainConfig(
        supervision="c", learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        epochs=PRETRAIN_EPOCHS, seed=seed,
    )
    return pretrain_student(model, bench.train_set, pre_cfg)


def train_variant(
    bench: Benchmark,
    pretrained: StudentModel,
    supervision: str,
    seed: int,
    mask: SelectionMask,
) -> tuple[StudentModel, float]:
    """Finetune ``pretrain_variant(bench, seed)``'s model under one supervision
    variant; returns (model, AUC)."""
    fine_cfg = TrainConfig(
        supervision=supervision, learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        epochs=FINETUNE_EPOCHS, seed=seed + 1,
    )
    model = finetune(pretrained, bench.train_set, mask, fine_cfg)
    auc = evaluate_verification(model, bench.eval_pairs, tap="mimic")
    return model, auc


def supervision_comparison(seeds: list[int], modes: tuple[str, ...] = ("c", "sc", "dc")):
    """Verification AUC per supervision mode over benchmark seeds."""
    results: dict[str, list[float]] = {m: [] for m in modes}
    for seed in seeds:
        bench = make_benchmark(seed)
        mask = select_informative(bench.train_set)
        pretrained = pretrain_variant(bench, seed + 7)
        for mode in modes:
            _, auc = train_variant(bench, pretrained, mode, seed + 7, mask)
            results[mode].append(auc)
    return results


# Transfer study: a 30-class source gives the frozen trunk broad input-space
# coverage; the 20 held-out classes get a small training split so the
# reinitialized head competes against a data-starved from-scratch model.
TRANSFER_SOURCE_CLASSES = 30
TRANSFER_TARGET_CLASSES = 20
TRANSFER_PER_CLASS = 20
TRANSFER_TARGET_TRAIN_PER_CLASS = 6
TRANSFER_SOURCE_FINETUNE_EPOCHS = 150
TRANSFER_TARGET_EPOCHS = 40


def make_transfer_benchmark(seed: int) -> TransferBenchmark:
    mother = synthesize(
        SynthConfig(
            C=TRANSFER_SOURCE_CLASSES + TRANSFER_TARGET_CLASSES,
            per_class_count=TRANSFER_PER_CLASS,
            D=BENCH_D,
            d_in=BENCH_D_IN,
            N=BENCH_N,
            noise_scale=BENCH_NOISE,
            outlier_fraction=0.0,
            seed=seed,
        )
    )
    source = subset_classes(mother, list(range(1, TRANSFER_SOURCE_CLASSES + 1)))
    target = subset_classes(
        mother,
        list(range(TRANSFER_SOURCE_CLASSES + 1,
                   TRANSFER_SOURCE_CLASSES + TRANSFER_TARGET_CLASSES + 1)),
    )
    train_ids: list[int] = []
    eval_ids: list[int] = []
    for c in range(1, target.C + 1):
        members = target.class_members(c)
        train_ids += members[:TRANSFER_TARGET_TRAIN_PER_CLASS]
        eval_ids += members[TRANSFER_TARGET_TRAIN_PER_CLASS:]
    return TransferBenchmark(
        source_set=source,
        target_train=subset_records(target, train_ids),
        target_eval=subset_records(target, eval_ids),
        seed=seed,
    )


def transfer_comparison(seed: int) -> tuple[float, float]:
    """Top-1 error on held-out classes: (transferred, from scratch)."""
    tb = make_transfer_benchmark(seed)
    arch = default_arch_for(tb.source_set)
    source = init_student(arch, seed)
    source = pretrain_student(
        source, tb.source_set,
        TrainConfig(supervision="c", learning_rate=LEARNING_RATE,
                    batch_size=BATCH_SIZE, epochs=PRETRAIN_EPOCHS, seed=seed),
    )
    mask = select_informative(tb.source_set)
    source = finetune(
        source, tb.source_set, mask,
        TrainConfig(supervision="sc", learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
                    epochs=TRANSFER_SOURCE_FINETUNE_EPOCHS, seed=seed + 1),
    )

    target_cfg = TrainConfig(
        supervision="c", learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        epochs=TRANSFER_TARGET_EPOCHS, seed=seed + 2,
    )
    transferred = transfer_student(source, new_class_count=tb.target_train.C, seed=seed + 3)
    transferred = finetune(transferred, tb.target_train, None, target_cfg)

    scratch = init_student(default_arch_for(tb.target_train), seed + 4)
    scratch = finetune(scratch, tb.target_train, None, target_cfg)

    t_err, _ = evaluate_identification(transferred, tb.target_eval)
    s_err, _ = evaluate_identification(scratch, tb.target_eval)
    return t_err, s_err
