"""Desk-scale synthetic benchmark shared by the acceptance suite and scripts.

Every set, student and training run of its two studies comes from one of
``_mother``, ``_student`` and ``_train``, so the recipe is written once.

One benchmark instance is a 10-class / 30-records-per-class training set with
10% planted outliers, carved out of a slightly larger mother set so that a
held-out inlier evaluation split (and its frozen verification pair set) comes
from the same class geometry and degradation projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import StudentSet, SynthConfig, subset_classes, subset_records, synthesize
from .distiller import TrainConfig, finetune, transfer_student
from .evaluate import evaluate_identification, evaluate_verification, make_verification_pairs
from .metric import class_centroids
from .mincut import minimize
from .selgraph import SelectionMask, build_selection_graph
from .student import StudentArch, StudentModel, init_student

__all__ = [
    "Benchmark",
    "make_benchmark",
    "select_informative",
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


def _mother(C: int, per_class: int, outlier_fraction: float, seed: int) -> StudentSet:
    """A synthetic set of the benchmark's shape."""
    return synthesize(SynthConfig(
        C=C, per_class_count=per_class, D=BENCH_D, d_in=BENCH_D_IN, N=BENCH_N,
        noise_scale=BENCH_NOISE, outlier_fraction=outlier_fraction, seed=seed,
    ))


def _student(sset: StudentSet, seed: int) -> StudentModel:
    """A fresh default-architecture student sized to ``sset``."""
    arch = StudentArch(input_dim=sset.d_in, mimic_dim=sset.D, class_count=sset.C)
    return init_student(arch, seed)


def _train(model: StudentModel, sset: StudentSet, mask: SelectionMask | None,
           supervision: str, epochs: int, seed: int) -> StudentModel:
    """One training run at the benchmark's learning rate and batch size."""
    return finetune(model, sset, mask, TrainConfig(
        supervision=supervision, learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
        epochs=epochs, seed=seed,
    ))


@dataclass
class Benchmark:
    train_set: StudentSet    # C=10, 30/class, 10% planted outliers
    eval_pairs: tuple        # frozen verification pairs (A, B, same) from held-out inliers


def make_benchmark(seed: int) -> Benchmark:
    mother = _mother(10, MOTHER_PER_CLASS, MOTHER_OUTLIER_FRACTION, seed)
    train_ids, eval_ids = [], []
    for c in range(1, mother.C + 1):
        members = mother.class_members(c)
        # An unknown flag (-1) counts as an inlier.
        inliers = [i for i in members if mother.outlier[i] != 1]
        outliers = [i for i in members if mother.outlier[i] == 1]
        train_ids += inliers[:TRAIN_INLIERS_PER_CLASS] + outliers
        eval_ids += inliers[TRAIN_INLIERS_PER_CLASS:]
    train_set = subset_records(mother, train_ids)
    held_out = subset_records(mother, eval_ids)
    pairs = make_verification_pairs(held_out, n_pos=300, n_neg=300, seed=seed + 101)
    return Benchmark(train_set=train_set, eval_pairs=pairs)


def select_informative(sset: StudentSet) -> SelectionMask:
    """The selection mask of ``sset`` at ``SELECT_LAMBDA``."""
    mask, _ = minimize(build_selection_graph(sset, class_centroids(sset)), SELECT_LAMBDA)
    return mask


def supervision_comparison(seeds: list[int], modes: tuple[str, ...] = ("c", "sc", "dc")):
    """Verification AUC per supervision mode over benchmark seeds, every mode
    fine-tuning one student pretrained per seed."""
    results: dict[str, list[float]] = {m: [] for m in modes}
    for seed in seeds:
        bench = make_benchmark(seed)
        sset = bench.train_set
        mask = select_informative(sset)
        pretrained = _train(_student(sset, seed + 7), sset, None, "c", PRETRAIN_EPOCHS, seed + 7)
        for mode in modes:
            model = _train(pretrained, sset, mask, mode, FINETUNE_EPOCHS, seed + 8)
            results[mode].append(evaluate_verification(model, bench.eval_pairs, tap="mimic"))
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


def transfer_comparison(seed: int) -> tuple[float, float]:
    """Top-1 error on held-out classes: (transferred, from scratch)."""
    S, T = TRANSFER_SOURCE_CLASSES, TRANSFER_TARGET_CLASSES
    mother = _mother(S + T, TRANSFER_PER_CLASS, 0.0, seed)
    source_set = subset_classes(mother, list(range(1, S + 1)))
    target = subset_classes(mother, list(range(S + 1, S + T + 1)))
    train_ids, eval_ids = [], []
    for c in range(1, target.C + 1):
        members = target.class_members(c)
        train_ids += members[:TRANSFER_TARGET_TRAIN_PER_CLASS]
        eval_ids += members[TRANSFER_TARGET_TRAIN_PER_CLASS:]
    target_train = subset_records(target, train_ids)
    target_eval = subset_records(target, eval_ids)

    source = _train(_student(source_set, seed), source_set, None, "c", PRETRAIN_EPOCHS, seed)
    mask = select_informative(source_set)
    source = _train(source, source_set, mask, "sc", TRANSFER_SOURCE_FINETUNE_EPOCHS, seed + 1)
    transferred = transfer_student(source, new_class_count=target_train.C, seed=seed + 3)
    transferred = _train(transferred, target_train, None, "c", TRANSFER_TARGET_EPOCHS, seed + 2)
    scratch = _student(target_train, seed + 4)
    scratch = _train(scratch, target_train, None, "c", TRANSFER_TARGET_EPOCHS, seed + 2)
    t_err, _ = evaluate_identification(transferred, target_eval)
    s_err, _ = evaluate_identification(scratch, target_eval)
    return t_err, s_err
