"""Losses and training: pretraining, joint fine-tuning, transfer, grad check.

The joint objective sums a softmax cross-entropy classification term over all
records and a squared-Euclidean feature-regression term that pulls the mimic
tap toward the teacher feature for selected records only:

    L = sum_i sum_j ce(logits(x_ij), l_i)
      + sum_i alpha_i sum_j reg_scale * || mimic(x_ij) - f_i ||^2

Supervision signals: "c" classification only, "s" regression only, "sc" both
with the selection mask, "dc" both with every record selected. Both terms
carry unit weight by default (``reg_scale`` exists as an override).

Training is plain mini-batch SGD with a seed-derived shuffle; everything here
is deterministic given (config, seed, data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import StudentSet
from .selgraph import SelectionMask
from .student import (
    StudentArch,
    StudentModel,
    activation_derivative,
    forward_trace,
    init_layers,
)

__all__ = [
    "SUPERVISION_MODES",
    "TrainConfig",
    "TrainingDiverged",
    "classification_loss",
    "regression_loss",
    "total_loss",
    "pretrain_student",
    "finetune",
    "gradient_check",
    "transfer_student",
]

SUPERVISION_MODES = ("c", "s", "sc", "dc")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TrainConfig:
    """Hyperparameters for pretraining and fine-tuning."""

    supervision: str = "sc"
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    reg_scale: float = 1.0
    normalize_targets: bool = False

    def __post_init__(self):
        if self.supervision not in SUPERVISION_MODES:
            raise ValueError(
                f"unknown supervision {self.supervision!r}; expected one of {SUPERVISION_MODES}"
            )
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size >= 1 and epochs >= 0 required")
        if self.reg_scale < 0:
            raise ValueError("reg_scale must be nonnegative")


def _check_model_set(model: StudentModel, sset: StudentSet, need_classes: bool = True) -> None:
    if model.arch.input_dim != sset.d_in:
        raise ValueError(
            f"model input dim {model.arch.input_dim} != set input dim {sset.d_in}"
        )
    if model.arch.mimic_dim != sset.D:
        raise ValueError(
            f"model mimic dim {model.arch.mimic_dim} != teacher feature dim {sset.D}"
        )
    if need_classes and model.arch.class_count < sset.C:
        raise ValueError(
            f"model has {model.arch.class_count} classes, set labels reach {sset.C}"
        )


def _stack(
    sset: StudentSet, normalize_targets: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (record, version) samples as rows: inputs, labels 1..C, targets.

    Each record's N rows are contiguous, in record order.
    """
    X = sset.inputs.reshape(-1, sset.d_in)
    y = np.repeat(sset.labels, sset.N)
    F = np.repeat(sset.features, sset.N, axis=0)
    if normalize_targets:
        norms = np.linalg.norm(F, axis=1, keepdims=True)
        F = F / np.maximum(norms, 1e-300)
    return X, y, F


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _supervision_terms(
    mask: SelectionMask | None, supervision: str, n_records: int
) -> tuple[np.ndarray, bool, bool]:
    """Per-record regression weights and which terms the signal trains."""
    if supervision not in SUPERVISION_MODES:
        raise ValueError(
            f"unknown supervision {supervision!r}; expected one of {SUPERVISION_MODES}"
        )
    use_cls = supervision != "s"
    use_reg = supervision != "c"
    if supervision == "c":
        return np.zeros(n_records), use_cls, use_reg
    if supervision == "dc":
        return np.ones(n_records), use_cls, use_reg
    if mask is None:
        raise ValueError(f"supervision {supervision!r} requires a selection mask")
    if len(mask) != n_records:
        raise ValueError(f"mask length {len(mask)} != {n_records} records")
    return mask.alpha.astype(np.float64), use_cls, use_reg


def _objective(
    model: StudentModel,
    acts: list[np.ndarray],
    y: np.ndarray,
    F: np.ndarray,
    alpha_rows: np.ndarray,
    reg_scale: float,
    use_cls: bool = True,
    use_reg: bool = True,
) -> tuple[float, float]:
    """(cls, reg) of one forward trace; a term that is switched off is 0.0."""
    cls = reg = 0.0
    if use_cls:
        logp = _log_softmax(acts[-1])
        cls = float(-logp[np.arange(len(y)), y - 1].sum())
    if use_reg:
        diff = acts[model.mimic_index + 1] - F
        reg = float(reg_scale * np.einsum("ij,ij->", diff * alpha_rows[:, None], diff))
    return cls, reg


def _loss_and_grads(
    model: StudentModel,
    X: np.ndarray,
    y: np.ndarray,
    F: np.ndarray,
    alpha_rows: np.ndarray,
    use_cls: bool,
    use_reg: bool,
    reg_scale: float,
) -> tuple[float, float, list[tuple[np.ndarray, np.ndarray]]]:
    """Sum losses and parameter gradients over one batch of samples."""
    acts, pres = forward_trace(model, X)
    cls, reg = _objective(model, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg)
    logits = acts[-1]
    mimic = acts[model.mimic_index + 1]
    n_layers = len(model.layers)

    d_logits = np.zeros_like(logits)
    if use_cls:
        d_logits = _softmax(logits)
        d_logits[np.arange(len(y)), y - 1] -= 1.0
    d_mimic = np.zeros_like(mimic)
    if use_reg:
        d_mimic = 2.0 * reg_scale * ((mimic - F) * alpha_rows[:, None])

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * n_layers  # type: ignore[list-item]
    delta = d_logits
    for l in range(n_layers - 1, -1, -1):
        if l == model.mimic_index:
            delta = delta + d_mimic
        layer = model.layers[l]
        dpre = delta * activation_derivative(layer.activation, pres[l], acts[l + 1])
        grads[l] = (dpre.T @ acts[l], dpre.sum(axis=0))
        if l > 0:
            delta = dpre @ layer.W
    return cls, reg, grads


def _set_loss(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    supervision: str,
    reg_scale: float,
    normalize_targets: bool,
) -> tuple[float, float]:
    """(cls, reg) over the whole set; a term the signal does not train is 0.0."""
    alpha, use_cls, use_reg = _supervision_terms(mask, supervision, len(sset))
    _check_model_set(model, sset, need_classes=use_cls)
    X, y, F = _stack(sset, normalize_targets)
    acts, _ = forward_trace(model, X)
    alpha_rows = np.repeat(alpha, sset.N)
    return _objective(model, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg)


def classification_loss(model: StudentModel, sset: StudentSet) -> float:
    """Softmax cross-entropy summed over every record and degraded version."""
    return _set_loss(model, sset, None, "c", 1.0, False)[0]


def regression_loss(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask,
    reg_scale: float = 1.0,
    normalize_targets: bool = False,
) -> float:
    """Squared mimic-to-teacher error summed over selected records only."""
    return _set_loss(model, sset, mask, "s", reg_scale, normalize_targets)[1]


def total_loss(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    supervision: str,
    reg_scale: float = 1.0,
    normalize_targets: bool = False,
) -> float:
    """Supervised objective value for one of the c/s/sc/dc signals."""
    cls, reg = _set_loss(model, sset, mask, supervision, reg_scale, normalize_targets)
    return cls + reg


def _sgd_step(model: StudentModel, grads, lr: float) -> None:
    for layer, (dW, db) in zip(model.layers, grads):
        if layer.trainable:
            layer.W -= lr * dW
            layer.b -= lr * db


def _emit_metrics(handle, epoch: int, cls: float, reg: float, total: float) -> None:
    if handle is not None:
        handle.write(
            json.dumps({"epoch": epoch, "cls": cls, "reg": reg, "total": total}) + "\n"
        )


def _train(
    model: StudentModel,
    sset: StudentSet,
    alpha: np.ndarray,
    config: TrainConfig,
    use_cls: bool,
    use_reg: bool,
    metrics_path: str | Path | None,
) -> StudentModel:
    _check_model_set(model, sset)
    model = model.copy()
    X, y, F = _stack(sset, config.normalize_targets and use_reg)
    alpha_rows = np.repeat(alpha, sset.N)
    rng = np.random.default_rng(config.seed)
    n = len(sset)
    versions = np.arange(sset.N)

    handle = open(metrics_path, "w", encoding="ascii") if metrics_path is not None else None
    try:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                recs = order[start : start + config.batch_size]
                rows = (recs[:, None] * sset.N + versions).ravel()
                # overflow surfaces as a non-finite loss, handled below
                with np.errstate(over="ignore", invalid="ignore"):
                    cls, reg, grads = _loss_and_grads(
                        model,
                        X[rows],
                        y[rows],
                        F[rows],
                        alpha_rows[rows],
                        use_cls,
                        use_reg,
                        config.reg_scale,
                    )
                batch_loss = cls + reg
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} "
                        "(learning rate too high for this data?)"
                    )
                _sgd_step(model, grads, config.learning_rate)
            # Epoch log: full-set component values at the current parameters.
            with np.errstate(over="ignore", invalid="ignore"):
                acts, _ = forward_trace(model, X)
                cls_full, reg_full = _objective(model, acts, y, F, alpha_rows, config.reg_scale)
            total = cls_full * use_cls + reg_full * use_reg
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} (learning rate too high for this data?)"
                )
            _emit_metrics(handle, epoch, cls_full, reg_full, total)
    finally:
        if handle is not None:
            handle.close()
    return model


def pretrain_student(
    model: StudentModel,
    sset: StudentSet,
    config: TrainConfig,
    metrics_path: str | Path | None = None,
) -> StudentModel:
    """Classification-only initialization over all records; returns a new model."""
    if config.supervision != "c" or config.normalize_targets:
        raise ValueError("pretraining is classification-only: it needs supervision='c' "
                         "and normalize_targets=False")
    return _train(
        model, sset, np.zeros(len(sset)), config,
        use_cls=True, use_reg=False, metrics_path=metrics_path,
    )


def finetune(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    config: TrainConfig,
    metrics_path: str | Path | None = None,
) -> StudentModel:
    """Joint fine-tuning under ``config.supervision``; returns a new model.

    ``mask`` is required for "s" and "sc", ignored for "c" and "dc".
    """
    alpha, use_cls, use_reg = _supervision_terms(mask, config.supervision, len(sset))
    return _train(model, sset, alpha, config, use_cls, use_reg, metrics_path)


def transfer_student(
    model: StudentModel, new_class_count: int, seed: int | None = None
) -> StudentModel:
    """Freeze trunk and mimic layers; reinitialize identity layer and head.

    The returned model classifies ``new_class_count`` classes; subsequent
    training updates only the identity layer and the fresh head.
    """
    if new_class_count < 2:
        raise ValueError("new_class_count must be >= 2")
    seed = model.seed + 1 if seed is None else seed
    new_arch = StudentArch(
        input_dim=model.arch.input_dim,
        mimic_dim=model.arch.mimic_dim,
        class_count=new_class_count,
        trunk=model.arch.trunk,
        identity_dim=model.arch.identity_dim,
        hidden_activation=model.arch.hidden_activation,
        mimic_activation=model.arch.mimic_activation,
    )
    new_arch.validate()
    rng = np.random.default_rng(seed)
    fresh = {l.name: l for l in init_layers(new_arch, rng, names={"identity", "head"})}
    layers = []
    for layer in model.layers:
        if layer.name in fresh:
            layers.append(fresh[layer.name])
        else:
            frozen = layer.copy()
            frozen.trainable = False
            layers.append(frozen)
    return StudentModel(arch=new_arch, layers=layers, seed=seed)


def gradient_check(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    supervision: str,
    epsilon: float = 1e-5,
    max_coords: int = 60,
    seed: int = 0,
    reg_scale: float = 1.0,
) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Coordinates whose +/- epsilon perturbation flips a rectifier's active set
    are excluded: the loss has a kink inside the difference window there and
    central differences do not estimate the derivative. Relative error falls
    back to the absolute difference when both gradients are ~0.
    """
    alpha, use_cls, use_reg = _supervision_terms(mask, supervision, len(sset))
    if model.parameter_count() > 10_000:
        raise ValueError("gradient_check is for small models (<= 10^4 parameters)")
    _check_model_set(model, sset)
    X, y, F = _stack(sset)
    alpha_rows = np.repeat(alpha, sset.N)

    def loss_and_pattern(m: StudentModel) -> tuple[float, tuple]:
        acts, pres = forward_trace(m, X)
        pattern = tuple(
            (pres[k] > 0.0).tobytes()
            for k, layer in enumerate(m.layers)
            if layer.activation == "relu"
        )
        cls, reg = _objective(m, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg)
        return cls + reg, pattern

    _, _, grads = _loss_and_grads(model, X, y, F, alpha_rows, use_cls, use_reg, reg_scale)

    coords = []
    for li, layer in enumerate(model.layers):
        coords.extend((li, "W", k) for k in range(layer.W.size))
        coords.extend((li, "b", k) for k in range(layer.b.size))
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(coords))

    work = model.copy()
    max_err = 0.0
    checked = 0
    for p in picks:
        if checked >= max_coords:
            break
        li, kind, k = coords[p]
        param = work.layers[li].W if kind == "W" else work.layers[li].b
        flat = param.reshape(-1)
        base = flat[k]

        flat[k] = base + epsilon
        up, pat_up = loss_and_pattern(work)
        flat[k] = base - epsilon
        dn, pat_dn = loss_and_pattern(work)
        flat[k] = base
        if pat_up != pat_dn:
            continue  # kink inside the window
        numeric = (up - dn) / (2.0 * epsilon)
        g = grads[li][0] if kind == "W" else grads[li][1]
        analytic = float(g.reshape(-1)[k])
        denom = max(abs(analytic), abs(numeric))
        err = abs(analytic - numeric) if denom < 1e-12 else abs(analytic - numeric) / denom
        max_err = max(max_err, err)
        checked += 1
    if checked == 0:
        raise RuntimeError("no valid coordinates to check (all perturbations crossed kinks)")
    return max_err
