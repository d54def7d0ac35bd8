"""Losses and training: one entry for both training stages, transfer, grad check.

The joint objective sums a softmax cross-entropy classification term over all
records and a squared-Euclidean feature-regression term that pulls the mimic
tap toward the teacher feature for selected records only:

    L = sum_i sum_j ce(logits(x_ij), l_i)
      + sum_i alpha_i sum_j reg_scale * || mimic(x_ij) - f_i ||^2

Supervision signals: "c" classification only, "s" regression only, "sc" both
with the selection mask, "dc" both with every record selected. Both terms
carry unit weight by default (``reg_scale`` exists as an override). The
paper's two stages are two ``finetune`` calls: classification pretraining is
supervision "c", the joint fine-tune is "sc".

Training is plain mini-batch SGD with a seed-derived shuffle; everything here
is deterministic given (config, seed, data).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import StudentSet
from .metric import unit_rows
from .selgraph import SelectionMask
from .student import StudentModel, activation_derivative, forward_trace, init_layers

__all__ = [
    "SUPERVISION_MODES",
    "TrainConfig",
    "TrainingDiverged",
    "total_loss",
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
        if self.normalize_targets and self.supervision == "c":
            raise ValueError("normalize_targets needs a regression term; supervision 'c' has none")


def _full_set(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    supervision: str,
    normalize_targets: bool = False,
    need_classes: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool, bool]:
    """Every (record, version) sample as a row, for one supervision signal.

    Returns ``(X, y, F, alpha_rows, use_cls, use_reg)``: inputs, labels 1..C,
    teacher targets, each row's regression weight, and which terms the signal
    trains. Each record's N rows are contiguous, in record order. The signal,
    the mask and the model are checked against the set first; with
    ``need_classes`` off, a model with fewer classes than the set passes when
    the signal has no classification term.
    """
    if supervision not in SUPERVISION_MODES:
        raise ValueError(
            f"unknown supervision {supervision!r}; expected one of {SUPERVISION_MODES}"
        )
    use_cls = supervision != "s"
    use_reg = supervision != "c"
    n_records = len(sset)
    if supervision == "c":
        alpha = np.zeros(n_records)
    elif supervision == "dc":
        alpha = np.ones(n_records)
    elif mask is None:
        raise ValueError(f"supervision {supervision!r} requires a selection mask")
    elif len(mask) != n_records:
        raise ValueError(f"mask length {len(mask)} != {n_records} records")
    else:
        alpha = mask.alpha.astype(np.float64)

    model.require_input_dim(sset.d_in)
    if model.arch.mimic_dim != sset.D:
        raise ValueError(
            f"model mimic dim {model.arch.mimic_dim} != teacher feature dim {sset.D}"
        )
    if (need_classes or use_cls) and model.arch.class_count < sset.C:
        raise ValueError(
            f"model has {model.arch.class_count} classes, set labels reach {sset.C}"
        )

    X = sset.inputs.reshape(-1, sset.d_in)
    y = np.repeat(sset.labels, sset.N)
    F = np.repeat(unit_rows(sset.features) if normalize_targets else sset.features,
                  sset.N, axis=0)
    return X, y, F, np.repeat(alpha, sset.N), use_cls, use_reg


def _objective(
    model: StudentModel,
    acts: list[np.ndarray],
    y: np.ndarray,
    F: np.ndarray | None,
    alpha_rows: np.ndarray | None,
    reg_scale: float,
    use_cls: bool = True,
    use_reg: bool = True,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(cls, reg, e, s, wdiff) of one forward trace.

    ``e`` holds the exponentials of the max-shifted logits and ``s`` their row
    sums, so the softmax is ``e / s``; ``wdiff`` is the alpha-weighted mimic
    residual. The gradient reuses them. A term that is switched off is 0.0
    and, without ``work``, its temporaries are None.

    ``work``, when given, is an ``(e, s, wdiff)`` triple of arrays that those
    temporaries are written into, and the logits and mimic arrays of ``acts``
    are overwritten with the shifted logits and the residual. The log pass
    passes its own buffers; the values are the same either way.
    """
    cls = reg = 0.0
    e, s, wdiff = (None, None, None) if work is None else work
    if use_cls:
        logits = acts[-1]
        shifted = np.subtract(logits, logits.max(axis=1, keepdims=True, out=s),
                              out=None if work is None else logits)
        e = np.exp(shifted, out=e)
        s = e.sum(axis=1, keepdims=True, out=s)
        rows = np.arange(len(y))
        cls = float(-(shifted[rows, y - 1] - np.log(s)[:, 0]).sum())
    if use_reg:
        mimic = acts[model.mimic_index + 1]
        diff = np.subtract(mimic, F, out=None if work is None else mimic)
        wdiff = np.multiply(diff, alpha_rows[:, None], out=wdiff)
        reg = float(reg_scale * np.einsum("ij,ij->", wdiff, diff))
    return cls, reg, e, s, wdiff


def _loss_and_grads(
    model: StudentModel,
    X: np.ndarray,
    y: np.ndarray,
    F: np.ndarray | None,
    alpha_rows: np.ndarray | None,
    use_cls: bool,
    use_reg: bool,
    reg_scale: float,
) -> tuple[float, float, list[tuple[np.ndarray, np.ndarray]]]:
    """Sum losses and parameter gradients over one batch of samples.

    ``F`` and ``alpha_rows`` are read only when ``use_reg`` is set. Only
    trainable layers get gradients (None for the others), and the backward
    pass stops at the lowest trainable layer.
    """
    acts = forward_trace(model, X)
    cls, reg, e, s, wdiff = _objective(
        model, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg
    )
    n_layers = len(model.layers)

    if use_cls:
        delta = np.divide(e, s, out=e)  # softmax
        delta[np.arange(len(y)), y - 1] -= 1.0
    else:
        delta = np.zeros_like(acts[-1])
    if use_reg:
        wdiff *= 2.0 * reg_scale  # d reg / d mimic

    lowest = next((l for l, layer in enumerate(model.layers) if layer.trainable), n_layers)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * n_layers  # type: ignore[list-item]
    for l in range(n_layers - 1, lowest - 1, -1):
        if l == model.mimic_index and use_reg:
            delta += wdiff
        layer = model.layers[l]
        dpre = activation_derivative(layer.activation, acts[l + 1], delta)
        if layer.trainable:
            grads[l] = (dpre.T @ acts[l], dpre.sum(axis=0))
        if l > lowest:
            delta = dpre @ layer.W
    return cls, reg, grads


def total_loss(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    supervision: str,
    reg_scale: float = 1.0,
    normalize_targets: bool = False,
) -> float:
    """Supervised objective value over the whole set for one c/s/sc/dc signal.

    "c" is the softmax cross-entropy summed over every record and degraded
    version; "s" is the squared mimic-to-teacher error summed over the
    selected records only.
    """
    X, y, F, alpha_rows, use_cls, use_reg = _full_set(
        model, sset, mask, supervision, normalize_targets, need_classes=False
    )
    acts = forward_trace(model, X)
    cls, reg = _objective(model, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg)[:2]
    return cls + reg


def _sgd_step(model: StudentModel, grads, lr: float) -> None:
    for layer, grad in zip(model.layers, grads):
        if layer.trainable:
            dW, db = grad
            dW *= lr
            layer.W -= dW
            db *= lr
            layer.b -= db


def _diverged(epoch: int) -> TrainingDiverged:
    return TrainingDiverged(
        f"non-finite loss at epoch {epoch} (learning rate too high for this data?)"
    )


def _log_buffers(
    model: StudentModel, rows: int
) -> tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Work arrays of the log pass over ``rows`` rows: ``(out, work)``.

    ``out`` takes each layer's output for ``forward_trace``: the head writes
    the logits buffer, and the other layers alternate between two buffers of
    rows x the widest of them, so each writes the one that does not hold its
    input. The mimic output and the logits are still whole when the forward
    ends. ``work`` is ``_objective``'s ``(e, s, wdiff)``; ``wdiff`` lies in the
    identity layer's buffer, which is dead by then.
    """
    hidden = [layer.W.shape[0] for layer in model.layers[:-1]]
    pair = [np.empty(rows * max(hidden)) for _ in range(2)]
    logits = np.empty((rows, model.arch.class_count))
    out = [pair[k % 2][: rows * width].reshape(rows, width) for k, width in enumerate(hidden)]
    out.append(logits)
    D = model.arch.mimic_dim
    wdiff = pair[model.identity_index % 2][: rows * D].reshape(rows, D)
    return out, (np.empty_like(logits), np.empty((rows, 1)), wdiff)


def _log_pass(
    model: StudentModel,
    X: np.ndarray,
    y: np.ndarray,
    F: np.ndarray,
    alpha_rows: np.ndarray,
    reg_scale: float,
    use_cls: bool,
    use_reg: bool,
    buffers: tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[float, float]:
    """Full-set ``(cls, reg)`` at ``model``'s parameters, for the epoch log.

    ``buffers`` comes from ``_log_buffers`` and is overwritten. A term that
    is switched off is 0.0.
    """
    out, work = buffers
    # overflow surfaces as a non-finite total
    with np.errstate(over="ignore", invalid="ignore"):
        acts = forward_trace(model, X, out)
        return _objective(model, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg, work)[:2]


def _train(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    config: TrainConfig,
    metrics_path: str | Path | None,
) -> StudentModel:
    X, y, F, alpha_rows, use_cls, use_reg = _full_set(
        model, sset, mask, config.supervision, config.normalize_targets
    )
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    n = len(sset)
    versions = np.arange(sset.N)
    buffers = _log_buffers(model, len(X))
    handle = open(metrics_path, "w", encoding="ascii") if metrics_path is not None else None
    # A metrics line holds both terms; the final check needs the trained ones only.
    terms = (True, True) if handle is not None else (use_cls, use_reg)
    with handle or nullcontext():
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
                        F[rows] if use_reg else None,
                        alpha_rows[rows] if use_reg else None,
                        use_cls,
                        use_reg,
                        config.reg_scale,
                    )
                if not np.isfinite(cls + reg):
                    raise _diverged(epoch)
                _sgd_step(model, grads, config.learning_rate)
            if handle is None and epoch < config.epochs:
                continue  # no metrics file: only the last epoch's log runs, to check divergence
            # Epoch log: full-set component values at this epoch's parameters.
            cls, reg = _log_pass(model, X, y, F, alpha_rows, config.reg_scale, *terms, buffers)
            # an untrained term is logged but not summed, so its inf is no divergence
            total = (cls if use_cls else 0.0) + (reg if use_reg else 0.0)
            if not np.isfinite(total):
                raise _diverged(epoch)
            if handle is not None:
                handle.write(
                    json.dumps({"epoch": epoch, "cls": cls, "reg": reg, "total": total}) + "\n"
                )
    return model


def finetune(
    model: StudentModel,
    sset: StudentSet,
    mask: SelectionMask | None,
    config: TrainConfig,
    metrics_path: str | Path | None = None,
) -> StudentModel:
    """Train under ``config.supervision``; returns a new model.

    Supervision "c" is the classification-only pretraining stage, "sc" the
    joint fine-tune. ``mask`` is required for "s" and "sc", ignored for "c"
    and "dc".
    """
    return _train(model, sset, mask, config, metrics_path)


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
    new_arch = replace(model.arch, class_count=new_class_count)
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
    if model.parameter_count() > 10_000:
        raise ValueError("gradient_check is for small models (<= 10^4 parameters)")
    X, y, F, alpha_rows, use_cls, use_reg = _full_set(model, sset, mask, supervision)

    def loss_and_pattern(m: StudentModel) -> tuple[float, tuple]:
        acts = forward_trace(m, X)
        pattern = tuple(
            (acts[k + 1] > 0.0).tobytes()
            for k, layer in enumerate(m.layers)
            if layer.activation == "relu"
        )
        cls, reg = _objective(m, acts, y, F, alpha_rows, reg_scale, use_cls, use_reg)[:2]
        return cls + reg, pattern

    work = model.copy()
    for layer in work.layers:  # the check covers frozen parameters too
        layer.trainable = True
    _, _, grads = _loss_and_grads(work, X, y, F, alpha_rows, use_cls, use_reg, reg_scale)

    coords = []
    for li, layer in enumerate(model.layers):
        coords.extend((li, "W", k) for k in range(layer.W.size))
        coords.extend((li, "b", k) for k in range(layer.b.size))
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(coords))

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
