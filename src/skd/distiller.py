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
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import StudentSet
from .selgraph import SelectionMask
from .student import (
    StudentModel,
    _forward_layers,
    activation_derivative,
    forward_trace,
    init_layers,
)

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
    F: np.ndarray | None,
    alpha_rows: np.ndarray | None,
    reg_scale: float,
    use_cls: bool = True,
    use_reg: bool = True,
) -> tuple[float, float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(cls, reg, e, s, wdiff) of one forward trace.

    ``e`` holds the exponentials of the max-shifted logits and ``s`` their row
    sums, so the softmax is ``e / s``; ``wdiff`` is the alpha-weighted mimic
    residual. The gradient reuses them. A term that is switched off is 0.0
    and its temporaries are None.
    """
    cls = reg = 0.0
    e = s = wdiff = None
    if use_cls:
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e.sum(axis=1, keepdims=True)
        rows = np.arange(len(y))
        cls = float(-(shifted[rows, y - 1] - np.log(s)[:, 0]).sum())
    if use_reg:
        diff = acts[model.mimic_index + 1] - F
        wdiff = diff * alpha_rows[:, None]
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
    alpha, use_cls, use_reg = _supervision_terms(mask, supervision, len(sset))
    _check_model_set(model, sset, need_classes=use_cls)
    X, y, F = _stack(sset, normalize_targets)
    acts = forward_trace(model, X)
    alpha_rows = np.repeat(alpha, sset.N)
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


class _EpochLog:
    """Full-set log passes on one worker thread, settled in epoch order.

    ``submit`` hands the worker a parameter snapshot and returns at once, so
    the caller trains the next epoch meanwhile; at most one pass is in flight.
    ``settle`` waits for the pending pass, checks that its total is finite and
    writes its metrics line, so the file and any error are those of running
    the pass in line. The worker calls no public skd function: a tracer that
    wraps them (``forward_trace`` among them) keeps one span stack, and would
    nest the worker's spans under whatever the training thread is doing.
    """

    def __init__(self, X, y, F, alpha_rows, reg_scale, use_cls, use_reg, handle):
        self._use = (use_cls, use_reg)
        self._handle = handle
        self._pending: int | None = None  # epoch of the pass in flight
        self._job: StudentModel | None = None
        self._out: tuple[float, float] | BaseException | None = None
        self._ready = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._thread = threading.Thread(
            target=self._work, args=(X, y, F, alpha_rows, reg_scale), name="skd-epoch-log"
        )
        self._thread.start()

    def _work(self, X, y, F, alpha_rows, reg_scale) -> None:
        # errstate is per thread; overflow surfaces as a non-finite total
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                self._ready.acquire()
                model = self._job
                if model is None:
                    return
                try:
                    acts = _forward_layers(model, X)
                    self._out = _objective(model, acts, y, F, alpha_rows, reg_scale)[:2]
                except BaseException as exc:  # re-raised on the training thread
                    self._out = exc
                self._done.release()

    def submit(self, epoch: int, model: StudentModel) -> None:
        self.settle()
        self._job = model.copy()
        self._pending = epoch
        self._ready.release()

    def settle(self) -> None:
        if self._pending is None:
            return
        epoch, self._pending = self._pending, None
        self._done.acquire()
        if isinstance(self._out, BaseException):
            raise self._out
        cls, reg = self._out
        use_cls, use_reg = self._use
        total = cls * use_cls + reg * use_reg
        if not np.isfinite(total):
            raise _diverged(epoch)
        if self._handle is not None:
            self._handle.write(
                json.dumps({"epoch": epoch, "cls": cls, "reg": reg, "total": total}) + "\n"
            )

    def close(self) -> None:
        """Stop the worker; a pass in flight finishes first and is dropped."""
        self._job = None
        self._ready.release()
        self._thread.join()


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
    X, y, F = _stack(sset, config.normalize_targets)
    alpha_rows = np.repeat(alpha, sset.N)
    rng = np.random.default_rng(config.seed)
    n = len(sset)
    versions = np.arange(sset.N)

    handle = open(metrics_path, "w", encoding="ascii") if metrics_path is not None else None
    log = _EpochLog(X, y, F, alpha_rows, config.reg_scale, use_cls, use_reg, handle)
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
                        F[rows] if use_reg else None,
                        alpha_rows[rows] if use_reg else None,
                        use_cls,
                        use_reg,
                        config.reg_scale,
                    )
                if not np.isfinite(cls + reg):
                    log.settle()  # an earlier epoch's log may have diverged first
                    raise _diverged(epoch)
                _sgd_step(model, grads, config.learning_rate)
            if handle is None and epoch < config.epochs:
                continue  # no metrics file: only the last epoch's log runs, to check divergence
            # Epoch log: full-set component values at this epoch's parameters,
            # computed while the next epoch trains.
            log.submit(epoch, model)
        log.settle()
    finally:
        log.close()
        if handle is not None:
            handle.close()
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
    alpha, use_cls, use_reg = _supervision_terms(mask, supervision, len(sset))
    if model.parameter_count() > 10_000:
        raise ValueError("gradient_check is for small models (<= 10^4 parameters)")
    _check_model_set(model, sset)
    X, y, F = _stack(sset)
    alpha_rows = np.repeat(alpha, sset.N)

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
