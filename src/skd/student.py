"""Compact feedforward student network with a mimic feature tap.

The network is a trunk of fully-connected layers followed by a mimic layer
whose output dimension matches the teacher feature dimension, an identity
(compression) layer, and a softmax classification head. The forward pass
exposes two taps: the mimic features (regression target surface) and the
class logits. All math is float64 numpy; backpropagation lives in
:mod:`skd.distiller`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import FormatError

__all__ = [
    "ACTIVATIONS",
    "DEFAULT_PARAM_BUDGET",
    "StudentArch",
    "Layer",
    "StudentModel",
    "init_student",
    "forward",
    "forward_batch",
    "tap_output",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "tanh", "linear")

# Student models are meant to be small; init refuses anything bigger.
DEFAULT_PARAM_BUDGET = 1_000_000

CHECKPOINT_MAGIC = b"SKDCKPT1"


def apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation to ``z`` in place and return it."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def activation_derivative(name: str, a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``delta`` times d activation / d pre-activation, from the output ``a``.

    ReLU's derivative is ``a > 0``, which equals ``z > 0`` for every z,
    including -0.0, +-inf and NaN; a linear layer passes ``delta`` through.
    """
    if name == "relu":
        return delta * (a > 0.0)
    if name == "tanh":
        return delta * (1.0 - a * a)
    if name == "linear":
        return delta
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class StudentArch:
    """Architecture of the student: trunk -> mimic -> identity -> head."""

    input_dim: int
    mimic_dim: int
    class_count: int
    trunk: tuple[int, ...] = (64, 64)
    identity_dim: int = 128
    hidden_activation: str = "relu"
    mimic_activation: str = "linear"

    def validate(self) -> None:
        if self.input_dim < 1 or self.mimic_dim < 1 or self.identity_dim < 1:
            raise ValueError("all layer dimensions must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if len(self.trunk) == 0:
            raise ValueError("trunk must have at least one layer")
        if any(int(d) < 1 for d in self.trunk):
            raise ValueError("trunk widths must be >= 1")
        for act in (self.hidden_activation, self.mimic_activation):
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")

    def layer_plan(self) -> list[tuple[int, int, str, str]]:
        """(fan_in, fan_out, activation, name) per layer, input to head."""
        plan = []
        fan_in = self.input_dim
        for k, width in enumerate(self.trunk):
            plan.append((fan_in, int(width), self.hidden_activation, f"trunk{k}"))
            fan_in = int(width)
        plan.append((fan_in, self.mimic_dim, self.mimic_activation, "mimic"))
        plan.append((self.mimic_dim, self.identity_dim, self.hidden_activation, "identity"))
        plan.append((self.identity_dim, self.class_count, "linear", "head"))
        return plan


@dataclass
class Layer:
    W: np.ndarray  # (fan_out, fan_in)
    b: np.ndarray  # (fan_out,)
    activation: str
    name: str
    trainable: bool = True

    def parameter_count(self) -> int:
        return self.W.size + self.b.size

    def copy(self) -> "Layer":
        return Layer(self.W.copy(), self.b.copy(), self.activation, self.name, self.trainable)

    def parameter_bytes(self) -> bytes:
        return self.W.astype("<f8").tobytes() + self.b.astype("<f8").tobytes()


@dataclass
class StudentModel:
    arch: StudentArch
    layers: list[Layer]
    seed: int

    @property
    def mimic_index(self) -> int:
        return len(self.arch.trunk)

    @property
    def identity_index(self) -> int:
        return self.mimic_index + 1

    def parameter_count(self) -> int:
        return sum(l.parameter_count() for l in self.layers)

    def require_input_dim(self, d_in: int) -> None:
        if self.arch.input_dim != d_in:
            raise ValueError(f"model input dim {self.arch.input_dim} != set input dim {d_in}")

    def copy(self) -> "StudentModel":
        return StudentModel(replace(self.arch), [l.copy() for l in self.layers], self.seed)

    def frozen_parameter_bytes(self) -> bytes:
        """Concatenated parameters of all non-trainable layers."""
        return b"".join(l.parameter_bytes() for l in self.layers if not l.trainable)

    def parameter_bytes(self) -> bytes:
        return b"".join(l.parameter_bytes() for l in self.layers)


def _xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    # Uniform variant: variance 2 / (fan_in + fan_out).
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_layers(
    arch: StudentArch, rng: np.random.Generator, names: set[str] | None = None
) -> list[Layer]:
    """Xavier-initialize layers; when ``names`` is given, only those layers."""
    layers = []
    for fan_in, fan_out, act, name in arch.layer_plan():
        if names is not None and name not in names:
            continue
        W = _xavier_uniform(rng, fan_in, fan_out)
        layers.append(Layer(W, np.zeros(fan_out), act, name))
    return layers


def init_student(
    arch: StudentArch, seed: int, param_budget: int = DEFAULT_PARAM_BUDGET
) -> StudentModel:
    """New student with Xavier-uniform weights and zero biases.

    Deterministic per seed. Raises ValueError when the architecture would
    exceed ``param_budget`` parameters.
    """
    arch.validate()
    rng = np.random.default_rng(seed)
    model = StudentModel(arch=replace(arch), layers=init_layers(arch, rng), seed=seed)
    if model.parameter_count() >= param_budget:
        raise ValueError(
            f"student has {model.parameter_count()} parameters, budget is {param_budget}"
        )
    return model


def forward_trace(
    model: StudentModel, X: np.ndarray, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Run a batch through every layer, keeping each layer's output.

    Returns acts with acts[0] = X and acts[k+1] = output of layer k.

    ``out``, when given, holds one C-contiguous array per layer that the
    layer's output is written into; the training log pass passes its reused
    buffers. Entries may alias: an activation then holds only until a later
    layer writes over it, and a layer's entry must not share memory with its
    input.
    """
    acts = [np.asarray(X, dtype=np.float64)]
    for k, layer in enumerate(model.layers):
        z = np.matmul(acts[-1], layer.W.T, out=None if out is None else out[k])
        z += layer.b
        acts.append(apply_activation(layer.activation, z))
    return acts


def forward_batch(model: StudentModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward pass. Returns (mimic (B, D), logits (B, C))."""
    acts = forward_trace(model, X)
    return acts[model.mimic_index + 1], acts[-1]


def forward(model: StudentModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-input forward pass with per-layer finiteness checks.

    Returns (mimic (D,), logits (C,)). Raises FloatingPointError naming the
    first layer whose activations are non-finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.arch.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({model.arch.input_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    with np.errstate(over="ignore", invalid="ignore"):
        acts = forward_trace(model, x[None])
    for idx, layer in enumerate(model.layers):
        if not np.all(np.isfinite(acts[idx + 1])):
            raise FloatingPointError(f"non-finite activations at layer {idx} ({layer.name})")
    return acts[model.mimic_index + 1][0], acts[-1][0]


def tap_output(model: StudentModel, X: np.ndarray, tap: str) -> np.ndarray:
    """Batched features from the ``mimic`` or ``identity`` tap."""
    if tap not in ("mimic", "identity"):
        raise ValueError(f"unknown tap {tap!r}; expected 'mimic' or 'identity'")
    acts = forward_trace(model, X)
    idx = model.mimic_index if tap == "mimic" else model.identity_index
    return acts[idx + 1]


# ---------------------------------------------------------------------------
# checkpoint format: deterministic bytes, exact float64 round-trip

def save_checkpoint(model: StudentModel, path: str | Path) -> None:
    meta = {
        "format": CHECKPOINT_MAGIC.decode(),
        "seed": model.seed,
        "arch": asdict(model.arch),
        "layers": [
            {
                "name": l.name,
                "activation": l.activation,
                "trainable": l.trainable,
                "fan_in": l.W.shape[1],
                "fan_out": l.W.shape[0],
            }
            for l in model.layers
        ],
    }
    blob = CHECKPOINT_MAGIC + b"\n" + json.dumps(meta, sort_keys=True).encode("ascii") + b"\n"
    blob += model.parameter_bytes()
    Path(path).write_bytes(blob)


def load_checkpoint(path: str | Path) -> StudentModel:
    """Read a checkpoint; a malformed file raises :class:`FormatError`.

    The metadata must describe a valid arch, its layers must be the arch's
    ``layer_plan()`` in order, each layer's ``trainable`` a JSON bool, and
    the seed, the arch sizes and the layer shapes JSON integers.
    """
    blob = Path(path).read_bytes()
    magic, _, rest = blob.partition(b"\n")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"not a student checkpoint: bad magic {magic[:16]!r}", line=1)
    meta_raw, _, payload = rest.partition(b"\n")
    try:
        meta = json.loads(meta_raw)
        arch_meta = dict(meta["arch"])
        arch_meta["trunk"] = tuple(arch_meta["trunk"])
        arch = StudentArch(**arch_meta)
        arch.validate()
        seed = meta["seed"]
        layer_meta = [
            (lm["fan_in"], lm["fan_out"], lm["activation"], lm["name"], lm["trainable"])
            for lm in meta["layers"]
        ]
        sizes = [seed, arch.input_dim, arch.mimic_dim, arch.class_count, arch.identity_dim,
                 *arch.trunk, *(size for m in layer_meta for size in m[:2])]
        if not all(type(size) is int for size in sizes):
            raise ValueError("the seed, arch sizes and layer shapes must be JSON integers")
        if [m[:4] for m in layer_meta] != arch.layer_plan():
            raise ValueError("layers do not match the arch's layer plan")
        if not all(isinstance(m[4], bool) for m in layer_meta):
            raise ValueError("a layer's trainable flag is not a bool")
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"malformed checkpoint metadata: {exc!r}", line=2) from None
    layers = []
    offset = 0
    for fi, fo, activation, name, trainable in layer_meta:
        if offset + (fo * fi + fo) * 8 > len(payload):
            raise FormatError("checkpoint payload is truncated")
        W = np.frombuffer(payload, dtype="<f8", count=fo * fi, offset=offset).reshape(fo, fi).copy()
        offset += fo * fi * 8
        b = np.frombuffer(payload, dtype="<f8", count=fo, offset=offset).copy()
        offset += fo * 8
        layers.append(Layer(W, b, activation, name, trainable))
    if offset != len(payload):
        raise FormatError("checkpoint payload size mismatch")
    return StudentModel(arch=arch, layers=layers, seed=seed)
