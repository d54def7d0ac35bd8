"""Student training set: columnar arrays, text file format, synthetic generation.

A :class:`StudentSet` holds, per sample, a teacher-extracted feature vector
and ``N`` degraded input vectors standing in for low-resolution observations
of the same identity, as arrays indexed by record id. Degradation is modeled
abstractly as a fixed lossy linear projection of the teacher feature plus
per-version noise; no image handling happens anywhere in this package.

The line-oriented ``SKD1`` text format round-trips sets exactly (floats are
written with shortest round-trip precision). The synthetic generator plants
labeled outliers whose teacher feature sits near a wrong class centroid,
emulating samples the teacher embedded incorrectly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "StudentSet",
    "SynthConfig",
    "FormatError",
    "load_student_set",
    "save_student_set",
    "synthesize",
    "subset_records",
    "subset_classes",
]

# Per-version degradation noise, as a fraction of the projected signal's RMS
# coordinate magnitude. Deliberately independent of SynthConfig.noise_scale:
# input difficulty must not collapse when teacher clusters are tight.
DEGRADATION_NOISE_FACTOR = 1.0

# Synthetic class centroids are sparse nonnegative directions with supports of
# this size; near-disjoint supports keep cross-class cosine similarity near 0.
def _support_size(dim: int) -> int:
    return max(2, dim // 32)


class FormatError(ValueError):
    """Malformed data file. ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class StudentSet:
    """The student training set as columns indexed by record id 0..n-1.

    ``labels`` (n,) are classes 1..C. ``features`` (n, D) are the embeddings
    produced by the (out of scope) teacher. ``inputs`` (n, N, d_in) are the N
    student-input vectors of each record. ``outlier`` (n,) is ground truth for
    synthetic data only: 1 or 0, or -1 where unknown (the default). Columns
    are stored as contiguous int64, float64, float64 and int8 arrays.
    """

    labels: np.ndarray
    features: np.ndarray
    inputs: np.ndarray
    C: int
    outlier: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if self.outlier is None:
            self.outlier = np.full(len(self.labels), -1)
        self.outlier = np.ascontiguousarray(self.outlier, dtype=np.int8)
        columns = (self.labels, self.features, self.inputs, self.outlier)
        if [c.ndim for c in columns] != [1, 2, 3, 1] or len({len(c) for c in columns}) != 1:
            raise ValueError("column shapes disagree: " + ", ".join(str(c.shape) for c in columns))

    @property
    def D(self) -> int:
        return self.features.shape[1]

    @property
    def N(self) -> int:
        return self.inputs.shape[1]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[2]

    def __len__(self) -> int:
        return len(self.labels)

    def class_members(self, label: int) -> list[int]:
        return np.flatnonzero(self.labels == label).tolist()

    def validate(self, ids: np.ndarray | None = None) -> None:
        """Raise ValueError on any invariant violation, naming the first bad record.

        ``ids``, when given, are the record ids a file declared; they must be
        dense 0..n-1.
        """
        n = len(self)
        if n == 0:
            raise ValueError("student set has no records (C classes required)")
        if self.C < 1 or self.D < 1 or self.d_in < 1 or self.N < 1:
            raise ValueError("C, D, d_in, N must all be >= 1")
        ids = np.arange(n) if ids is None else ids
        finite_inputs = np.isfinite(self.inputs).all(axis=2)
        # Per-record checks, in the order each record is checked.
        checks = [
            (ids != np.arange(n), "record ids must be dense 0..n-1; got id {id} at position {i}"),
            ((self.labels < 1) | (self.labels > self.C), "record {i}: label {label} outside 1..{C}"),
            (~np.isfinite(self.features).all(axis=1), "record {i}: non-finite teacher feature"),
            (~self.features.any(axis=1), "record {i}: all-zero teacher feature"),
            (~finite_inputs.all(axis=1), "record {i}: non-finite degraded input {j}"),
            (~np.isin(self.outlier, (-1, 0, 1)), "record {i}: outlier flag {flag} not in -1, 0, 1"),
        ]
        bad = np.stack([failed for failed, _ in checks])
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            raise ValueError(checks[int(bad[:, i].argmax())][1].format(
                i=i, id=ids[i], label=self.labels[i], C=self.C,
                j=int(finite_inputs[i].argmin()), flag=self.outlier[i]))
        sizes = np.bincount(self.labels - 1, minlength=self.C)
        if np.any(sizes == 0):
            missing = int(np.argmin(sizes)) + 1
            raise ValueError(f"class {missing} has no records (every class in 1..C must be nonempty)")


@dataclass
class SynthConfig:
    """Parameters of the synthetic generator."""

    C: int
    per_class_count: int
    D: int = 16
    d_in: int = 8
    N: int = 16
    noise_scale: float = 0.05
    outlier_fraction: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.C < 1 or self.per_class_count < 1:
            raise ValueError("C and per_class_count must be >= 1")
        if not (self.D >= self.d_in >= 1):
            raise ValueError("require D >= d_in >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ValueError("outlier_fraction must be in [0, 1)")


_FLAG_VALUE = {"0": 0, "1": 1, "-": -1}  # SKD1 outlier flag text
_DECIMAL_CHARS = str.maketrans("", "", "0123456789.eE+-,")  # deleted by translate


def save_student_set(sset: StudentSet, path: str | Path) -> None:
    """Write ``sset`` in the SKD1 text format. Round-trips exactly."""
    sset.validate()
    n, N = len(sset), sset.N
    features = sset.features.tolist()
    inputs = sset.inputs.reshape(n * N, sset.d_in).tolist()
    lines = [f"SKD1 {n} {sset.C} {sset.D} {sset.d_in} {N}"]
    for i, (label, flag) in enumerate(zip(sset.labels.tolist(), sset.outlier.tolist())):
        # "01-"[-1] is "-": an unknown flag
        lines.append(f"{i},{label},{'01-'[flag]}," + ",".join(map(repr, features[i])))
        for j in range(N):
            lines.append(f"{j + 1}," + ",".join(map(repr, inputs[i * N + j])))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _exact_values(lines: list[str], N: int) -> list[float]:
    """``float()`` of every value field of SKD1 body ``lines`` (file line 2 on);
    FormatError at the first line with an unparseable or non-finite value."""
    values: list[float] = []
    for lineno, line in enumerate(lines, start=2):
        head = 3 if (lineno - 2) % (N + 1) == 0 else 1
        try:
            row = [float(v) for v in line.split(",")[head:]]
        except ValueError as exc:
            raise FormatError(f"unparseable float field ({exc})", line=lineno) from None
        if not np.isfinite(row).all():
            raise FormatError("non-finite value", line=lineno)
        values += row
    return values


def load_student_set(path: str | Path) -> StudentSet:
    """Parse an SKD1 file. Raises FormatError naming the offending line."""
    raw = Path(path).read_text(encoding="ascii").split("\n")
    # Trailing blank lines are tolerated; blank lines elsewhere are not.
    while raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise FormatError("empty file", line=1)

    header = raw[0].split()
    if len(header) != 6 or header[0] != "SKD1":
        raise FormatError("malformed header (expected 'SKD1 n C D d_in N')", line=1)
    try:
        n, C, D, d_in, N = (int(v) for v in header[1:])
    except ValueError:
        raise FormatError("malformed header (non-integer field)", line=1) from None
    if min(n, C, D, d_in, N) < 1:
        raise FormatError("malformed header (all counts must be >= 1)", line=1)

    expected_lines = 1 + n * (1 + N)
    if len(raw) != expected_lines:
        raise FormatError(
            f"expected {expected_lines} lines for {n} records, found {len(raw)}",
            line=min(len(raw), expected_lines),
        )

    # Per-line string checks; the value fields of each line are kept as text.
    ids, labels, flags, fields = [], [], [], []
    try:
        for lineno, line in enumerate(raw[1:], start=2):
            j = (lineno - 2) % (N + 1)  # 0 on a record's feature line, else the version
            if j == 0:
                if line.count(",") != 2 + D:
                    raise FormatError(f"dimension mismatch: {line.count(',') - 2} feature "
                                      f"values, expected {D}", line=lineno)
                rid, label, flag, rest = line.split(",", 3)
                try:
                    ids.append(int(rid))
                    labels.append(int(label))
                except ValueError:
                    raise FormatError("non-integer id or label", line=lineno) from None
                if flag not in _FLAG_VALUE:
                    raise FormatError(f"bad outlier flag {flag!r} (expected 0, 1 or -)", line=lineno)
                flags.append(_FLAG_VALUE[flag])
            else:
                if line.count(",") != d_in:
                    raise FormatError(f"dimension mismatch: {line.count(',')} input values, "
                                      f"expected {d_in}", line=lineno)
                version, rest = line.split(",", 1)
                if version != str(j):
                    raise FormatError(f"degraded version index {version!r}, expected {j}", line=lineno)
            fields.append(rest)
    except FormatError as exc:
        _exact_values(raw[1 : exc.line - 1], N)  # a bad value on an earlier line comes first
        raise

    # One bulk parse. Over plain decimal literals (the only characters below)
    # numpy's parser and float() accept the same fields and round alike; any
    # other text, a short parse or a non-finite value takes the exact path,
    # which also names the offending line.
    body = ",".join(fields)
    del fields  # body holds the same text; keep one copy while it is parsed
    values = None
    if not body.translate(_DECIMAL_CHARS):
        try:
            values = np.fromstring(body, sep=",")
        except ValueError:
            pass
    if values is None or values.size != n * (D + N * d_in) or not np.isfinite(values).all():
        values = np.array(_exact_values(raw[1:], N))
    values = values.reshape(n, D + N * d_in)

    try:
        sset = StudentSet(labels, values[:, :D], values[:, D:].reshape(n, N, d_in), C, flags)
        sset.validate(ids=np.array(ids))
    except (ValueError, OverflowError) as exc:
        # Set-level violations (missing class, non-dense ids, a label past
        # int64) are anchored to the header line that declared the shape.
        raise FormatError(str(exc), line=1) from None
    return sset


def synthesize(config: SynthConfig) -> StudentSet:
    """Generate a deterministic synthetic StudentSet with planted outliers.

    Per class, inlier teacher features are the class centroid direction plus
    Gaussian noise, clamped elementwise to nonnegative; their degraded inputs
    are a fixed random linear projection of the teacher feature plus
    per-version noise. An outlier_fraction share of each class models a
    teacher failure: the record's degraded inputs still project from a latent
    own-class appearance, but its teacher feature is drawn near a different
    class's centroid and the record is flagged. Regressing such a feature is
    therefore genuinely misleading supervision.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    C, K, D, d_in, N = config.C, config.per_class_count, config.D, config.d_in, config.N

    n_out = int(round(config.outlier_fraction * K))
    if n_out >= K:
        raise ValueError(
            f"outlier_fraction {config.outlier_fraction} leaves no inliers per class"
        )
    if n_out > 0 and C < 2:
        raise ValueError("outliers need at least two classes")

    projection = rng.normal(size=(d_in, D)) / np.sqrt(D)

    k = _support_size(D)
    centroids = np.zeros((C, D))
    for c in range(C):
        support = rng.choice(D, size=k, replace=False)
        vals = np.abs(rng.normal(size=k)) + 1e-3
        centroids[c, support] = vals
        centroids[c] /= np.linalg.norm(centroids[c])

    def draw_feature(center: np.ndarray, scale: float) -> np.ndarray:
        for _ in range(100):
            f = np.maximum(center + scale * rng.normal(size=D), 0.0)
            if np.any(f > 0.0):
                return f
        raise RuntimeError("could not draw a nonzero teacher feature; noise_scale too large")

    labels = np.repeat(np.arange(1, C + 1), K)
    features, inputs = np.empty((C * K, D)), np.empty((C * K, N, d_in))
    outlier = np.zeros(C * K, dtype=np.int8)
    for c in range(C):
        others = [o for o in range(C) if o != c]
        if n_out > 0:
            replace = n_out > len(others)
            wrong = rng.choice(np.array(others), size=n_out, replace=replace)
        else:
            wrong = np.array([], dtype=np.int64)
        for i in range(K):
            rid = c * K + i
            if i < K - n_out:
                features[rid] = draw_feature(centroids[c], config.noise_scale)
                appearance = features[rid]
            else:
                features[rid] = draw_feature(centroids[wrong[i - (K - n_out)]], config.noise_scale)
                appearance = draw_feature(centroids[c], config.noise_scale)
                outlier[rid] = 1
            proj = projection @ appearance
            sigma = DEGRADATION_NOISE_FACTOR * np.linalg.norm(proj) / np.sqrt(d_in)
            inputs[rid] = proj + sigma * rng.normal(size=(N, d_in))

    sset = StudentSet(labels, features, inputs, C, outlier)
    sset.validate()
    return sset


def _take(sset: StudentSet, rows: np.ndarray, labels: np.ndarray, C: int) -> StudentSet:
    out = StudentSet(labels[rows], sset.features[rows], sset.inputs[rows], C, sset.outlier[rows])
    out.validate()
    return out


def subset_records(sset: StudentSet, record_ids: list[int]) -> StudentSet:
    """New StudentSet containing only ``record_ids``, reindexed densely.

    Labels are kept; every class of the parent must remain represented.
    """
    return _take(sset, np.unique(np.asarray(record_ids, dtype=np.int64)), sset.labels, sset.C)


def subset_classes(sset: StudentSet, class_labels: list[int]) -> StudentSet:
    """New StudentSet restricted to ``class_labels``, relabeled densely 1..k."""
    relabeled = np.zeros(len(sset), dtype=np.int64)
    for new, old in enumerate(class_labels, start=1):
        relabeled[sset.labels == old] = new
    return _take(sset, np.flatnonzero(relabeled), relabeled, len(class_labels))
