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

import itertools
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "StudentSet",
    "SynthConfig",
    "class_ids",
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
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be finite and nonnegative")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise ValueError("outlier_fraction must be in [0, 1)")


# Records written or parsed at once: the text held while saving or loading is
# bounded by this group, not by the file.
_GROUP_RECORDS = 64
_FLAG_VALUE = {"0": 0, "1": 1, "-": -1}  # SKD1 outlier flag text
_DECIMAL_CHARS = b"0123456789.eE+-,\n"  # what bytes.translate deletes from a parseable body


def class_ids(labels: np.ndarray, n_classes: int) -> list[np.ndarray]:
    """The record ids of each class 1..n_classes, ascending.

    Entry c - 1 holds what ``np.flatnonzero`` gives for label c, dtype
    included. All classes come from one stable sort of the labels, and a
    label outside 1..n_classes lands in no class.
    """
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(1, n_classes + 2))
    return np.split(order, bounds)[1:-1]


def save_student_set(sset: StudentSet, path: str | Path) -> None:
    """Write ``sset`` in the SKD1 text format. Round-trips exactly.

    The file is written a group of records at a time, so the text held is
    bounded by the group, not by the file.
    """
    sset.validate()
    n, N = len(sset), sset.N
    with open(path, "w", encoding="ascii") as f:
        f.write(f"SKD1 {n} {sset.C} {sset.D} {sset.d_in} {N}\n")
        for lo in range(0, n, _GROUP_RECORDS):
            rows = slice(lo, lo + _GROUP_RECORDS)
            lines = []
            for i, label, flag, feature, versions in zip(
                    itertools.count(lo), sset.labels[rows].tolist(), sset.outlier[rows].tolist(),
                    sset.features[rows].tolist(), sset.inputs[rows].tolist()):
                # "01-"[-1] is "-": an unknown flag
                lines.append(f"{i},{label},{'01-'[flag]}," + ",".join(map(repr, feature)))
                lines += [f"{j}," + ",".join(map(repr, v)) for j, v in enumerate(versions, 1)]
            f.write("\n".join(lines) + "\n")


def _exact_values(lines: list[str], N: int, first: int) -> list[float]:
    """``float()`` of every value field of consecutive SKD1 body ``lines``, each
    ending in a newline, the first of which is file line ``first`` and starts a
    record; FormatError at the first line with an unparseable or non-finite value."""
    values: list[float] = []
    for lineno, line in enumerate(lines, start=first):
        head = 3 if (lineno - first) % (N + 1) == 0 else 1
        try:
            row = [float(v) for v in line[:-1].split(",")[head:]]
        except ValueError as exc:
            raise FormatError(f"unparseable float field ({exc})", line=lineno) from None
        if not np.isfinite(row).all():
            raise FormatError("non-finite value", line=lineno)
        values += row
    return values


class _Lines:
    """Reads an open text file's lines a list at a time.

    ``lineno`` is the number of lines read so far and ``count`` the number of
    the last non-blank one, so once the file is drained ``count`` is its line
    count without trailing blank lines.
    """

    def __init__(self, f):
        self._f = f
        self.lineno = 0
        self.count = 0

    def take(self, k: int) -> list[str]:
        """The next ``k`` lines, fewer at the end of the file, each ending in a newline."""
        lines = list(itertools.islice(self._f, k))
        for back, line in enumerate(reversed(lines)):
            if line != "\n":
                self.count = self.lineno + len(lines) - back
                break
        self.lineno += len(lines)
        if lines and lines[-1][-1] != "\n":  # the file's last line
            lines[-1] += "\n"
        return lines

    def drain(self) -> None:
        while self.take(_GROUP_RECORDS):
            pass


def load_student_set(path: str | Path) -> StudentSet:
    """Parse an SKD1 file. Raises FormatError naming the offending line.

    The file is read a group of records at a time. Each layout rule is
    checked once per group, and each group's values are parsed in bulk into
    the set's arrays, through ``float()`` where their text is not plain
    decimal. The file is read to the end before any error is raised, so a
    malformed header comes first, then a wrong line count, then the first bad
    line, whichever rule it breaks, then set-level violations.
    """
    try:
        with open(path, encoding="ascii") as f:  # universal newlines, as Path.read_text
            return _parse(_Lines(f), os.fstat(f.fileno()))
    except UnicodeDecodeError:
        # The error gives the byte's offset in the chunk the decoder read;
        # decoding the whole file gives its offset in the file.
        Path(path).read_text(encoding="ascii")
        raise


def _int(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _group(group: list[str], first: int, prefixes: list[str], N: int, D: int, d_in: int):
    """A group's ``(ids, labels, flags, features, inputs)``; FormatError at its
    first bad line, after the values of the lines before it are checked.

    ``group`` holds whole records' lines as ``_Lines.take`` returns them, from
    file line ``first`` on; ``prefixes`` holds the ``"{j},"`` that starts each
    input line. Each layout rule is one list check, whose list both accepts
    the group and words the error. Plain decimal value text is parsed with one
    ``np.loadtxt`` call per row kind (there numpy's parser and ``float()``
    accept the same fields and round alike); other text, such as ``" 0.5"`` or
    ``"1_0"``, goes through ``_exact_values``.
    """
    step = N + 1
    commas = list(map(str.count, group, itertools.repeat(",")))
    counts = ([2 + D] + [d_in] * N) * (len(group) // step)
    # a line with a wrong comma count fails there; the lines after it are not read
    end = len(group)
    if commas != counts:
        end = next(o for o, (got, want) in enumerate(zip(commas, counts)) if got != want)
    feature_lines = group[:end:step]
    input_lines = group[:end]
    del input_lines[::step]
    fields = [line.split(",", 3) for line in feature_lines]
    ids = [_int(f[0]) for f in fields]
    labels = [_int(f[1]) for f in fields]
    flags = [_FLAG_VALUE.get(f[2]) for f in fields]
    versions = list(map(str.startswith, input_lines, prefixes))

    firsts = [end]  # offsets into the group of each rule's first bad line
    if None in ids or None in labels or None in flags:
        firsts.append(step * next(r for r, record in enumerate(zip(ids, labels, flags))
                                  if None in record))
    if False in versions:
        record, j = divmod(versions.index(False), N)
        firsts.append(record * step + j + 1)
    offset = min(firsts)
    if offset < len(group):
        record, j = divmod(offset, step)
        if offset == end:
            message = (f"dimension mismatch: {commas[offset] - 2} feature values, expected {D}"
                       if j == 0 else
                       f"dimension mismatch: {commas[offset]} input values, expected {d_in}")
        elif j:
            message = f"degraded version index {group[offset].split(',', 1)[0]!r}, expected {j}"
        elif ids[record] is None or labels[record] is None:
            message = "non-integer id or label"
        else:
            message = f"bad outlier flag {fields[record][2]!r} (expected 0, 1 or -)"
        _exact_values(group[:offset], N, first)
        raise FormatError(message, line=first + offset)

    k = len(fields)
    rests = [f[3] for f in fields]
    input_rests = [line[len(p):] for line, p in zip(input_lines, prefixes)]
    # np.loadtxt skips a blank row, and warns when every row is blank
    if not ("\n" in rests or "\n" in input_rests or "".join(
            itertools.chain(rests, input_rests)).encode().translate(None, _DECIMAL_CHARS)):
        try:
            features = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
            inputs = np.loadtxt(input_rests, delimiter=",", comments=None, ndmin=2)
            if (features.shape == (k, D) and inputs.shape == (k * N, d_in)
                    and np.isfinite(features).all() and np.isfinite(inputs).all()):
                return ids, labels, flags, features, inputs
        except ValueError:
            pass
    values = np.array(_exact_values(group, N, first)).reshape(k, D + N * d_in)
    return ids, labels, flags, values[:, :D], values[:, D:]


def _parse(lines: _Lines, st: os.stat_result) -> StudentSet:
    header = (lines.take(1) or [""])[0].split()
    try:
        if len(header) != 6 or header[0] != "SKD1":
            raise FormatError("malformed header (expected 'SKD1 n C D d_in N')", line=1)
        try:
            n, C, D, d_in, N = (int(v) for v in header[1:])
        except ValueError:
            raise FormatError("malformed header (non-integer field)", line=1) from None
        if min(n, C, D, d_in, N) < 1:
            raise FormatError("malformed header (all counts must be >= 1)", line=1)
    except FormatError:
        lines.drain()
        if lines.count == 0:  # trailing blank lines are tolerated
            raise FormatError("empty file", line=1) from None
        raise

    # A well-formed file has a comma per value, so a header that declares
    # more values than a regular file has bytes fails the line count or a
    # dimension check; no arrays are allocated for it.
    if n * (D + N * d_in) <= st.st_size or not stat.S_ISREG(st.st_mode):
        features, inputs = np.empty((n, D)), np.empty((n, N, d_in))
    else:
        features = inputs = None
    ids: list[int] = []
    labels: list[int] = []
    flags: list[int] = []
    prefixes = [f"{j}," for j in range(1, N + 1)] * _GROUP_RECORDS
    error = None
    try:
        for lo in range(0, n, _GROUP_RECORDS):
            hi = min(n, lo + _GROUP_RECORDS)
            first = lines.lineno + 1
            group = lines.take((hi - lo) * (N + 1))
            if len(group) < (hi - lo) * (N + 1):
                break  # the file ended early: the line count check below fails
            group_ids, group_labels, group_flags, group_features, group_inputs = _group(
                group, first, prefixes[:(hi - lo) * N], N, D, d_in)
            ids += group_ids
            labels += group_labels
            flags += group_flags
            if features is not None:
                features[lo:hi] = group_features
                inputs[lo:hi] = group_inputs.reshape(hi - lo, N, d_in)
    except FormatError as exc:
        error = exc
    lines.drain()

    expected_lines = 1 + n * (1 + N)
    if lines.count != expected_lines:
        raise FormatError(
            f"expected {expected_lines} lines for {n} records, found {lines.count}",
            line=min(lines.count, expected_lines),
        )
    if error is not None:
        raise error

    try:
        sset = StudentSet(labels, features, inputs, C, flags)
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
