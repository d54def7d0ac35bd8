import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skd import dataset
from skd.dataset import (
    _GROUP_RECORDS,
    _group,
    FormatError,
    StudentSet,
    SynthConfig,
    class_ids,
    load_student_set,
    save_student_set,
    subset_classes,
    subset_records,
    synthesize,
)


def make_set(n_per_class=2, C=2, D=4, d_in=2, N=2, seed=0):
    rng = np.random.default_rng(seed)
    n = C * n_per_class
    features = np.empty((n, D))
    inputs = np.empty((n, N, d_in))
    for i in range(n):
        features[i] = rng.uniform(0.1, 1.0, D)
        inputs[i] = [rng.normal(size=d_in) for _ in range(N)]
    s = StudentSet(np.repeat(np.arange(1, C + 1), n_per_class), features, inputs, C=C)
    s.validate()
    return s


def sets_equal(a: StudentSet, b: StudentSet) -> bool:
    if (a.C, a.D, a.d_in, a.N, len(a)) != (b.C, b.D, b.d_in, b.N, len(b)):
        return False
    return all(np.array_equal(getattr(a, col), getattr(b, col))
               for col in ("labels", "outlier", "features", "inputs"))


class TestFileFormat:
    def test_well_formed_three_records(self, tmp_path):
        s = make_set(n_per_class=3, C=1, D=4)
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        loaded = load_student_set(p)
        assert len(loaded) == 3
        assert loaded.D == 4
        header = p.read_text().splitlines()[0]
        assert header == "SKD1 3 1 4 2 2"

    def test_roundtrip_exact(self, tmp_path):
        s = make_set(n_per_class=5, C=3, D=6, d_in=3, N=4, seed=7)
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        assert sets_equal(s, load_student_set(p))

    def test_roundtrip_100_random_records(self, tmp_path):
        s = synthesize(SynthConfig(C=5, per_class_count=20, D=8, d_in=3, N=3,
                                   noise_scale=0.2, outlier_fraction=0.1, seed=3))
        assert len(s) == 100
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        assert sets_equal(s, load_student_set(p))
        # second save is byte-identical
        p2 = tmp_path / "s2.skd"
        save_student_set(load_student_set(p), p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_dimension_mismatch_names_line(self, tmp_path):
        s = make_set(n_per_class=2, C=1, D=4)
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        lines = p.read_text().splitlines()
        # record 1's feature row is line 2 (after header); drop its last value
        lines[1] = ",".join(lines[1].split(",")[:-1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load_student_set(p)
        assert exc.value.line == 2
        assert "dimension mismatch" in str(exc.value)

    def test_non_finite_value_names_line(self, tmp_path):
        s = make_set(n_per_class=2, C=1, D=4)
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        lines = p.read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "nan"
        lines[2] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load_student_set(p)
        assert exc.value.line == 3

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "s.skd"
        p.write_text("SKD2 1 1 1 1 1\n")
        with pytest.raises(FormatError) as exc:
            load_student_set(p)
        assert exc.value.line == 1

    def test_missing_class_reported(self, tmp_path):
        s = make_set(n_per_class=2, C=2, D=4)
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        text = p.read_text().replace("SKD1 4 2 4 2 2", "SKD1 4 3 4 2 2")
        p.write_text(text)
        with pytest.raises(FormatError, match="class 3"):
            load_student_set(p)

    def test_save_empty_records_errors(self, tmp_path):
        s = StudentSet(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 1, 1)), C=1)
        with pytest.raises(ValueError, match="no records"):
            save_student_set(s, tmp_path / "x.skd")

    def test_single_record_line_count(self, tmp_path):
        s = StudentSet([1], [[0.5, 0.25]], np.ones((1, 3, 1)), C=1)
        p = tmp_path / "one.skd"
        save_student_set(s, p)
        assert len(p.read_text().splitlines()) == 1 + 1 + 3

    def test_outlier_flag_roundtrip(self, tmp_path):
        s = make_set(n_per_class=3, C=1)
        s.outlier[0] = 1
        s.outlier[1] = 0
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        loaded = load_student_set(p)
        assert loaded.outlier.tolist() == [1, 0, -1]


class TestSynthesize:
    def test_zero_noise_features_equal_centroid(self):
        s = synthesize(SynthConfig(C=3, per_class_count=4, D=8, d_in=2, N=1,
                                   noise_scale=0.0, outlier_fraction=0.0, seed=5))
        for ids in class_ids(s.labels, 3):
            feats = s.features[ids]
            for f in feats[1:]:
                assert np.array_equal(f, feats[0])
            assert math.isclose(float(np.linalg.norm(feats[0])), 1.0, rel_tol=1e-12)

    def test_outlier_counts(self):
        s = synthesize(SynthConfig(C=2, per_class_count=5, D=4, d_in=2, N=1,
                                   noise_scale=0.1, outlier_fraction=0.2, seed=1))
        for ids in class_ids(s.labels, 2):
            flags = s.outlier[ids].tolist()
            assert sum(flags) == 1

    def test_ten_percent_of_thirty_is_three(self):
        s = synthesize(SynthConfig(C=2, per_class_count=30, D=16, d_in=4, N=1,
                                   noise_scale=0.1, outlier_fraction=0.1, seed=1))
        for ids in class_ids(s.labels, 2):
            flags = s.outlier[ids].tolist()
            assert sum(flags) == 3

    def test_determinism(self):
        cfg = SynthConfig(C=3, per_class_count=6, D=8, d_in=3, N=2,
                          noise_scale=0.3, outlier_fraction=0.15, seed=42)
        assert sets_equal(synthesize(cfg), synthesize(cfg))

    def test_different_seeds_differ(self):
        a = synthesize(SynthConfig(C=2, per_class_count=3, D=4, d_in=2, N=1, seed=1))
        b = synthesize(SynthConfig(C=2, per_class_count=3, D=4, d_in=2, N=1, seed=2))
        assert not sets_equal(a, b)

    def test_features_nonnegative(self):
        s = synthesize(SynthConfig(C=4, per_class_count=10, D=8, d_in=4, N=2,
                                   noise_scale=0.8, outlier_fraction=0.2, seed=9))
        assert np.all(s.features >= 0.0)

    def test_too_many_outliers_errors(self):
        with pytest.raises(ValueError, match="no inliers"):
            synthesize(SynthConfig(C=2, per_class_count=2, outlier_fraction=0.9, seed=0))

    def test_outliers_need_second_class(self):
        with pytest.raises(ValueError):
            synthesize(SynthConfig(C=1, per_class_count=10, outlier_fraction=0.3, seed=0))

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, -0.5])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
            synthesize(SynthConfig(C=2, per_class_count=3, noise_scale=noise))

    def test_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(C=3, per_class_count=5, D=8, d_in=3, N=2, seed=11)
        save_student_set(synthesize(cfg), tmp_path / "a.skd")
        save_student_set(synthesize(cfg), tmp_path / "b.skd")
        assert (tmp_path / "a.skd").read_bytes() == (tmp_path / "b.skd").read_bytes()


# The benchmark's synth shapes at seed 7 (what `skd synth` writes for bench/
# workloads.py): 10 x 30 (5 record groups) and 10 x 300 (47 groups). Pinned
# from a writer that joined the whole file's lines, so streaming the groups
# must keep every byte.
SYNTH_DIGESTS = {
    30: "fd85b43b64fe8466072555b16a7d468e7c81913bb49edd105fe709373f8f86ff",
    300: "99400f24b0721266f59f3ce05d0f54582c38cf15b895fb54060c4f36557f2ce9",
}


def bench_set(per_class: int) -> StudentSet:
    return synthesize(SynthConfig(C=10, per_class_count=per_class, D=128, d_in=8, N=4,
                                  noise_scale=0.005, outlier_fraction=0.1, seed=7))


class TestStreamedWriter:
    @pytest.mark.parametrize("per_class", sorted(SYNTH_DIGESTS))
    def test_benchmark_sets_keep_their_bytes(self, tmp_path, per_class):
        p = tmp_path / "s.skd"
        save_student_set(bench_set(per_class), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == SYNTH_DIGESTS[per_class]

    def test_peak_is_far_below_the_file(self, tmp_path):
        # 47 groups of 64 records, about 7 MB of text: the writer holds one
        # group's lines at a time, not the file's.
        s = bench_set(300)
        p = tmp_path / "s.skd"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_student_set(s, p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(s) > 40 * _GROUP_RECORDS
        assert peak < p.stat().st_size / 4


# (C, labels): int64 labels from -2..C+2, so some lie outside 1..C and some
# classes are empty.
_classed_labels = st.integers(1, 8).flatmap(
    lambda C: st.tuples(st.just(C), st.lists(st.integers(-2, C + 2), max_size=40)))


@settings(max_examples=300, deadline=None)
@given(case=_classed_labels)
@example(case=(3, [3, 0, 1, -1, 3, 4, 1]))
@example(case=(1, []))
def test_class_ids_equal_a_scan_per_class(case):
    C, values = case
    labels = np.array(values, dtype=np.int64)
    got = class_ids(labels, C)
    assert len(got) == C
    for c, ids in enumerate(got, start=1):
        want = np.flatnonzero(labels == c)
        assert ids.dtype == want.dtype and np.array_equal(ids, want)


class TestSubsets:
    def test_subset_records_reindexes(self):
        s = make_set(n_per_class=3, C=2)
        sub = subset_records(s, [0, 2, 3, 5])
        assert len(sub) == 4
        for col in ("labels", "outlier", "features", "inputs"):
            assert np.array_equal(getattr(sub, col), getattr(s, col)[[0, 2, 3, 5]])

    def test_subset_records_requires_all_classes(self):
        s = make_set(n_per_class=2, C=2)
        with pytest.raises(ValueError):
            subset_records(s, [0, 1])  # class 2 dropped

    def test_subset_classes_relabels(self):
        s = make_set(n_per_class=2, C=3)
        sub = subset_classes(s, [2, 3])
        assert sub.C == 2
        assert sorted(set(sub.labels.tolist())) == [1, 2]
        assert len(sub) == 4


@settings(max_examples=20, deadline=None)
@given(
    C=st.integers(1, 3),
    per_class=st.integers(1, 4),
    D=st.integers(2, 6),
    N=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_synthesized_sets_roundtrip(tmp_path_factory, C, per_class, D, N, seed):
    cfg = SynthConfig(C=C, per_class_count=per_class, D=D, d_in=min(2, D), N=N,
                      noise_scale=0.2, outlier_fraction=0.0, seed=seed)
    s = synthesize(cfg)
    p = tmp_path_factory.mktemp("rt") / "s.skd"
    save_student_set(s, p)
    assert sets_equal(s, load_student_set(p))


# Nonzero magnitudes from the smallest subnormal to 1e300, either sign.
_signed = st.tuples(st.booleans(), st.floats(min_value=5e-324, max_value=1e300)).map(
    lambda t: -t[1] if t[0] else t[1]
)


@st.composite
def student_sets(draw):
    C, per_class = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    D, d_in, N = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = C * per_class
    features = draw(st.lists(_signed, min_size=n * D, max_size=n * D))
    inputs = draw(st.lists(st.one_of(st.just(-0.0), _signed),
                           min_size=n * N * d_in, max_size=n * N * d_in))
    outlier = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    return StudentSet(np.repeat(np.arange(1, C + 1), per_class),
                      np.reshape(features, (n, D)), np.reshape(inputs, (n, N, d_in)),
                      C=C, outlier=outlier)


@settings(max_examples=60, deadline=None)
@given(s=student_sets())
def test_extreme_values_roundtrip_exactly(tmp_path_factory, s):
    d = tmp_path_factory.mktemp("rt")
    save_student_set(s, d / "a.skd")
    loaded = load_student_set(d / "a.skd")
    save_student_set(loaded, d / "b.skd")
    assert (d / "a.skd").read_bytes() == (d / "b.skd").read_bytes()
    for col in ("labels", "outlier", "features", "inputs"):
        assert getattr(loaded, col).tobytes() == getattr(s, col).tobytes()
    # Every parsed value is float() of its field, in file order.
    body = (d / "a.skd").read_text().splitlines()[1:]
    fields = [float(v) for k, line in enumerate(body)
              for v in line.split(",")[3 if k % (s.N + 1) == 0 else 1:]]
    parsed = np.concatenate([loaded.features, loaded.inputs.reshape(len(s), -1)], axis=1)
    assert np.array(fields).tobytes() == parsed.tobytes()

# A hand-written SKD1 file: n=4 records, C=2, D=3, d_in=2, N=2 (13 lines).
VALID_SKD1 = [
    "SKD1 4 2 3 2 2",
    "0,1,0,0.5,0.25,1.0",
    "1,0.1,-0.2",
    "2,0.3,0.4",
    "1,1,1,0.75,0.0,0.125",
    "1,-0.5,0.5",
    "2,1e-3,2.5",
    "2,2,-,0.2,0.4,0.6",
    "1,0.0,-0.0",
    "2,3.0,1e+300",
    "3,2,0,1.5,0.0,5e-324",
    "1,7.0,-8.0",
    "2,0.9,0.1",
]


# SKD1 value fields of the plain decimal alphabet: any string of it, number
# literals, and shortest round-trip reprs.
_decimal_fields = st.one_of(
    st.text(alphabet="0123456789.eE+-", max_size=12),
    st.from_regex(r"[+-]?([0-9]{1,20}\.?[0-9]{0,20}|\.[0-9]{1,20})([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


def _field(lineno: int, index: int, value: str):
    """Edit that replaces one comma-separated field of a 1-based line."""
    def edit(lines):
        fields = lines[lineno - 1].split(",")
        fields[index] = value
        lines[lineno - 1] = ",".join(fields)
    return edit


def _line(lineno: int, text: str):
    def edit(lines):
        lines[lineno - 1] = text
    return edit


def _append(lineno: int, suffix: str):
    def edit(lines):
        lines[lineno - 1] += suffix
    return edit


def _drop_last_field(lineno: int):
    def edit(lines):
        lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0]
    return edit


def _insert(lineno: int, text: str):
    def edit(lines):
        lines.insert(lineno - 1, text)
    return edit


def _delete(lineno: int):
    def edit(lines):
        del lines[lineno - 1]
    return edit


# (case id, edits, exact message, line)
FORMAT_ERROR_CASES = [
    ("flag-x", [_field(2, 2, "x")], "bad outlier flag 'x' (expected 0, 1 or -)", 2),
    ("flag-true", [_field(8, 2, "True")], "bad outlier flag 'True' (expected 0, 1 or -)", 8),
    ("flag-empty", [_field(11, 2, "")], "bad outlier flag '' (expected 0, 1 or -)", 11),
    ("version-repeated", [_field(4, 0, "1")], "degraded version index '1', expected 2", 4),
    ("version-padded", [_field(6, 0, "01")], "degraded version index '01', expected 1", 6),
    ("version-zero", [_field(12, 0, "0")], "degraded version index '0', expected 1", 12),
    ("id-not-int", [_field(5, 0, "a")], "non-integer id or label", 5),
    ("label-not-int", [_field(8, 1, "1.5")], "non-integer id or label", 8),
    ("float-word", [_field(2, 4, "abc")],
     "unparseable float field (could not convert string to float: 'abc')", 2),
    ("float-empty-input", [_field(7, 2, "")],
     "unparseable float field (could not convert string to float: '')", 7),
    ("float-hex", [_field(9, 1, "0x10")],
     "unparseable float field (could not convert string to float: '0x10')", 9),
    ("float-bare-exponent", [_field(13, 1, "1e")],
     "unparseable float field (could not convert string to float: '1e')", 13),
    ("feature-nan", [_field(5, 3, "nan")], "non-finite value", 5),
    ("feature-inf", [_field(8, 5, "-inf")], "non-finite value", 8),
    ("feature-overflow", [_field(11, 3, "1e999")], "non-finite value", 11),
    ("input-nan", [_field(3, 2, "NaN")], "non-finite value", 3),
    ("input-inf", [_field(10, 1, "inf")], "non-finite value", 10),
    ("feature-too-few", [_drop_last_field(2)],
     "dimension mismatch: 2 feature values, expected 3", 2),
    ("feature-too-many", [_append(5, ",0.5")],
     "dimension mismatch: 4 feature values, expected 3", 5),
    ("feature-trailing-comma", [_append(8, ",")],
     "dimension mismatch: 4 feature values, expected 3", 8),
    ("input-too-few", [_drop_last_field(3)],
     "dimension mismatch: 1 input values, expected 2", 3),
    ("input-too-many", [_append(9, ",0.5")],
     "dimension mismatch: 3 input values, expected 2", 9),
    ("input-trailing-comma", [_append(13, ",")],
     "dimension mismatch: 3 input values, expected 2", 13),
    ("ids-skip", [_field(5, 0, "5")],
     "record ids must be dense 0..n-1; got id 5 at position 1", 1),
    ("ids-swapped", [_field(8, 0, "3"), _field(11, 0, "2")],
     "record ids must be dense 0..n-1; got id 3 at position 2", 1),
    ("label-zero", [_field(8, 1, "0")], "record 2: label 0 outside 1..2", 1),
    ("label-above-c", [_field(11, 1, "3")], "record 3: label 3 outside 1..2", 1),
    ("all-zero-feature", [_field(5, 3, "0.0"), _field(5, 5, "-0.0")],
     "record 1: all-zero teacher feature", 1),
    ("too-few-lines", [_delete(13)], "expected 13 lines for 4 records, found 12", 12),
    ("too-many-lines", [_insert(14, "2,0.9,0.1")],
     "expected 13 lines for 4 records, found 14", 13),
    ("blank-line-inserted", [_insert(7, "")], "expected 13 lines for 4 records, found 14", 13),
    ("blank-feature-row", [_line(5, "")], "dimension mismatch: -2 feature values, expected 3", 5),
    ("blank-input-row", [_line(6, "")], "dimension mismatch: 0 input values, expected 2", 6),
    ("empty-class-header", [_line(1, "SKD1 4 3 3 2 2")],
     "class 3 has no records (every class in 1..C must be nonempty)", 1),
    ("empty-class-relabel", [_field(8, 1, "1"), _field(11, 1, "1")],
     "class 2 has no records (every class in 1..C must be nonempty)", 1),
    ("header-not-int", [_line(1, "SKD1 4 2 x 2 2")],
     "malformed header (non-integer field)", 1),
    ("header-zero-count", [_line(1, "SKD1 4 2 3 0 2")],
     "malformed header (all counts must be >= 1)", 1),
    # The first failing line wins, whichever kind of check fails there.
    ("float-before-flag", [_field(3, 1, "zz"), _field(8, 2, "?")],
     "unparseable float field (could not convert string to float: 'zz')", 3),
    ("flag-before-float", [_field(2, 2, "?"), _field(3, 1, "zz")],
     "bad outlier flag '?' (expected 0, 1 or -)", 2),
    ("nan-before-version", [_field(6, 2, "nan"), _field(10, 0, "9")], "non-finite value", 6),
    ("version-before-nan", [_field(4, 0, "9"), _field(6, 2, "nan")],
     "degraded version index '9', expected 2", 4),
    ("count-before-float", [_append(4, ",1"), _field(4, 1, "bad")],
     "dimension mismatch: 3 input values, expected 2", 4),
    ("int-before-float", [_field(5, 1, "one"), _field(5, 4, "bad")],
     "non-integer id or label", 5),
    ("line-error-before-set-error", [_field(2, 1, "7"), _field(12, 1, "x")],
     "unparseable float field (could not convert string to float: 'x')", 12),
    ("first-record-wins", [_field(11, 0, "9"), _field(5, 3, "0"), _field(5, 5, "0")],
     "record 1: all-zero teacher feature", 1),
    ("id-before-label", [_field(8, 0, "6"), _field(8, 1, "4")],
     "record ids must be dense 0..n-1; got id 6 at position 2", 1),
    ("version-before-flag", [_field(4, 0, "9"), _field(8, 2, "?")],
     "degraded version index '9', expected 2", 4),
    ("flag-before-version", [_field(5, 2, "?"), _field(7, 0, "9")],
     "bad outlier flag '?' (expected 0, 1 or -)", 5),
    ("input-count-before-feature-count", [_append(3, ",1"), _drop_last_field(5)],
     "dimension mismatch: 3 input values, expected 2", 3),
    # On one feature line: the comma count, then the id and label, then the flag.
    ("count-before-int", [_field(5, 0, "a"), _append(5, ",1")],
     "dimension mismatch: 4 feature values, expected 3", 5),
    ("int-before-flag", [_field(5, 0, "a"), _field(5, 2, "?")], "non-integer id or label", 5),
]


class TestFormatErrors:
    def test_valid_file_loads(self, tmp_path):
        p = tmp_path / "s.skd"
        p.write_text("\n".join(VALID_SKD1) + "\n\n\n")  # trailing blank lines are fine
        s = load_student_set(p)
        assert (len(s), s.C, s.D, s.d_in, s.N) == (4, 2, 3, 2, 2)
        save_student_set(s, tmp_path / "again.skd")
        assert (tmp_path / "again.skd").read_text().splitlines()[10] == "3,2,0,1.5,0.0,5e-324"

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(_decimal_fields, min_size=3, max_size=3))
    @example(values=["1e999", "0.5", "-"])
    @example(values=["+.5", "7.", "-2E-1"])
    @example(values=["", "1e", "."])
    @example(values=["0.0", "1E400", ""])
    def test_float_fields_accept_what_float_accepts(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("fields")
        lines = list(VALID_SKD1)
        for edit in (_field(2, 3, " 0.5"), _field(2, 4, "1_0"), _field(3, 1, "+.5"),
                     _field(3, 2, "-2E-1\r"), _field(4, 1, "7.")):
            edit(lines)
        p = tmp_path / "s.skd"
        p.write_text("\n".join(lines) + "\n")
        s = load_student_set(p)
        save_student_set(s, tmp_path / "again.skd")
        written = (tmp_path / "again.skd").read_text().splitlines()
        assert written[1:4] == ["0,1,0,0.5,10.0,1.0", "1,0.5,-0.2", "2,7.0,0.4"]

        # Fields of the decimal alphabet in one feature value (line 8) and
        # both values of the input line after it: the file loads exactly
        # what float() accepts, bit for bit. Otherwise it fails at the first
        # line with a field float() rejects, or else reads as non-finite.
        lines = list(VALID_SKD1)
        for edit in (_field(8, 4, values[0]), _field(9, 1, values[1]), _field(9, 2, values[2])):
            edit(lines)
        p.write_text("\n".join(lines) + "\n")
        expected = None
        for lineno, fields in ((8, values[:1]), (9, values[1:])):
            try:
                row = [float(v) for v in fields]
            except ValueError as exc:
                expected = (f"unparseable float field ({exc})", lineno)
                break
            if not all(map(math.isfinite, row)):
                expected = ("non-finite value", lineno)
                break
        if expected is None:
            s = load_student_set(p)
            got = [s.features[2, 1], *s.inputs[2, 0]]
            assert np.array(got).tobytes() == np.array([float(v) for v in values]).tobytes()
        else:
            with pytest.raises(FormatError) as exc:
                load_student_set(p)
            assert (str(exc.value), exc.value.line) == (f"line {expected[1]}: {expected[0]}",
                                                         expected[1])

    @pytest.mark.parametrize(
        "edits,message,line",
        [case[1:] for case in FORMAT_ERROR_CASES],
        ids=[case[0] for case in FORMAT_ERROR_CASES],
    )
    def test_message_and_line(self, tmp_path, edits, message, line):
        lines = list(VALID_SKD1)
        for edit in edits:
            edit(lines)
        p = tmp_path / "bad.skd"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load_student_set(p)
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "edits", [case[1] for case in FORMAT_ERROR_CASES],
        ids=[case[0] for case in FORMAT_ERROR_CASES],
    )
    def test_bulk_and_scan_agree(self, edits, monkeypatch):
        # _group parses plain decimal text in bulk with np.loadtxt and other
        # text with float() per field: on every case's body, forcing the
        # per-field scan must give the same error or bit-identical arrays.
        lines = list(VALID_SKD1)
        for edit in edits:
            edit(lines)
        group = [line + "\n" for line in lines[1:]]
        if len(group) != 12:  # the line count check fails first
            return

        def parse():
            try:
                ids, labels, flags, features, inputs = _group(
                    group, 2, ["1,", "2,"] * 4, 2, 3, 2)
            except FormatError as exc:
                return str(exc), exc.line
            return ids, labels, flags, features.tobytes(), inputs.tobytes()

        bulk = parse()
        monkeypatch.setattr(dataset, "_DECIMAL_CHARS", b"")  # no text is plain decimal
        assert parse() == bulk

    @pytest.mark.parametrize("records,line", [(1, 2), (1, 3), (3, 4), (3, 5)])
    def test_empty_value_of_a_one_value_row(self, tmp_path, records, line):
        # D = 1 and d_in = 1: the feature line "i,1,0," and the input line "1,"
        # have the right comma counts and one empty value, which float()
        # rejects. The file's only record, or its second of three; loading
        # it warns of nothing (np.loadtxt warns on a list of blank rows).
        lines = [f"SKD1 {records} 1 1 1 1"]
        for i in range(records):
            lines += [f"{i},1,0,0.5", "1,0.25"]
        _field(line, -1, "")(lines)
        p = tmp_path / "s.skd"
        p.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(), pytest.raises(FormatError) as exc:
            warnings.simplefilter("error")
            load_student_set(p)
        assert (str(exc.value), exc.value.line) == (
            f"line {line}: unparseable float field (could not convert string to float: '')",
            line)


class TestParseGroups:
    """A file of 600 records spans several bulk-parse groups of _GROUP_RECORDS records."""

    N = 2  # record r's feature line is 2 + 3r; its input j is the line after that plus j

    @pytest.fixture
    def multi(self, tmp_path):
        s = synthesize(SynthConfig(C=3, per_class_count=200, D=4, d_in=2, N=self.N,
                                   noise_scale=0.2, outlier_fraction=0.1, seed=11))
        assert len(s) > 2 * _GROUP_RECORDS
        p = tmp_path / "multi.skd"
        save_student_set(s, p)
        return s, p, p.read_text().split("\n")[:-1]

    def line_of(self, record, j=0):
        return 2 + record * (self.N + 1) + j

    def load_error(self, path, lines, newline="\n"):
        path.write_bytes((newline.join(lines) + newline).encode("ascii"))
        with pytest.raises(FormatError) as exc:
            load_student_set(path)
        return exc.value.line, str(exc.value)

    def test_arrays_equal_a_roundtrip(self, multi, tmp_path):
        s, p, _ = multi
        loaded = load_student_set(p)
        assert sets_equal(s, loaded)
        save_student_set(loaded, tmp_path / "again.skd")
        assert (tmp_path / "again.skd").read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("value,message", [
        ("abc", "unparseable float field (could not convert string to float: 'abc')"),
        ("1e999", "non-finite value"),
    ])
    def test_bad_value_in_last_group(self, multi, value, message):
        _, p, lines = multi
        line = self.line_of(590, 2)
        _field(line, 1, value)(lines)
        assert self.load_error(p, lines) == (line, f"line {line}: {message}")

    def test_value_before_structural_error_in_one_group(self, multi):
        _, p, lines = multi
        bad_value, bad_flag = self.line_of(300, 1), self.line_of(310)
        _field(bad_value, 2, "zz")(lines)
        _field(bad_flag, 2, "?")(lines)
        assert self.load_error(p, lines) == (
            bad_value,
            f"line {bad_value}: unparseable float field "
            f"(could not convert string to float: 'zz')")

    def test_value_in_first_group_before_structural_error_in_last(self, multi):
        _, p, lines = multi
        _field(self.line_of(3), 4, "nan")(lines)
        _drop_last_field(self.line_of(599, 1))(lines)
        assert self.load_error(p, lines) == (self.line_of(3),
                                             f"line {self.line_of(3)}: non-finite value")

    def test_input_line_error_before_flag_in_a_later_group(self, multi):
        _, p, lines = multi
        bad_version, bad_flag = self.line_of(200, 2), self.line_of(210)
        _field(bad_version, 0, "1")(lines)
        _field(bad_flag, 2, "?")(lines)
        assert self.load_error(p, lines) == (
            bad_version, f"line {bad_version}: degraded version index '1', expected 2")

    @pytest.mark.parametrize("edit,found", [(_delete(1801), 1800),
                                            (_insert(1802, "2,0.5,0.5"), 1802),
                                            (_insert(900, ""), 1802),
                                            (_insert(1802, " "), 1802)])
    def test_line_count_wins_over_line_errors(self, multi, edit, found):
        _, p, lines = multi
        assert len(lines) == 1801
        _field(self.line_of(1), 1, "x")(lines)
        _field(self.line_of(400), 2, "?")(lines)
        edit(lines)
        assert self.load_error(p, lines) == (
            min(found, 1801), f"line {min(found, 1801)}: expected 1801 lines for 600 "
                              f"records, found {found}")

    def test_header_beyond_the_file_size_reports_the_line_count(self, multi):
        _, p, lines = multi
        lines[0] = "SKD1 1000000000000 3 4 2 2"
        assert self.load_error(p, lines) == (
            1801, "line 1801: expected 3000000000001 lines for 1000000000000 records, "
                  "found 1801")

    def test_crlf_and_trailing_blank_lines_load_the_same_arrays(self, multi, tmp_path):
        s, _, lines = multi
        for name, text in [("crlf", "\r\n".join(lines) + "\r\n"),
                           ("cr", "\r".join(lines) + "\r"),
                           ("blank", "\n".join(lines) + "\n\n\n"),
                           ("crlf-blank", "\r\n".join(lines) + "\r\n\r\n\n"),
                           ("no-final-newline", "\n".join(lines))]:
            p = tmp_path / f"{name}.skd"
            p.write_bytes(text.encode("ascii"))
            assert sets_equal(s, load_student_set(p)), name

    def test_non_ascii_byte_past_the_first_chunk(self, multi):
        _, p, _ = multi
        data = bytearray(p.read_bytes())
        data[50_000] = 0xE9
        p.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError) as exc:
            load_student_set(p)
        with pytest.raises(UnicodeDecodeError) as whole:
            bytes(data).decode("ascii")
        assert str(exc.value) == str(whole.value)
        assert "position 50000" in str(exc.value)

    @pytest.mark.parametrize("n", [_GROUP_RECORDS - 1, _GROUP_RECORDS, _GROUP_RECORDS + 1,
                                   2 * _GROUP_RECORDS + 1])
    def test_group_boundaries(self, tmp_path, n):
        s = synthesize(SynthConfig(C=1, per_class_count=n, D=3, d_in=2, N=self.N,
                                   noise_scale=0.2, seed=n))
        p = tmp_path / "s.skd"
        save_student_set(s, p)
        lines = p.read_text().split("\n")[:-1]
        p.write_bytes(("\r\n".join(lines) + "\r\n\r\n\n").encode("ascii"))
        loaded = load_student_set(p)
        for col in ("labels", "outlier", "features", "inputs"):
            assert getattr(loaded, col).tobytes() == getattr(s, col).tobytes()
        # A bad value in the first record of the second group, if there is
        # one, and in the last record.
        for record in sorted({min(_GROUP_RECORDS, n - 1), n - 1}):
            bad = list(lines)
            line = self.line_of(record, 1)
            _field(line, 2, "1e999")(bad)
            assert self.load_error(p, bad, newline="\r\n") == (
                line, f"line {line}: non-finite value")


def test_load_peak_is_near_the_set_arrays(tmp_path):
    # The benchmark's select_stress shape: 10 x 300 records of 128 feature and
    # 4 x 8 input values. The loader holds one group's text beside the arrays
    # it fills; it peaked at 1.23x the arrays' bytes with 64-record groups,
    # and at 1.77x when it held 256 records' lines and one joined copy.
    s = bench_set(300)
    p = tmp_path / "s.skd"
    save_student_set(s, p)
    array_bytes = sum(getattr(s, col).nbytes for col in ("labels", "outlier", "features", "inputs"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_student_set(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sets_equal(s, loaded)
    assert peak < 1.5 * array_bytes
