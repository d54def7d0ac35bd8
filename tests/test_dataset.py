import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skd.dataset import (
    FormatError,
    StudentSet,
    SynthConfig,
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
        for c in range(1, 4):
            feats = s.features[s.class_members(c)]
            for f in feats[1:]:
                assert np.array_equal(f, feats[0])
            assert math.isclose(float(np.linalg.norm(feats[0])), 1.0, rel_tol=1e-12)

    def test_outlier_counts(self):
        s = synthesize(SynthConfig(C=2, per_class_count=5, D=4, d_in=2, N=1,
                                   noise_scale=0.1, outlier_fraction=0.2, seed=1))
        for c in (1, 2):
            flags = s.outlier[s.class_members(c)].tolist()
            assert sum(flags) == 1

    def test_ten_percent_of_thirty_is_three(self):
        s = synthesize(SynthConfig(C=2, per_class_count=30, D=16, d_in=4, N=1,
                                   noise_scale=0.1, outlier_fraction=0.1, seed=1))
        for c in (1, 2):
            flags = s.outlier[s.class_members(c)].tolist()
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

    def test_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(C=3, per_class_count=5, D=8, d_in=3, N=2, seed=11)
        save_student_set(synthesize(cfg), tmp_path / "a.skd")
        save_student_set(synthesize(cfg), tmp_path / "b.skd")
        assert (tmp_path / "a.skd").read_bytes() == (tmp_path / "b.skd").read_bytes()


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
]


class TestFormatErrors:
    def test_valid_file_loads(self, tmp_path):
        p = tmp_path / "s.skd"
        p.write_text("\n".join(VALID_SKD1) + "\n\n\n")  # trailing blank lines are fine
        s = load_student_set(p)
        assert (len(s), s.C, s.D, s.d_in, s.N) == (4, 2, 3, 2, 2)
        save_student_set(s, tmp_path / "again.skd")
        assert (tmp_path / "again.skd").read_text().splitlines()[10] == "3,2,0,1.5,0.0,5e-324"

    def test_float_fields_accept_what_float_accepts(self, tmp_path):
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
