import numpy as np
import pytest

from skd.student import (
    ACTIVATIONS,
    StudentArch,
    activation_derivative,
    apply_activation,
    forward_trace,
    init_student,
    load_checkpoint,
    save_checkpoint,
    tap_output,
)


def small_arch(**kw):
    base = dict(input_dim=3, mimic_dim=4, class_count=3, trunk=(5,), identity_dim=4)
    base.update(kw)
    return StudentArch(**base)


class TestInit:
    def test_same_seed_identical(self):
        a = init_student(small_arch(), seed=7)
        b = init_student(small_arch(), seed=7)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_different_seed_differs(self):
        a = init_student(small_arch(), seed=7)
        b = init_student(small_arch(), seed=8)
        assert a.parameter_bytes() != b.parameter_bytes()

    def test_xavier_variance(self):
        # 4->4 layer: uniform limit sqrt(6/8), variance 2/8 = 0.25
        samples = []
        for seed in range(700):
            m = init_student(StudentArch(input_dim=4, mimic_dim=2, class_count=2,
                                         trunk=(4,), identity_dim=2), seed)
            samples.append(m.layers[0].W.ravel())
        values = np.concatenate(samples)
        assert len(values) >= 10_000
        assert abs(values.var() - 0.25) < 0.05  # within 20%

    def test_biases_zero(self):
        m = init_student(small_arch(), seed=0)
        for layer in m.layers:
            assert np.all(layer.b == 0.0)

    def test_zero_layer_trunk_errors(self):
        with pytest.raises(ValueError, match="trunk"):
            init_student(small_arch(trunk=()), seed=0)

    def test_parameter_budget(self):
        with pytest.raises(ValueError, match="budget"):
            init_student(small_arch(), seed=0, param_budget=10)

    def test_parameter_count_formula(self):
        m = init_student(small_arch(), seed=0)
        # 3->5, 5->4 (mimic), 4->4 (identity), 4->3 (head)
        expected = (3 * 5 + 5) + (5 * 4 + 4) + (4 * 4 + 4) + (4 * 3 + 3)
        assert m.parameter_count() == expected

    def test_layer_roles(self):
        m = init_student(small_arch(), seed=0)
        assert [l.name for l in m.layers] == ["trunk0", "mimic", "identity", "head"]
        assert m.layers[m.mimic_index].name == "mimic"


class TestForward:
    def test_zero_model_uniform_softmax(self):
        m = init_student(small_arch(), seed=0)
        for layer in m.layers:
            layer.W[:] = 0.0
        logits = forward_trace(m, np.zeros((1, 3)))[-1][0]
        assert np.all(logits == logits[0])
        p = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(p, 1.0 / 3.0)

    def test_identity_network_mimic_equals_input(self):
        arch = StudentArch(input_dim=3, mimic_dim=3, class_count=2, trunk=(3,),
                           identity_dim=2, hidden_activation="linear",
                           mimic_activation="linear")
        m = init_student(arch, seed=0)
        m.layers[0].W = np.eye(3)
        m.layers[1].W = np.eye(3)
        for l in m.layers:
            l.b[:] = 0.0
        X = np.array([[0.3, -1.2, 2.0], [1.5, 0.0, -0.25]])
        assert np.allclose(tap_output(m, X, "mimic"), X, atol=0)

    def test_finite_outputs_random_inputs(self):
        m = init_student(small_arch(), seed=3)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 3))
        acts = forward_trace(m, X)
        mimic, logits = acts[m.mimic_index + 1], acts[-1]
        assert np.all(np.isfinite(mimic)) and np.all(np.isfinite(logits))
        assert mimic.shape == (1000, 4) and logits.shape == (1000, 3)

    def test_taps(self):
        m = init_student(small_arch(), seed=1)
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert tap_output(m, X, "mimic").shape == (5, 4)
        assert tap_output(m, X, "identity").shape == (5, 4)
        with pytest.raises(ValueError):
            tap_output(m, X, "head")


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        m = init_student(small_arch(), seed=11)
        m.layers[0].trainable = False
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        loaded = load_checkpoint(p)
        assert loaded.parameter_bytes() == m.parameter_bytes()
        assert loaded.seed == m.seed
        assert loaded.arch == m.arch
        assert [l.trainable for l in loaded.layers] == [l.trainable for l in m.layers]

    def test_saves_are_byte_identical(self, tmp_path):
        m = init_student(small_arch(), seed=11)
        save_checkpoint(m, tmp_path / "a")
        save_checkpoint(m, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOTACKPT\n{}\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)


class TestActivationDerivative:
    """The output-based forms equal the pre-activation forms bit for bit."""

    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                      2.2250738585072014e-308, 1.0, -1.0, 0.5, -3.75, 20.0, -20.0,
                      1e308, -1e308])

    @staticmethod
    def pre_activation_forms(name, z):
        """(output, derivative) computed from the pre-activation z."""
        if name == "relu":
            return np.maximum(z, 0.0), (z > 0.0).astype(np.float64)
        if name == "tanh":
            a = np.tanh(z)
            return a, 1.0 - a * a
        return z, np.ones_like(z)

    def inputs(self):
        # every edge value meets every edge delta, then a stretch of ordinary
        # values long enough for the vectorised loops and their tails
        rng = np.random.default_rng(0)
        k = len(self.EDGES)
        z = np.concatenate([np.repeat(self.EDGES, k), rng.normal(scale=3.0, size=4099)])
        delta = np.concatenate([np.tile(self.EDGES, k), rng.normal(size=4099)])
        return z, delta

    @pytest.mark.parametrize("name", ACTIVATIONS)
    def test_matches_pre_activation_form(self, name):
        z, delta = self.inputs()
        a_old, deriv_old = self.pre_activation_forms(name, z)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = delta * deriv_old
            a = apply_activation(name, z.copy())
            got = activation_derivative(name, a, delta)
        assert a.tobytes() == a_old.tobytes()
        assert got.tobytes() == expected.tobytes()

    def test_relu_kink_pattern_from_output(self):
        z, _ = self.inputs()
        a = apply_activation("relu", z.copy())
        assert (a > 0.0).tobytes() == (z > 0.0).tobytes()
