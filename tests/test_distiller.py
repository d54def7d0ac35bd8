import json
import math

import numpy as np
import pytest

from skd.dataset import StudentSet, SynthConfig, synthesize
from skd.distiller import (
    TrainConfig,
    TrainingDiverged,
    classification_loss,
    finetune,
    gradient_check,
    pretrain_student,
    regression_loss,
    total_loss,
    transfer_student,
)
from skd.selgraph import SelectionMask
from skd.student import StudentArch, forward_batch, init_student


def tiny_set(C=3, per_class=4, D=4, d_in=3, N=2, seed=0):
    return synthesize(SynthConfig(C=C, per_class_count=per_class, D=D, d_in=d_in,
                                  N=N, noise_scale=0.1, outlier_fraction=0.0, seed=seed))


def arch_for(sset, trunk=(6,), identity_dim=5):
    return StudentArch(input_dim=sset.d_in, mimic_dim=sset.D,
                       class_count=sset.C, trunk=trunk, identity_dim=identity_dim)


def zeroed(model):
    for layer in model.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    return model


class TestClassificationLoss:
    def test_uniform_logits_is_log_c(self):
        sset = tiny_set(C=4, per_class=2)
        model = zeroed(init_student(arch_for(sset), seed=0))
        n_samples = len(sset) * sset.N
        assert classification_loss(model, sset) == pytest.approx(
            n_samples * math.log(4), abs=1e-10
        )

    def test_confident_correct_goes_to_zero(self):
        sset = tiny_set(C=3, per_class=1, N=1)
        model = zeroed(init_student(arch_for(sset), seed=0))
        # force a huge logit on the true class of every sample via the head bias
        for label in sset.labels:
            model.layers[-1].b[label - 1] = 0.0
        # all records share one label? no: one record per class. Use per-sample
        # check with a single-record set instead.
        one = StudentSet(sset.labels[:1], sset.features[:1], sset.inputs[:1], C=3)
        one.C = 3
        model.layers[-1].b[:] = -50.0
        model.layers[-1].b[one.labels[0] - 1] = 50.0
        # classes 2,3 empty is fine for loss computation (no centroid math here)
        assert classification_loss(model, one) == pytest.approx(0.0, abs=1e-10)

    def test_matches_scalar_oracle(self):
        sset = tiny_set(C=3, per_class=4, N=2, seed=5)
        model = init_student(arch_for(sset), seed=9)
        total = classification_loss(model, sset)
        oracle = 0.0
        for label, xs in zip(sset.labels, sset.inputs):
            for x in xs:
                _, logits = forward_batch(model, np.asarray(x)[None, :])
                z = logits[0]
                z = z - z.max()
                oracle += -(z[label - 1] - math.log(math.fsum(math.exp(v) for v in z)))
        assert total == pytest.approx(oracle, abs=1e-10)


class TestRegressionLoss:
    def test_zero_mask_is_zero(self):
        sset = tiny_set()
        model = init_student(arch_for(sset), seed=1)
        assert regression_loss(model, sset, SelectionMask.zeros(len(sset))) == 0.0

    def test_perfect_mimic_is_zero(self):
        # identity network, targets equal to the inputs
        F = np.array([[0.4, 0.6], [1.0, 0.2]])
        sset = StudentSet([1, 2], F, F[:, None, :], C=2)
        arch = StudentArch(input_dim=2, mimic_dim=2, class_count=2, trunk=(2,),
                           identity_dim=2, hidden_activation="linear",
                           mimic_activation="linear")
        model = init_student(arch, seed=0)
        model.layers[0].W = np.eye(2)
        model.layers[1].W = np.eye(2)
        for l in model.layers:
            l.b[:] = 0.0
        assert regression_loss(model, sset, SelectionMask.ones(2)) == pytest.approx(0.0, abs=0)

    def test_scalar_oracle_single_record(self):
        sset = tiny_set(C=2, per_class=1, N=1, seed=2)
        one = StudentSet(sset.labels[:1], sset.features[:1], sset.inputs[:1], C=2)
        model = init_student(arch_for(sset), seed=4)
        mimic, _ = forward_batch(model, np.asarray(one.inputs[0, 0])[None, :])
        expected = float(np.sum((mimic[0] - one.features[0]) ** 2))
        got = regression_loss(model, one, SelectionMask.ones(1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mask_length_checked(self):
        sset = tiny_set()
        model = init_student(arch_for(sset), seed=0)
        with pytest.raises(ValueError, match="mask length"):
            regression_loss(model, sset, SelectionMask.zeros(3))

    def test_reg_scale(self):
        sset = tiny_set(seed=3)
        model = init_student(arch_for(sset), seed=3)
        base = regression_loss(model, sset, SelectionMask.ones(len(sset)))
        scaled = regression_loss(model, sset, SelectionMask.ones(len(sset)), reg_scale=0.25)
        assert scaled == pytest.approx(0.25 * base, rel=1e-12)


class TestTotalLoss:
    def test_decomposition(self):
        sset = tiny_set(seed=7)
        model = init_student(arch_for(sset), seed=7)
        mask = SelectionMask(np.random.default_rng(0).integers(0, 2, len(sset)).astype(np.int8))
        total = total_loss(model, sset, mask, "sc")
        parts = classification_loss(model, sset) + regression_loss(model, sset, mask)
        assert total == pytest.approx(parts, abs=1e-12)

    def test_dc_equals_sc_with_ones(self):
        sset = tiny_set(seed=8)
        model = init_student(arch_for(sset), seed=8)
        assert total_loss(model, sset, None, "dc") == total_loss(
            model, sset, SelectionMask.ones(len(sset)), "sc"
        )

    def test_c_ignores_regression(self):
        sset = tiny_set(seed=9)
        model = init_student(arch_for(sset), seed=9)
        assert total_loss(model, sset, None, "c") == classification_loss(model, sset)

    def test_s_is_regression_only(self):
        sset = tiny_set(seed=10)
        model = init_student(arch_for(sset), seed=10)
        mask = SelectionMask.ones(len(sset))
        assert total_loss(model, sset, mask, "s") == regression_loss(model, sset, mask)

    def test_unknown_supervision(self):
        sset = tiny_set()
        model = init_student(arch_for(sset), seed=0)
        with pytest.raises(ValueError, match="supervision"):
            total_loss(model, sset, None, "cd")

    def test_s_requires_mask(self):
        sset = tiny_set()
        model = init_student(arch_for(sset), seed=0)
        with pytest.raises(ValueError, match="mask"):
            total_loss(model, sset, None, "s")


class TestTraining:
    def test_zero_lr_leaves_parameters(self):
        sset = tiny_set(seed=11)
        model = init_student(arch_for(sset), seed=11)
        cfg = TrainConfig(supervision="c", learning_rate=0.0, epochs=3, seed=1)
        trained = pretrain_student(model, sset, cfg)
        assert trained.parameter_bytes() == model.parameter_bytes()

    def test_pretrain_reduces_loss(self):
        sset = synthesize(SynthConfig(C=3, per_class_count=10, D=6, d_in=3, N=2,
                                      noise_scale=0.1, seed=12))
        model = init_student(arch_for(sset, trunk=(8,)), seed=12)
        before = classification_loss(model, sset)
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, epochs=50, seed=2)
        after = classification_loss(pretrain_student(model, sset, cfg), sset)
        assert after < before

    def test_finetune_sc_regression_strictly_decreases(self, tmp_path):
        sset = synthesize(SynthConfig(C=3, per_class_count=10, D=6, d_in=3, N=2,
                                      noise_scale=0.1, seed=13))
        model = init_student(arch_for(sset, trunk=(8,)), seed=13)
        cfg = TrainConfig(supervision="sc", learning_rate=5e-4, epochs=12, seed=3)
        metrics = tmp_path / "m.jsonl"
        finetune(model, sset, SelectionMask.ones(len(sset)), cfg, metrics_path=metrics)
        reg = [json.loads(l)["reg"] for l in metrics.read_text().splitlines()]
        assert len(reg) == 12
        assert all(b < a for a, b in zip(reg[:10], reg[1:11]))

    def test_metrics_schema(self, tmp_path):
        sset = tiny_set(seed=14)
        model = init_student(arch_for(sset), seed=14)
        cfg = TrainConfig(supervision="c", learning_rate=1e-4, epochs=2, seed=0)
        pretrain_student(model, sset, cfg, metrics_path=tmp_path / "m.jsonl")
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        assert [json.loads(l)["epoch"] for l in lines] == [1, 2]
        assert set(json.loads(lines[0])) == {"epoch", "cls", "reg", "total"}

    def test_determinism(self):
        sset = tiny_set(seed=15)
        model = init_student(arch_for(sset), seed=15)
        cfg = TrainConfig(supervision="dc", learning_rate=1e-3, epochs=5, seed=4)
        a = finetune(model, sset, None, cfg)
        b = finetune(model, sset, None, cfg)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_masked_record_contributes_no_regression_gradient(self):
        # zeroing-out check: corrupting a masked-out record's teacher feature
        # must not change s-mode training at all
        sset_a = tiny_set(C=2, per_class=3, seed=16)
        sset_b = synthesize(SynthConfig(C=2, per_class_count=3, D=4, d_in=3, N=2,
                                        noise_scale=0.1, outlier_fraction=0.0, seed=16))
        mask = SelectionMask(np.array([0, 1, 1, 1, 1, 1], dtype=np.int8))
        sset_b.features[0] = sset_b.features[0] + 100.0
        model = init_student(arch_for(sset_a), seed=16)
        cfg = TrainConfig(supervision="s", learning_rate=1e-3, epochs=4, seed=5)
        a = finetune(model, sset_a, mask, cfg)
        b = finetune(model, sset_b, mask, cfg)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_divergence_detected(self):
        sset = tiny_set(seed=17)
        model = init_student(arch_for(sset), seed=17)
        cfg = TrainConfig(supervision="dc", learning_rate=1e9, epochs=50, seed=6)
        with pytest.raises(TrainingDiverged, match="learning rate"):
            finetune(model, sset, None, cfg)

    def test_mimic_dim_mismatch(self):
        sset = tiny_set(D=4)
        arch = StudentArch(input_dim=sset.d_in, mimic_dim=5, class_count=sset.C,
                           trunk=(4,), identity_dim=4)
        model = init_student(arch, seed=0)
        with pytest.raises(ValueError, match="mimic dim"):
            pretrain_student(model, sset, TrainConfig(supervision="c", epochs=1))

    @pytest.mark.parametrize("settings", [
        dict(supervision="sc"), dict(supervision="s"), dict(supervision="dc"),
        dict(supervision="c", normalize_targets=True),
    ])
    def test_pretrain_rejects_regression_settings(self, settings):
        sset = tiny_set(seed=18)
        model = init_student(arch_for(sset), seed=18)
        with pytest.raises(ValueError, match="classification-only"):
            pretrain_student(model, sset, TrainConfig(epochs=1, **settings))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(supervision="x")
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1)


class TestNormalizeTargets:
    """normalize_targets acts exactly as unit-normalizing the teacher features."""

    def test_finetune_and_regression_loss_match_normalized_set(self):
        sset = tiny_set(C=3, per_class=4, D=5, seed=26)
        unit = tiny_set(C=3, per_class=4, D=5, seed=26)
        F = unit.features
        F = F / np.maximum(np.linalg.norm(F, axis=1, keepdims=True), 1e-300)
        for i, f in enumerate(F):
            unit.features[i] = f
        model = init_student(arch_for(sset), seed=26)
        mask = SelectionMask(np.array([1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1], dtype=np.int8))
        cfg = dict(supervision="sc", learning_rate=1e-2, epochs=4, seed=8, reg_scale=0.5)
        normalized = finetune(model, sset, mask, TrainConfig(normalize_targets=True, **cfg))
        plain = finetune(model, unit, mask, TrainConfig(**cfg))
        assert normalized.parameter_bytes() == plain.parameter_bytes()
        raw = finetune(model, sset, mask, TrainConfig(**cfg))
        assert raw.parameter_bytes() != plain.parameter_bytes()
        assert regression_loss(model, sset, mask, 0.5, normalize_targets=True) == (
            regression_loss(model, unit, mask, 0.5)
        )


class TestGradientCheck:
    def test_linear_model_quadratic_loss(self):
        sset = tiny_set(C=2, per_class=2, N=1, seed=18)
        arch = StudentArch(input_dim=sset.d_in, mimic_dim=sset.D, class_count=2,
                           trunk=(4,), identity_dim=3,
                           hidden_activation="linear", mimic_activation="linear")
        model = init_student(arch, seed=18)
        err = gradient_check(model, sset, SelectionMask.ones(len(sset)), "s")
        assert err < 1e-7

    def test_all_supervision_modes(self):
        sset = tiny_set(C=3, per_class=3, N=2, seed=19)
        model = init_student(arch_for(sset), seed=19)
        mask = SelectionMask(np.array([1, 0, 1, 1, 0, 1, 1, 1, 0], dtype=np.int8))
        for mode in ("c", "s", "sc", "dc"):
            err = gradient_check(model, sset, mask, mode, epsilon=1e-5, seed=3)
            assert err < 1e-4, mode

    def test_zero_gradient_point(self):
        sset = tiny_set(seed=20)
        model = init_student(arch_for(sset), seed=20)
        err = gradient_check(model, sset, SelectionMask.zeros(len(sset)), "s")
        assert err < 1e-8  # absolute fallback at an all-zero gradient

    def test_rejects_big_models(self):
        sset = tiny_set(D=4)
        arch = StudentArch(input_dim=sset.d_in, mimic_dim=sset.D,
                           class_count=sset.C, trunk=(128, 128), identity_dim=64)
        model = init_student(arch, seed=0)
        with pytest.raises(ValueError, match="small models"):
            gradient_check(model, sset, None, "c")


class TestTransfer:
    def test_frozen_bytes_invariant_under_training(self):
        sset = tiny_set(C=3, per_class=4, seed=21)
        model = init_student(arch_for(sset), seed=21)
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, epochs=3, seed=7)
        model = pretrain_student(model, sset, cfg)
        moved = transfer_student(model, new_class_count=3)
        frozen_before = moved.frozen_parameter_bytes()
        trained = finetune(moved, sset, None, cfg)
        assert trained.frozen_parameter_bytes() == frozen_before
        # unfrozen layers did move
        assert trained.parameter_bytes() != moved.parameter_bytes()

    def test_same_class_count_reinitializes_head(self):
        sset = tiny_set(seed=22)
        model = init_student(arch_for(sset), seed=22)
        moved = transfer_student(model, new_class_count=sset.C)
        assert moved.layers[-1].W.shape == model.layers[-1].W.shape
        assert not np.array_equal(moved.layers[-1].W, model.layers[-1].W)
        assert not np.array_equal(moved.layers[-2].W, model.layers[-2].W)
        # trunk and mimic copied verbatim, frozen
        for k in range(moved.mimic_index + 1):
            assert np.array_equal(moved.layers[k].W, model.layers[k].W)
            assert not moved.layers[k].trainable

    def test_head_resized(self):
        sset = tiny_set(seed=23)
        model = init_student(arch_for(sset), seed=23)
        moved = transfer_student(model, new_class_count=7)
        assert moved.layers[-1].W.shape[0] == 7
        assert moved.arch.class_count == 7

    def test_class_count_bound(self):
        sset = tiny_set(seed=24)
        model = init_student(arch_for(sset), seed=24)
        with pytest.raises(ValueError):
            transfer_student(model, new_class_count=1)

    def test_transfer_deterministic(self):
        sset = tiny_set(seed=25)
        model = init_student(arch_for(sset), seed=25)
        a = transfer_student(model, 4, seed=99)
        b = transfer_student(model, 4, seed=99)
        assert a.parameter_bytes() == b.parameter_bytes()
