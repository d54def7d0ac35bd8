import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import skd
from skd import distiller
from skd.dataset import StudentSet, SynthConfig, synthesize
from skd.distiller import (
    TrainConfig,
    TrainingDiverged,
    finetune,
    gradient_check,
    total_loss,
    transfer_student,
)
from skd.selgraph import SelectionMask
from skd.student import StudentArch, forward_trace, init_student, tap_output


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
        assert total_loss(model, sset, None, "c") == pytest.approx(
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
        assert total_loss(model, one, None, "c") == pytest.approx(0.0, abs=1e-10)

    def test_matches_scalar_oracle(self):
        sset = tiny_set(C=3, per_class=4, N=2, seed=5)
        model = init_student(arch_for(sset), seed=9)
        total = total_loss(model, sset, None, "c")
        oracle = 0.0
        for label, xs in zip(sset.labels, sset.inputs):
            for x in xs:
                z = forward_trace(model, np.asarray(x)[None, :])[-1][0]
                z = z - z.max()
                oracle += -(z[label - 1] - math.log(math.fsum(math.exp(v) for v in z)))
        assert total == pytest.approx(oracle, abs=1e-10)


class TestRegressionLoss:
    def test_zero_mask_is_zero(self):
        sset = tiny_set()
        model = init_student(arch_for(sset), seed=1)
        assert total_loss(model, sset, SelectionMask.zeros(len(sset)), "s") == 0.0

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
        assert total_loss(model, sset, SelectionMask.ones(2), "s") == pytest.approx(0.0, abs=0)

    def test_scalar_oracle_single_record(self):
        sset = tiny_set(C=2, per_class=1, N=1, seed=2)
        one = StudentSet(sset.labels[:1], sset.features[:1], sset.inputs[:1], C=2)
        model = init_student(arch_for(sset), seed=4)
        mimic = tap_output(model, np.asarray(one.inputs[0, 0])[None, :], "mimic")
        expected = float(np.sum((mimic[0] - one.features[0]) ** 2))
        got = total_loss(model, one, SelectionMask.ones(1), "s")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mask_length_checked(self):
        sset = tiny_set()
        model = init_student(arch_for(sset), seed=0)
        with pytest.raises(ValueError, match="mask length"):
            total_loss(model, sset, SelectionMask.zeros(3), "s")

    def test_reg_scale(self):
        sset = tiny_set(seed=3)
        model = init_student(arch_for(sset), seed=3)
        base = total_loss(model, sset, SelectionMask.ones(len(sset)), "s")
        scaled = total_loss(model, sset, SelectionMask.ones(len(sset)), "s", reg_scale=0.25)
        assert scaled == pytest.approx(0.25 * base, rel=1e-12)


class TestTotalLoss:
    def test_decomposition(self):
        sset = tiny_set(seed=7)
        model = init_student(arch_for(sset), seed=7)
        mask = SelectionMask(np.random.default_rng(0).integers(0, 2, len(sset)).astype(np.int8))
        total = total_loss(model, sset, mask, "sc")
        parts = total_loss(model, sset, None, "c") + total_loss(model, sset, mask, "s")
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
        c = total_loss(model, sset, None, "c")
        assert total_loss(model, sset, None, "c", reg_scale=7.0, normalize_targets=True) == c
        assert total_loss(model, sset, SelectionMask.zeros(len(sset)), "sc") == c

    def test_s_is_regression_only(self):
        sset = tiny_set(seed=10)
        model = init_student(arch_for(sset), seed=10)
        mask = SelectionMask.ones(len(sset))
        relabeled = StudentSet(np.roll(sset.labels, 1), sset.features, sset.inputs, C=sset.C)
        assert total_loss(model, relabeled, mask, "s") == total_loss(model, sset, mask, "s")
        assert total_loss(model, relabeled, mask, "sc") != total_loss(model, sset, mask, "sc")

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
        trained = finetune(model, sset, None, cfg)
        assert trained.parameter_bytes() == model.parameter_bytes()

    def test_pretrain_reduces_loss(self):
        sset = synthesize(SynthConfig(C=3, per_class_count=10, D=6, d_in=3, N=2,
                                      noise_scale=0.1, seed=12))
        model = init_student(arch_for(sset, trunk=(8,)), seed=12)
        before = total_loss(model, sset, None, "c")
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, epochs=50, seed=2)
        after = total_loss(finetune(model, sset, None, cfg), sset, None, "c")
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
        finetune(model, sset, None, cfg, metrics_path=tmp_path / "m.jsonl")
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        assert [json.loads(l)["epoch"] for l in lines] == [1, 2]
        assert set(json.loads(lines[0])) == {"epoch", "cls", "reg", "total"}

    @pytest.mark.parametrize("supervision", ["c", "sc"])
    def test_metrics_file_does_not_change_training(self, tmp_path, monkeypatch, supervision):
        sset = tiny_set(seed=18)
        model = init_student(arch_for(sset), seed=18)
        mask = SelectionMask(np.arange(len(sset)) % 2)
        cfg = TrainConfig(supervision=supervision, learning_rate=1e-3, batch_size=4,
                          epochs=5, seed=7)
        logged = finetune(model, sset, mask, cfg, metrics_path=tmp_path / "m.jsonl")

        full_passes = []
        inner = distiller.forward_trace

        def counting(m, X, out=None):
            full_passes.append(len(X) == len(sset) * sset.N)
            return inner(m, X, out)

        monkeypatch.setattr(distiller, "forward_trace", counting)
        quiet = finetune(model, sset, mask, cfg)
        assert quiet.parameter_bytes() == logged.parameter_bytes()
        assert sum(full_passes) == 1  # only the final epoch's log pass

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
            finetune(model, sset, None, TrainConfig(supervision="c", epochs=1))

    def test_config_rejects_normalized_targets_for_c(self):
        with pytest.raises(ValueError, match="normalize_targets"):
            TrainConfig(supervision="c", normalize_targets=True)
        TrainConfig(supervision="c", reg_scale=0.3)  # read by no term, but accepted

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(supervision="x")
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "reg_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rates_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            TrainConfig(supervision="c", **{field: value})


class TestEpochLogInLine:
    """The full-set log pass of epoch e runs in line, before epoch e+1 trains.

    It checks the trained terms for divergence and writes its metrics line
    before the next epoch's first step, so a non-finite pass names its own
    epoch and stops the run there. No thread or warning outlives the call.
    """

    @staticmethod
    def poison_log_pass(monkeypatch, sset, at_pass, result=None, exc=None):
        """Make the ``at_pass``-th full-set objective return ``result`` or raise ``exc``.

        Training batches must hold fewer rows than the set, or they count too.
        """
        inner = distiller._objective
        passes = []

        def poisoned(model, acts, y, *args):
            out = inner(model, acts, y, *args)
            if len(y) == len(sset) * sset.N:
                passes.append(1)
                if len(passes) == at_pass:
                    if exc is not None:
                        raise exc
                    return result + out[2:]
            return out

        monkeypatch.setattr(distiller, "_objective", poisoned)

    def test_log_pass_divergence_names_its_epoch(self, tmp_path, monkeypatch):
        sset = tiny_set(seed=19)
        model = init_student(arch_for(sset), seed=19)
        self.poison_log_pass(monkeypatch, sset, at_pass=4, result=(math.inf, 0.0))
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, batch_size=4, epochs=8, seed=1)
        metrics = tmp_path / "m.jsonl"
        threads = threading.active_count()
        with pytest.raises(TrainingDiverged, match=r"at epoch 4 \("):
            finetune(model, sset, None, cfg, metrics_path=metrics)
        assert len(metrics.read_text().splitlines()) == 3
        assert threading.active_count() == threads

    def test_untrained_term_cannot_diverge_a_run(self, tmp_path, monkeypatch):
        sset = tiny_set(seed=19)
        model = init_student(arch_for(sset), seed=19)
        self.poison_log_pass(monkeypatch, sset, at_pass=1, result=(1.5, math.inf))
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, batch_size=4, epochs=3, seed=1)
        metrics = tmp_path / "m.jsonl"
        finetune(model, sset, None, cfg, metrics_path=metrics)
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert [line["epoch"] for line in lines] == [1, 2, 3]
        assert lines[0]["reg"] == math.inf
        assert all(line["total"] == line["cls"] for line in lines)

    # (learning rate, message epoch, SHA-256 of the metrics file), pinned from
    # the loop that ran each log pass in line. At 0.2 a batch of epoch 4
    # diverges after the pass of epoch 3 is written; at 10 the pass of epoch 2
    # is non-finite, so no batch of epoch 3 runs.
    @pytest.mark.parametrize("lr, epoch, digest", [
        (0.2, 4, "3282e76a0a4b869aa2c6e9771dafe63f53104b792401ff22436e5d66907fb66d"),
        (10.0, 2, "13da8cf3e245d88fd1145adee5c619ca01afcaa7f8504d7dec1df271b4ef7488"),
    ])
    def test_divergence_with_a_pass_pending(self, tmp_path, lr, epoch, digest):
        sset = tiny_set(seed=17)
        model = init_student(arch_for(sset), seed=17)
        cfg = TrainConfig(supervision="dc", learning_rate=lr, batch_size=4, epochs=30, seed=6)
        metrics = tmp_path / "m.jsonl"
        threads = threading.active_count()
        with pytest.raises(TrainingDiverged) as info:
            finetune(model, sset, None, cfg, metrics_path=metrics)
        assert str(info.value) == (
            f"non-finite loss at epoch {epoch} (learning rate too high for this data?)"
        )
        assert hashlib.sha256(metrics.read_bytes()).hexdigest() == digest
        assert threading.active_count() == threads

    @pytest.mark.parametrize("metrics_file", [True, False])
    def test_worker_error_keeps_its_type(self, tmp_path, monkeypatch, metrics_file):
        sset = tiny_set(seed=20)
        model = init_student(arch_for(sset), seed=20)
        self.poison_log_pass(monkeypatch, sset, at_pass=1, exc=KeyError("log pass"))
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, batch_size=4, epochs=3, seed=2)
        threads = threading.active_count()
        with pytest.raises(KeyError, match="log pass"):
            finetune(model, sset, None, cfg, tmp_path / "m.jsonl" if metrics_file else None)
        assert threading.active_count() == threads

    def test_no_runtime_warning_escapes_the_worker(self, tmp_path):
        # at lr 10 the log pass of epoch 2 overflows while its batches stay finite
        sset = tiny_set(seed=17)
        model = init_student(arch_for(sset), seed=17)
        cfg = TrainConfig(supervision="dc", learning_rate=10.0, batch_size=4, epochs=30, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="at epoch 2 "):
                finetune(model, sset, None, cfg, metrics_path=tmp_path / "m.jsonl")

    def test_concurrent_calls_under_fast_thread_switching(self, tmp_path):
        sset = tiny_set(seed=22)
        model = init_student(arch_for(sset), seed=22)
        cfg = TrainConfig(supervision="dc", learning_rate=1e-3, batch_size=4, epochs=40, seed=4)
        reference = finetune(model, sset, None, cfg, metrics_path=tmp_path / "ref.jsonl")
        results = {}

        def train(k):
            results[k] = finetune(model, sset, None, cfg, metrics_path=tmp_path / f"{k}.jsonl")

        runs = [threading.Thread(target=train, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        for k in range(4):
            assert results[k].parameter_bytes() == reference.parameter_bytes()
            assert (tmp_path / f"{k}.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_no_thread_outlives_a_normal_return(self, tmp_path):
        sset = tiny_set(seed=21)
        model = init_student(arch_for(sset), seed=21)
        cfg = TrainConfig(supervision="c", learning_rate=1e-3, epochs=4, seed=3)
        threads = threading.active_count()
        finetune(model, sset, None, cfg, metrics_path=tmp_path / "m.jsonl")
        finetune(model, sset, None, cfg)
        assert threading.active_count() == threads

    def test_no_thread_machinery(self, tmp_path):
        # in a fresh process, which no other test has touched. Every module that
        # import skd loads costs start-up time: without cached bytecode, each
        # process compiles it again.
        code = """if True:
            import sys, threading
            import skd
            assert "concurrent.futures" not in sys.modules, "import skd loaded concurrent.futures"
            started = []
            start = threading.Thread.start
            threading.Thread.start = lambda self: (started.append(self.name), start(self))
            sset = skd.synthesize(skd.SynthConfig(C=3, per_class_count=4, D=4, d_in=3, N=2,
                                                  noise_scale=0.1, outlier_fraction=0.0, seed=21))
            arch = skd.StudentArch(input_dim=3, mimic_dim=4, class_count=3, trunk=(6,),
                                   identity_dim=5)
            model = skd.init_student(arch, seed=21)
            cfg = skd.TrainConfig(supervision="dc", learning_rate=1e-3, epochs=4, seed=3)
            threads = threading.active_count()
            skd.finetune(model, sset, None, cfg, metrics_path=sys.argv[1])
            assert threading.active_count() == threads and started == [], started
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(skd.__file__).parent.parent), *filter(None, [env.get("PYTHONPATH")])]
        )
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "m.jsonl")],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert len((tmp_path / "m.jsonl").read_text().splitlines()) == 4


class TestLogPassMemory:
    """The log pass works in buffers that ``_train`` allocates once per call."""

    def case(self):
        # the full set (3,200 rows) dwarfs a batch (16 rows), and the hidden
        # layers are much wider than the teacher feature and the classes
        sset = tiny_set(C=4, per_class=100, D=4, d_in=3, N=8, seed=28)
        model = init_student(arch_for(sset, trunk=(48, 48), identity_dim=48), seed=28)
        mask = SelectionMask(np.arange(len(sset)) % 3 != 0)
        return sset, model, mask

    def test_logged_finetune_peaks_at_the_buffers(self, tmp_path):
        sset, model, mask = self.case()
        cfg = TrainConfig(supervision="sc", learning_rate=1e-3, batch_size=2, epochs=3, seed=12)
        out, work = distiller._log_buffers(model, len(sset) * sset.N)
        owners = {id(a): a for a in (b if b.base is None else b.base for b in (*out, *work))}
        buffer_bytes = sum(a.nbytes for a in owners.values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            finetune(model, sset, mask, cfg, metrics_path=tmp_path / "m.jsonl")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # margin: the full set's label, target and weight columns, the model
        # copy, one batch step and the objective's per-row temporaries. This
        # case peaks at about 1.13x the buffers, and at about 1.77x when each
        # pass allocates its activations and residuals afresh.
        assert peak < 1.25 * buffer_bytes

    def test_log_pass_matches_an_unbuffered_objective(self):
        sset, model, mask = self.case()
        X, y, F, alpha_rows, _, _ = distiller._full_set(model, sset, mask, "sc")
        buffers = distiller._log_buffers(model, len(X))
        for terms in [(True, True), (True, False), (False, True)]:
            expected = distiller._objective(model, forward_trace(model, X), y, F, alpha_rows,
                                            0.7, *terms)[:2]
            assert distiller._log_pass(model, X, y, F, alpha_rows, 0.7, *terms,
                                       buffers) == expected


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
        assert total_loss(model, sset, mask, "s", 0.5, normalize_targets=True) == (
            total_loss(model, unit, mask, "s", 0.5)
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

    def test_frozen_layers_are_checked(self):
        # a transferred model's trunk and mimic layers are frozen; the check
        # still compares their gradients, and the model keeps its flags
        sset = tiny_set(C=3, per_class=3, N=2, seed=26)
        moved = transfer_student(init_student(arch_for(sset), seed=26), new_class_count=3)
        mask = SelectionMask(np.array([1, 0, 1, 1, 0, 1, 1, 1, 0], dtype=np.int8))
        for mode in ("c", "sc"):
            err = gradient_check(moved, sset, mask, mode, epsilon=1e-5, max_coords=200, seed=4)
            assert err < 1e-4, mode
        assert [layer.trainable for layer in moved.layers] == [False, False, True, True]

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
        model = finetune(model, sset, None, cfg)
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

    def test_backward_skips_frozen_layers(self):
        # trainable layers get the gradients of an all-trainable copy, bit for
        # bit; frozen layers below them get none
        sset = tiny_set(C=3, per_class=4, seed=27)
        moved = transfer_student(init_student(arch_for(sset), seed=27), new_class_count=3)
        full = moved.copy()
        for layer in full.layers:
            layer.trainable = True
        X = sset.inputs.reshape(-1, sset.d_in)
        y = np.repeat(sset.labels, sset.N)
        F = np.repeat(sset.features, sset.N, axis=0)
        alpha_rows = np.ones(len(X))
        args = (X, y, F, alpha_rows, True, True, 1.0)
        *losses, grads = distiller._loss_and_grads(moved, *args)
        *full_losses, full_grads = distiller._loss_and_grads(full, *args)
        assert losses == full_losses
        for layer, g, fg in zip(moved.layers, grads, full_grads):
            if layer.trainable:
                assert g[0].tobytes() == fg[0].tobytes() and g[1].tobytes() == fg[1].tobytes()
            else:
                assert g is None

    def test_transfer_deterministic(self):
        sset = tiny_set(seed=25)
        model = init_student(arch_for(sset), seed=25)
        a = transfer_student(model, 4, seed=99)
        b = transfer_student(model, 4, seed=99)
        assert a.parameter_bytes() == b.parameter_bytes()


class TestPinnedNumerics:
    """SHA-256 of parameter bytes, metrics JSONL and batched outputs.

    Covers what ``TestGoldenTrajectory`` in test_cli.py does not: tanh hidden
    layers, a frozen trunk after ``transfer_student``, partial batches, a
    non-unit ``reg_scale`` with normalized targets, and the batched forward
    taps. A refactor of the forward pass or of the training step must leave
    every digest unchanged. Pinned with numpy 2.4 and its bundled OpenBLAS
    on x86-64; another BLAS may round the matrix products differently.
    """

    DIGESTS = {
        "tanh pre params": "6c3e62a9021c86cda5df6aadd87b1de7b9cd0e841deeb118f2db540f527064f1",
        "tanh pre metrics": "0a0d29cf79a0716bfaf2ef9bef015da83960ee492df6255412138e1316e62219",
        "tanh sc params": "ca3437cffcde29c2ef81216023ac43d8b21fd15613d0cdb784908c6ce9a590df",
        "tanh sc metrics": "a8e77e4a586ace808cbc745a5b87d628ba149678d953132d06bca9b5efaaa874",
        "transfer c params": "bddb8134aafc28d69c24bf23469d987b9afac24d97372a6e45952ee9d22ff2bd",
        "transfer c metrics": "2d314bdab9e8e79baa46b369d0aa975f2cca15f8a13d027cc4ed69e351c7e861",
        "transfer sc params": "7459a774e48b70d4d98fb02c86f94111cf69f4b42235c829834569deba127087",
        "transfer sc metrics": "bf4feefe9aed0999c10e16cfbe66f25c7a13013f3be38367076bbfb53342ea6c",
        "forward_batch mimic": "70ae4a8e09b31e60fb209bfb207a3325c655771163b9a124f9e6ac23a57e192b",
        "forward_batch logits": "bf1085a57871415961d578a38af2dfbc4a4a86c2fb9def478ec1c8a452683bb8",
        "tap mimic": "baa8154033b5f2de0edafd6c76d67660a2fbdbdf641e97140119ec1d3d0b4f99",
        "tap identity": "13c5630e32c7ee69cd45be6d03ac7bc626e8a837bcb2e07ccbcb7d7eb50e2262",
    }

    @staticmethod
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def train(self, tmp_path, tag, train_fn, *args):
        metrics = tmp_path / f"{tag}.jsonl"
        model = train_fn(*args, metrics_path=metrics)
        return model, {f"{tag} params": self.sha(model.parameter_bytes()),
                       f"{tag} metrics": self.sha(metrics.read_bytes())}

    def digests(self, tmp_path):
        sset = tiny_set(C=3, per_class=5, D=4, d_in=3, N=2, seed=31)
        mask = SelectionMask(np.arange(len(sset)) % 3 != 1)
        out = {}

        arch = StudentArch(input_dim=sset.d_in, mimic_dim=sset.D, class_count=sset.C,
                           trunk=(6, 5), identity_dim=5, hidden_activation="tanh")
        pre_cfg = TrainConfig(supervision="c", learning_rate=2e-2, batch_size=4,
                              epochs=3, seed=8)
        sc_cfg = TrainConfig(supervision="sc", learning_rate=2e-2, batch_size=4,
                             epochs=3, seed=9, reg_scale=0.3, normalize_targets=True)
        tanh, d = self.train(tmp_path, "tanh pre", finetune,
                             init_student(arch, seed=31), sset, None, pre_cfg)
        out.update(d)
        out.update(self.train(tmp_path, "tanh sc", finetune, tanh, sset, mask, sc_cfg)[1])

        relu = finetune(init_student(arch_for(sset, trunk=(6,)), seed=32), sset, None,
                        pre_cfg)
        moved = transfer_student(relu, new_class_count=sset.C, seed=33)
        c_cfg = TrainConfig(supervision="c", learning_rate=2e-2, batch_size=4,
                            epochs=3, seed=10)
        moved_sc_cfg = TrainConfig(supervision="sc", learning_rate=2e-2, batch_size=4,
                                   epochs=3, seed=11)
        out.update(self.train(tmp_path, "transfer c", finetune, moved, sset, None, c_cfg)[1])
        out.update(self.train(tmp_path, "transfer sc", finetune, moved, sset, mask,
                              moved_sc_cfg)[1])

        X = np.random.default_rng(34).normal(size=(7, sset.d_in))
        acts = forward_trace(tanh, X)
        out["forward_batch mimic"] = self.sha(acts[tanh.mimic_index + 1].tobytes())
        out["forward_batch logits"] = self.sha(acts[-1].tobytes())
        for tap in ("mimic", "identity"):
            out[f"tap {tap}"] = self.sha(tap_output(moved, X, tap).tobytes())
        return out

    def test_digests(self, tmp_path):
        assert self.digests(tmp_path) == self.DIGESTS
