import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import skd
from skd import distiller, mincut
from skd.cli import _parse_grid, main
from skd.dataset import load_student_set, save_student_set
from skd.distiller import total_loss
from skd.mincut import load_mask, save_mask
from skd.selgraph import SelectionMask
from skd.student import StudentArch, init_student, load_checkpoint, save_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_args(out, classes=3, per_class=6, teacher_dim=8, input_dim=3, versions=2,
               noise=0.1, outlier_fraction=0.0, seed=0):
    return [
        "synth", "--classes", str(classes), "--per-class", str(per_class),
        "--teacher-dim", str(teacher_dim), "--input-dim", str(input_dim),
        "--versions", str(versions), "--noise", str(noise),
        "--outlier-fraction", str(outlier_fraction), "--seed", str(seed),
        "--out", str(out),
    ]


@pytest.fixture
def toy_set(tmp_path):
    out = tmp_path / "toy.skd"
    assert main(synth_args(out)) == 0
    return out


class TestSynth:
    def test_writes_parseable_set_and_echo(self, toy_set):
        sset = load_student_set(toy_set)
        assert len(sset) == 18
        echo = json.loads((toy_set.parent / "toy.skd.config.json").read_text())
        assert echo["command"] == "synth"
        assert echo["args"]["seed"] == 0


class TestSelect:
    def test_lambda_zero_gives_empty_mask(self, toy_set, tmp_path):
        mask_path = tmp_path / "m.mask"
        assert main(["select", "--set", str(toy_set), "--lambda", "0",
                     "--out", str(mask_path)]) == 0
        mask, lam = load_mask(mask_path)
        assert lam == 0.0
        assert mask.selected_count == 0

    def test_negative_lambda_selects(self, toy_set, tmp_path):
        mask_path = tmp_path / "m.mask"
        assert main(["select", "--set", str(toy_set), "--lambda", "-64",
                     "--out", str(mask_path)]) == 0
        mask, _ = load_mask(mask_path)
        assert mask.selected_count > 0

    def test_positive_lambda_invalid(self, toy_set, tmp_path):
        code = main(["select", "--set", str(toy_set), "--lambda", "2",
                     "--out", str(tmp_path / "m.mask")])
        assert code == 5


class TestSelectMemory:
    """A one-shot select holds the set's features plus one class's block and cut.

    It builds, solves and frees one class at a time, so no select holds every
    class's block at once.
    """

    def test_select_peaks_near_the_edge_arrays(self, tmp_path):
        # 4 x 200 faces, 79,600 edges, with 16-d features and one 4-d input
        # version per face: at the benchmark's 128-d features and 4 x 8-d
        # inputs, parsing the set (3.9 MB) would peak above the graph here
        path = tmp_path / "s.skd"
        assert main(synth_args(path, classes=4, per_class=200, teacher_dim=16, input_dim=4,
                               versions=1, noise=0.005, outlier_fraction=0.1, seed=3)) == 0
        # The unit of the bounds below: 12 bytes per edge, as uint16 endpoints
        # and float64 weights (200-face blocks take uint8 endpoints, 10 bytes).
        block_bytes = 4 * (200 * 199 // 2) * (2 + 2 + 8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["select", "--set", str(path), "--lambda", "-0.05",
                         "--out", str(tmp_path / "m.mask")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # This select peaks at about 2.04x the unit (1.95 MB): one class's
        # block and its flow network with the network's temporaries. Holding
        # every class's block through the solve peaks at about 2.55x (2.44 MB),
        # and flat int64/int64/float64 edge arrays at about 3.9x (3.71 MB).
        assert peak < 2.3 * block_bytes


class TestBlasThreads:
    """Energies are numpy sums, so they do not follow the BLAS thread count."""

    def test_select_and_sweep_print_the_same_at_one_and_two_threads(self, tmp_path):
        # 3 x 120 faces: 21,420 edges, more than the 10,000 elements above
        # which OpenBLAS splits one dot product across its threads
        path = tmp_path / "s.skd"
        assert main(synth_args(path, classes=3, per_class=120, teacher_dim=16, input_dim=4,
                               versions=1, noise=0.2, seed=4)) == 0
        src = str(Path(skd.__file__).parent.parent)
        pythonpath = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            out = tmp_path / threads
            out.mkdir()

            def run(*argv):
                return subprocess.run([sys.executable, "-m", "skd.cli", *argv, "--set", str(path)],
                                      env=env, cwd=out, capture_output=True, text=True,
                                      check=True).stdout

            outputs.append((run("select", "--lambda", "-0.05", "--out", "m.mask"),
                            run("sweep", "--out", "sweep.csv"),
                            (out / "sweep.csv").read_bytes()))
        assert "energy -" in outputs[0][0]
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_csv_and_grid(self, toy_set, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--set", str(toy_set), "--grid", "pow2:-8..0",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,count,energy,pairwise_reward"
        lams = [float(l.split(",")[0]) for l in lines[1:]]
        assert lams == [-8.0, -4.0, -2.0, -1.0, 0.0]
        counts = [int(l.split(",")[1]) for l in lines[1:]]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_list_grid(self, toy_set, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--set", str(toy_set), "--grid", "list:-3,-1,0",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_bad_grid_spec(self, toy_set, tmp_path):
        assert main(["sweep", "--set", str(toy_set), "--grid", "geom:1..2",
                     "--out", str(tmp_path / "s.csv")]) == 5

    @pytest.mark.parametrize("spec, grid", [
        ("pow2:-8192..0", [-(2.0**k) for k in range(13, -1, -1)] + [0.0]),
        ("pow2:-8..-0.5", [-8.0, -4.0, -2.0, -1.0]),
        ("pow2:-8..5", [-8.0, -4.0, -2.0, -1.0]),
        ("list:0,-1,-3", [-3.0, -1.0, 0.0]),
    ])
    def test_grid_values(self, spec, grid):
        assert _parse_grid(spec) == grid

    def test_pow2_grid_reaches_largest_finite_power(self):
        grid = _parse_grid("pow2:-1e308..0")
        assert len(grid) == 1025 and grid[0] == -(2.0**1023) and grid[-2:] == [-1.0, 0.0]

    @pytest.mark.parametrize("spec", ["pow2:-inf..0", "pow2:nan..0", "pow2:-8..inf",
                                      "pow2:-1..-2", "pow2:-0.5..-0.25", "pow2:-0.5..0"])
    def test_invalid_pow2_grid_exit_5(self, toy_set, tmp_path, spec):
        assert main(["sweep", "--set", str(toy_set), "--grid", spec,
                     "--out", str(tmp_path / "s.csv")]) == 5

    def test_repeated_lambda_exit_5_before_any_solve(self, toy_set, tmp_path, capsys,
                                                      monkeypatch):
        solves, solve = [], mincut.minimize
        monkeypatch.setattr(mincut, "minimize", lambda *args: solves.append(args) or solve(*args))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--set", str(toy_set), "--grid", "list:-1,-1,0",
                     "--out", str(out)]) == 5
        assert "lambda -1.0 repeats in the grid" in capsys.readouterr().err
        assert solves == [] and not out.exists()


class TestScaleInvariance:
    """Select and normalized targets read only the directions of the teacher features."""

    @pytest.fixture
    def sets(self, tmp_path):
        """The same 4 x 10 set at feature scales 2**k; a power of two keeps every value exact.

        At 2**530 the squares in a feature's norm overflow, at 2**-565 they underflow.
        """
        base = tmp_path / "s0.skd"
        assert main(synth_args(base, classes=4, per_class=10, teacher_dim=16, input_dim=4,
                               versions=2, noise=0.005, outlier_fraction=0.1, seed=3)) == 0
        sset = load_student_set(base)
        paths = {0: base}
        for k in (530, -565):
            paths[k] = tmp_path / f"s{k}.skd"
            save_student_set(replace(sset, features=np.ldexp(sset.features, k)), paths[k])
        return paths

    def test_select_keeps_its_mask_and_energy(self, sets, tmp_path, capsys):
        def select(k):
            out = tmp_path / f"m{k}.mask"
            capsys.readouterr()
            assert main(["select", "--set", str(sets[k]), "--lambda", "-1",
                         "--out", str(out)]) == 0
            return out.read_bytes(), capsys.readouterr().out.split(" -> ")[0]

        reference = select(0)
        assert reference[1].startswith("lambda=-1.0: selected 36/40 (energy ")
        for k in (530, -565):
            assert select(k) == reference, k

    def test_normalized_targets_keep_the_checkpoint(self, sets, tmp_path):
        pre = tmp_path / "pre.ckpt"
        assert main(["pretrain", "--set", str(sets[0]), "--epochs", "3", "--lr", "1e-3",
                     "--seed", "3", "--hidden", "6,6", "--identity-dim", "8",
                     "--out", str(pre)]) == 0

        def finetune(k):
            out = tmp_path / f"f{k}.ckpt"
            assert main(["finetune", "--set", str(sets[k]), "--ckpt", str(pre),
                         "--supervision", "dc", "--normalize-targets", "--epochs", "3",
                         "--lr", "1e-3", "--seed", "3", "--out", str(out)]) == 0
            return out.read_bytes()

        reference = finetune(0)
        for k in (530, -565):
            assert finetune(k) == reference, k


class TestErrors:
    def test_missing_file_exit_3(self, tmp_path):
        assert main(["select", "--set", str(tmp_path / "nope.skd"),
                     "--lambda", "0", "--out", str(tmp_path / "m")]) == 3

    def test_malformed_file_exit_4(self, tmp_path):
        bad = tmp_path / "bad.skd"
        bad.write_text("SKD1 not a header\n")
        assert main(["select", "--set", str(bad), "--lambda", "0",
                     "--out", str(tmp_path / "m")]) == 4

    def test_usage_error_exit_2(self):
        assert main(["select"]) == 2

    WRITERS = ["synth", "graph", "select", "sweep", "pretrain", "pretrain-metrics", "finetune",
               "finetune-metrics", "eval"]

    @staticmethod
    def run_writer(command, out, toy_set, tmp_path, capsys, monkeypatch):
        """(exit code, captured output) of ``command`` writing ``out``, its ``--out``
        or, for a ``-metrics`` case, its ``--metrics``; no solve or training may run."""
        ckpt = tmp_path / "s.ckpt"
        save_checkpoint(init_student(StudentArch(input_dim=3, mimic_dim=8, class_count=3,
                                                 trunk=(4,), identity_dim=4), seed=0), ckpt)
        calls = []
        for module, name in ((mincut, "minimize"), (skd.cli, "minimize"),
                             (distiller, "finetune"), (skd.cli, "finetune")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args))
        train = ["--set", str(toy_set), "--epochs", "1"]
        finetune = ["finetune", *train, "--ckpt", str(ckpt), "--supervision", "c"]
        argv = {
            "synth": synth_args(out),
            "graph": ["graph", "dump", "--set", str(toy_set), "--out", str(out)],
            "select": ["select", "--set", str(toy_set), "--lambda", "-1", "--out", str(out)],
            "sweep": ["sweep", "--set", str(toy_set), "--out", str(out)],
            "pretrain": ["pretrain", *train, "--out", str(out)],
            "pretrain-metrics": ["pretrain", *train, "--out", str(tmp_path / "p.ckpt"),
                                 "--metrics", str(out)],
            "finetune": [*finetune, "--out", str(out)],
            "finetune-metrics": [*finetune, "--out", str(tmp_path / "f.ckpt"),
                                 "--metrics", str(out)],
            "eval": ["eval", "--set", str(toy_set), "--ckpt", str(ckpt), "--out", str(out)],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        return code, json.loads(captured.err)

    @pytest.mark.parametrize("command", WRITERS)
    def test_missing_output_directory_exit_3_before_any_work(self, toy_set, tmp_path, capsys,
                                                             monkeypatch, command):
        nodir = tmp_path / "nodir"
        assert self.run_writer(command, nodir / "out", toy_set, tmp_path, capsys,
                               monkeypatch) == (3, {"error": "missing_file",
                                                    "detail": f"missing output directory: {nodir}"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ckpt", "toy.skd",
                                                              "toy.skd.config.json"]

    @pytest.mark.parametrize("command", WRITERS)
    def test_output_path_that_is_a_directory_exit_5_before_any_work(
            self, toy_set, tmp_path, capsys, monkeypatch, command):
        adir = tmp_path / "adir"
        adir.mkdir()
        assert self.run_writer(command, adir, toy_set, tmp_path, capsys,
                               monkeypatch) == (5, {"error": "invalid",
                                                    "detail": f"output path is a directory: {adir}"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "s.ckpt", "toy.skd",
                                                              "toy.skd.config.json"]
        assert list(adir.iterdir()) == []

    @pytest.mark.parametrize("task", ["verify", "identify", "retrieve"])
    def test_input_width_mismatch_exit_5(self, tmp_path, capsys, task):
        path, ckpt = tmp_path / "narrow.skd", tmp_path / "s.ckpt"
        assert main(synth_args(path, input_dim=1)) == 0
        save_checkpoint(init_student(StudentArch(input_dim=3, mimic_dim=8, class_count=3,
                                                 trunk=(4,), identity_dim=4), seed=0), ckpt)
        capsys.readouterr()
        assert main(["eval", "--set", str(path), "--ckpt", str(ckpt), "--task", task]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "invalid",
                                            "detail": "model input dim 3 != set input dim 1"}


class TestMalformedCheckpoint:
    """Every malformed checkpoint is a format error: exit 4, never a traceback."""

    @pytest.fixture
    def good_ckpt(self, tmp_path):
        arch = StudentArch(input_dim=3, mimic_dim=8, class_count=3, trunk=(4,), identity_dim=4)
        path = tmp_path / "good.ckpt"
        save_checkpoint(init_student(arch, seed=0), path)
        return path

    def eval_outcome(self, toy_set, ckpt, capsys):
        """(exit code, error kind printed on stderr) of ``skd eval --ckpt``."""
        code = main(["eval", "--set", str(toy_set), "--ckpt", str(ckpt), "--task", "identify"])
        err = capsys.readouterr().err.strip().splitlines()
        return code, json.loads(err[-1])["error"] if err else None

    def test_bad_magic(self, toy_set, good_ckpt, capsys):
        good_ckpt.write_bytes(b"NOTACKPT" + good_ckpt.read_bytes()[8:])
        assert self.eval_outcome(toy_set, good_ckpt, capsys) == (4, "format")

    def test_truncated_payload(self, toy_set, good_ckpt, capsys):
        good_ckpt.write_bytes(good_ckpt.read_bytes()[:-9])
        assert self.eval_outcome(toy_set, good_ckpt, capsys) == (4, "format")

    @staticmethod
    def replace_metadata(ckpt, meta: bytes):
        magic, _, rest = ckpt.read_bytes().partition(b"\n")
        ckpt.write_bytes(magic + b"\n" + meta + b"\n" + rest.partition(b"\n")[2])

    def test_non_json_metadata(self, toy_set, good_ckpt, capsys):
        self.replace_metadata(good_ckpt, b"{not json")
        assert self.eval_outcome(toy_set, good_ckpt, capsys) == (4, "format")

    def test_empty_metadata_object(self, toy_set, good_ckpt, capsys):
        self.replace_metadata(good_ckpt, b"{}")
        assert self.eval_outcome(toy_set, good_ckpt, capsys) == (4, "format")

    # Each edit leaves valid JSON whose layers disagree with its arch (the
    # checkpoint has a 3-class head and one trunk layer) or a non-bool flag.
    DOCTORS = {
        "class-count": lambda meta: meta["arch"].update(class_count=5),
        "trunk": lambda meta: meta["arch"].update(trunk=[4, 4]),
        "activation": lambda meta: meta["layers"][0].update(activation="sigmoid"),
        "trainable": lambda meta: meta["layers"][0].update(trainable=1),
    }

    # Each edit leaves a float or a bool where a JSON integer belongs; int()
    # would read each as a plausible size or seed.
    NON_INTEGERS = {
        "seed-float": lambda meta: meta.update(seed=7.9),
        "seed-bool": lambda meta: meta.update(seed=True),
        "input-dim-float": lambda meta: (meta["arch"].update(input_dim=3.0),
                                         meta["layers"][0].update(fan_in=3.0)),
        "trunk-float": lambda meta: meta["arch"].update(trunk=[4.0]),
        "fan-out-float": lambda meta: meta["layers"][-1].update(fan_out=3.0),
    }

    @pytest.mark.parametrize("command", ["eval", "bench", "finetune"])
    @pytest.mark.parametrize("doctor", sorted(DOCTORS))
    def test_layers_disagreeing_with_arch_exit_4(self, toy_set, good_ckpt, tmp_path, capsys,
                                                 doctor, command):
        self.assert_doctored_exit_4(self.DOCTORS[doctor], command, toy_set, good_ckpt,
                                    tmp_path, capsys)

    @pytest.mark.parametrize("command", ["eval", "bench", "finetune"])
    @pytest.mark.parametrize("doctor", sorted(NON_INTEGERS))
    def test_non_integer_sizes_exit_4(self, toy_set, good_ckpt, tmp_path, capsys,
                                      doctor, command):
        self.assert_doctored_exit_4(self.NON_INTEGERS[doctor], command, toy_set, good_ckpt,
                                    tmp_path, capsys)

    def assert_doctored_exit_4(self, doctor, command, toy_set, good_ckpt, tmp_path, capsys):
        meta = json.loads(good_ckpt.read_bytes().split(b"\n")[1])
        doctor(meta)
        self.replace_metadata(good_ckpt, json.dumps(meta, sort_keys=True).encode("ascii"))
        argv = {
            "eval": ["eval", "--set", str(toy_set), "--task", "identify"],
            "bench": ["bench"],
            "finetune": ["finetune", "--set", str(toy_set), "--supervision", "c",
                         "--epochs", "1", "--out", str(tmp_path / "ft.ckpt")],
        }[command]
        assert main(argv + ["--ckpt", str(good_ckpt)]) == 4
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "format"


class TestPipeline:
    def run_pipeline(self, tmp_path, tag, supervision="sc", seed=3):
        d = tmp_path / tag
        d.mkdir()
        sset = d / "set.skd"
        mask = d / "sel.mask"
        pre = d / "pre.ckpt"
        fin = d / "fin.ckpt"
        assert main(synth_args(sset, classes=3, per_class=8, teacher_dim=8,
                               input_dim=3, versions=2, seed=seed)) == 0
        assert main(["select", "--set", str(sset), "--lambda", "-64",
                     "--out", str(mask)]) == 0
        assert main(["pretrain", "--set", str(sset), "--epochs", "4", "--lr", "1e-3",
                     "--seed", str(seed), "--hidden", "6,6", "--identity-dim", "8",
                     "--out", str(pre)]) == 0
        args = ["finetune", "--set", str(sset), "--ckpt", str(pre),
                "--supervision", supervision, "--epochs", "4", "--lr", "1e-3",
                "--seed", str(seed), "--out", str(fin)]
        if supervision in ("s", "sc"):
            args += ["--mask", str(mask)]
        assert main(args) == 0
        return d

    def test_full_pipeline_deterministic_hashes(self, tmp_path):
        d1 = self.run_pipeline(tmp_path, "run1")
        d2 = self.run_pipeline(tmp_path, "run2")
        for name in ("set.skd", "sel.mask", "pre.ckpt", "fin.ckpt",
                     "pre.ckpt.metrics.jsonl", "fin.ckpt.metrics.jsonl"):
            assert sha(d1 / name) == sha(d2 / name), name

    def test_eval_verify_and_identify(self, tmp_path):
        d = self.run_pipeline(tmp_path, "rune")
        out = d / "eval.json"
        assert main(["eval", "--set", str(d / "set.skd"), "--ckpt", str(d / "fin.ckpt"),
                     "--task", "verify", "--pairs", "20", "--seed", "1",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["auc"] <= 1.0
        assert main(["eval", "--set", str(d / "set.skd"), "--ckpt", str(d / "fin.ckpt"),
                     "--task", "identify"]) == 0
        assert main(["eval", "--set", str(d / "set.skd"), "--ckpt", str(d / "fin.ckpt"),
                     "--task", "retrieve"]) == 0

    def test_dc_equals_sc_with_all_ones_mask(self, tmp_path):
        d = self.run_pipeline(tmp_path, "dc", supervision="dc")
        sset = load_student_set(d / "set.skd")
        ones = d / "ones.mask"
        save_mask(ones, SelectionMask.ones(len(sset)), 0.0)
        fin2 = d / "fin_sc_ones.ckpt"
        assert main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                     "--supervision", "sc", "--mask", str(ones), "--epochs", "4",
                     "--lr", "1e-3", "--seed", "3", "--out", str(fin2)]) == 0
        a = load_checkpoint(d / "fin.ckpt")
        b = load_checkpoint(fin2)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_sc_with_lambda_zero_mask_matches_c(self, tmp_path):
        # select --lambda 0 yields the all-zeros mask, so sc degenerates to c
        d = self.run_pipeline(tmp_path, "lz", supervision="c")
        zeros = d / "zeros.mask"
        assert main(["select", "--set", str(d / "set.skd"), "--lambda", "0",
                     "--out", str(zeros)]) == 0
        fin2 = d / "fin_sc_zeros.ckpt"
        assert main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                     "--supervision", "sc", "--mask", str(zeros), "--epochs", "4",
                     "--lr", "1e-3", "--seed", "3", "--out", str(fin2)]) == 0
        a = load_checkpoint(d / "fin.ckpt")
        b = load_checkpoint(fin2)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_finetune_sc_requires_mask(self, tmp_path):
        d = self.run_pipeline(tmp_path, "nomask", supervision="c")
        code = main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                     "--supervision", "sc", "--epochs", "1",
                     "--out", str(d / "x.ckpt")])
        assert code == 5

    def test_finetune_c_rejects_normalize_targets(self, tmp_path):
        d = self.run_pipeline(tmp_path, "cnorm", supervision="c")
        code = main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                     "--supervision", "c", "--normalize-targets", "--epochs", "1",
                     "--out", str(d / "x.ckpt")])
        assert code == 5

    def test_finetune_mask_length_mismatch_exit_5(self, tmp_path):
        d = self.run_pipeline(tmp_path, "short", supervision="c")
        short = d / "short.mask"
        save_mask(short, SelectionMask.ones(5), -1.0)
        code = main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                     "--supervision", "sc", "--mask", str(short), "--epochs", "1",
                     "--out", str(d / "x.ckpt")])
        assert code == 5

    def test_c_and_dc_ignore_mask_file(self, tmp_path):
        # only s/sc read --mask, so c/dc succeed with a mask path that is missing
        d = self.run_pipeline(tmp_path, "nomask", supervision="c")
        for mode in ("c", "dc"):
            code = main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                         "--supervision", mode, "--mask", str(d / "gone.mask"),
                         "--epochs", "1", "--out", str(d / f"{mode}.ckpt")])
            assert code == 0

    def test_rerun_old_finetune_echo_with_measure_and_lambda(self, tmp_path):
        # finetune echoes once recorded --measure and --lambda; rerun ignores them
        d = self.run_pipeline(tmp_path, "oldecho")
        echo_path = d / "fin.ckpt.config.json"
        echo = json.loads(echo_path.read_text())
        echo["args"].update({"measure": "cossim", "lam": -1.0})
        echo_path.write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
        original = (d / "fin.ckpt").read_bytes()
        (d / "fin.ckpt").unlink()
        assert main(["rerun", str(echo_path)]) == 0
        assert (d / "fin.ckpt").read_bytes() == original

    def test_rerun_from_echo_reproduces(self, tmp_path):
        d = self.run_pipeline(tmp_path, "echo")
        mask_path = d / "sel.mask"
        original = mask_path.read_bytes()
        mask_path.unlink()
        assert main(["rerun", str(d / "sel.mask.config.json")]) == 0
        assert mask_path.read_bytes() == original

    def test_graph_dump(self, tmp_path, toy_set=None):
        d = self.run_pipeline(tmp_path, "gd")
        out = d / "graph.txt"
        assert main(["graph", "dump", "--set", str(d / "set.skd"),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("SKDGRAPH1 24 3 ")

    def test_bench_reports_json(self, tmp_path, capsys):
        d = self.run_pipeline(tmp_path, "bench")
        assert main(["bench", "--ckpt", str(d / "fin.ckpt"), "--batch", "8",
                     "--repeat", "3"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["parameter_count"] > 0
        assert payload["checkpoint_bytes"] == (d / "fin.ckpt").stat().st_size
        # float64 parameters plus the magic and metadata lines
        assert payload["checkpoint_bytes"] > 8 * payload["parameter_count"]
        assert payload["inferences_per_sec"] > 0

    @pytest.mark.parametrize("sizes", [["--repeat", "-3"], ["--repeat", "0"], ["--batch", "0"],
                                       ["--batch", "-1", "--repeat", "5"]])
    def test_bench_sizes_below_1_exit_5(self, tmp_path, capsys, sizes):
        ckpt = tmp_path / "s.ckpt"
        arch = StudentArch(input_dim=3, mimic_dim=8, class_count=3, trunk=(4,), identity_dim=4)
        save_checkpoint(init_student(arch, seed=0), ckpt)
        assert main(["bench", "--ckpt", str(ckpt), *sizes]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= 1" in captured.err

    def test_divergence_exit_6(self, tmp_path):
        d = self.run_pipeline(tmp_path, "div", supervision="c")
        code = main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                     "--supervision", "dc", "--epochs", "60", "--lr", "1e9",
                     "--out", str(d / "boom.ckpt")])
        assert code == 6


class TestGraphDumpGolden:
    """`skd graph dump` bytes of the benchmark's sets at the desk (10 x 30) and
    stress (10 x 300) shapes.

    Small classes pin what the stress sets cannot: a class's rows multiplied
    apart from the rest can round differently in the last bit (at 10 x 30,
    2,204 of 3,000 face-centroid cosines did), and only the unary rows of a
    dump show it.
    """

    @pytest.mark.parametrize("measure, per_class, seed, digest", [
        ("cossim", 30, 7, "566232313c102608a2c7e8fc7a32120bae09b05f3afefb14bf41e4c1207b8e18"),
        ("cossim", 30, 1811, "556c3d7fff22776ba18b7f957d024bbb58e5c4ed1cf8b7b1535ca5031d59d43e"),
        ("cossim", 300, 7, "934be73bbd68826b3ef02110623154226079a2a7f0f1b867e97e35fb75540bab"),
        ("cosdist", 30, 7, "cab76c4204d0268fc017af7c77dca934512a7db231fdf4ec97b01dc81f757eb4"),
        ("cosdist", 30, 1811, "fc60f6ee2db8a495a478d2bc77e5ebba5f25d791684f63483be421d168678893"),
        ("cosdist", 300, 7, "31b3f8a52c9bdc88bae3fe737b0099f9fbfbafca246ffcbfa67b461e2c342235"),
    ], ids=["10x30-seed7", "10x30-seed1811", "10x300-seed7",
            "cosdist-10x30-seed7", "cosdist-10x30-seed1811", "cosdist-10x300-seed7"])
    def test_digest(self, tmp_path, measure, per_class, seed, digest):
        path = tmp_path / "set.skd"
        assert main(synth_args(path, classes=10, per_class=per_class, teacher_dim=128,
                               input_dim=8, versions=4, noise=0.005, outlier_fraction=0.1,
                               seed=seed)) == 0
        assert main(["graph", "dump", "--set", str(path), "--measure", measure,
                     "--out", str(tmp_path / "g.txt")]) == 0
        assert sha(tmp_path / "g.txt") == digest


class TestEvalGolden:
    """`skd eval` JSON bytes of every task and tap on a pretrained desk-shape model."""

    DIGESTS = {
        7: {
            ("verify", "mimic"): "8b7897a544f974a22f29a93bced76dfd58775d41b692f3080be10c0b7fd0fcfd",
            ("identify", "mimic"): "fe326ff69f6c0005014abefdddd7131b4867ea133e3f236c9c8c0edd260cb33b",
            ("retrieve", "mimic"): "57dab017a789fd6be7519f8fb4fb0e4afa8fc77de2771bc7e5d3d109fa45f402",
            ("retrieve", "identity"):
                "aa79e944bd951d87512ff48da5fe7c04b23f8d54d6e180d34c7796779ef7ad79",
        },
        1811: {
            ("verify", "mimic"): "fe90837e7e7eaa0afaf8e249d0f4f465578fe17fb27adabc6b5671af9673c2a9",
            ("identify", "mimic"): "5bf5d02601c3932034e803f4ddea7293bb74d359235a15ed7b3e15ed2d7500ee",
            ("retrieve", "mimic"): "d40a32ed085acf2e999915d1eddbcd0ce686f46dc2ce68909b23ffbdf679ffc7",
            ("retrieve", "identity"):
                "34cb9c30bf91cd9de0b66013c20dee106e7be09cf8760e8f0fa3268bbe9f7723",
        },
    }
    CKPT_PREFIX = {7: "51a64925", 1811: "50231e10"}

    @pytest.mark.parametrize("seed", [7, 1811])
    def test_digests(self, tmp_path, seed):
        path, pre = tmp_path / "set.skd", tmp_path / "pre.ckpt"
        assert main(synth_args(path, classes=10, per_class=30, teacher_dim=128, input_dim=8,
                               versions=4, noise=0.005, outlier_fraction=0.1, seed=seed)) == 0
        assert main(["pretrain", "--set", str(path), "--epochs", "40", "--lr", "1e-3",
                     "--seed", str(seed), "--out", str(pre)]) == 0
        assert sha(pre).startswith(self.CKPT_PREFIX[seed])
        for (task, tap), digest in self.DIGESTS[seed].items():
            out = tmp_path / f"{task}-{tap}.json"
            assert main(["eval", "--set", str(path), "--ckpt", str(pre), "--task", task,
                         "--tap", tap, "--seed", str(seed), "--out", str(out)]) == 0
            assert sha(out) == digest, (task, tap)


class TestGoldenTrajectory:
    """Pinned artifacts of a tiny synth -> select -> pretrain -> finetune run.

    Any change to the numerics of selection or training changes this digest;
    such a change must re-pin it and say why in CHANGES.md. The digest was
    taken with numpy 2.4 and its bundled OpenBLAS on x86-64; another BLAS
    may round the matrix products differently.
    """

    DIGEST = "f222a38a34d14beafa4f1fa46f355d68a9cddaf67181396545298a83df499969"
    REG_SCALE = "0.3"

    def listing(self, d):
        assert main(synth_args(d / "set.skd", classes=3, per_class=6, teacher_dim=8,
                               input_dim=3, versions=2, outlier_fraction=0.2, seed=5)) == 0
        assert main(["select", "--set", str(d / "set.skd"), "--lambda", "-1",
                     "--out", str(d / "sel.mask")]) == 0
        assert main(["pretrain", "--set", str(d / "set.skd"), "--epochs", "3", "--lr", "1e-2",
                     "--seed", "5", "--hidden", "6,6", "--identity-dim", "8",
                     "--out", str(d / "pre.ckpt")]) == 0
        sset = load_student_set(d / "set.skd")
        mask, _ = load_mask(d / "sel.mask")
        lines = []
        for name in ("set.skd", "sel.mask", "pre.ckpt", "pre.ckpt.metrics.jsonl"):
            lines.append(f"{name} {sha(d / name)}")
        for mode in ("c", "s", "sc", "dc"):
            out = d / f"{mode}.ckpt"
            assert main(["finetune", "--set", str(d / "set.skd"), "--ckpt", str(d / "pre.ckpt"),
                         "--mask", str(d / "sel.mask"), "--supervision", mode,
                         "--reg-scale", self.REG_SCALE, "--epochs", "3", "--lr", "1e-2",
                         "--seed", "6", "--out", str(out)]) == 0
            lines.append(f"{mode}.ckpt {sha(out)}")
            lines.append(f"{mode}.ckpt.metrics.jsonl {sha(d / (mode + '.ckpt.metrics.jsonl'))}")
            model = load_checkpoint(out)
            scale = float(self.REG_SCALE)
            lines.append(f"{mode} cls {total_loss(model, sset, None, 'c')!r}")
            lines.append(f"{mode} reg {total_loss(model, sset, mask, 's', scale)!r}")
            lines.append(f"{mode} total {total_loss(model, sset, mask, mode, scale)!r}")
        return "\n".join(lines)

    def test_digest(self, tmp_path):
        listing = self.listing(tmp_path)
        digest = hashlib.sha256(listing.encode()).hexdigest()
        assert digest == self.DIGEST, listing
