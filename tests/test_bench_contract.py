"""The benchmark harness under bench/ reaches into skd by name.

``bench/tracing.py`` wraps functions by dotted path and ``bench/checks.py``
calls the public API on the artifacts of a run. A rename in skd breaks them
silently (the tracer reports the metric as null), so these tests load both
files by path and check that every name they use still resolves.
"""

import importlib.util
import sys
from pathlib import Path

from skd.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_check_mask_passes_on_a_selected_mask(tmp_path, monkeypatch):
    checks = load_bench_module("checks", monkeypatch)
    sset, mask = tmp_path / "set.skd", tmp_path / "sel.mask"
    assert main(["synth", "--classes", "3", "--per-class", "6", "--teacher-dim", "8",
                 "--input-dim", "3", "--versions", "2", "--outlier-fraction", "0.2",
                 "--seed", "5", "--out", str(sset)]) == 0
    assert main(["select", "--set", str(sset), "--lambda", "-1", "--out", str(mask)]) == 0
    assert checks.check_mask(sset, mask) == []


def test_check_mask_flags_a_non_optimal_mask(tmp_path, monkeypatch):
    # at lambda 0 every selected face only adds its unary cost
    checks = load_bench_module("checks", monkeypatch)
    sset, mask = tmp_path / "set.skd", tmp_path / "ones.mask"
    assert main(["synth", "--classes", "3", "--per-class", "6", "--teacher-dim", "8",
                 "--input-dim", "3", "--versions", "2", "--seed", "5",
                 "--out", str(sset)]) == 0
    mask.write_text("SKDMASK1 18 0.0\n" + "".join(f"{i},1\n" for i in range(18)),
                    encoding="ascii")
    assert len(checks.check_mask(sset, mask)) == 2  # energy > 0, and single flips help


def test_tracer_sees_every_epoch_log_pass(tmp_path, monkeypatch):
    # the log pass runs in line and calls forward_trace through distiller's
    # global, so its spans nest under _train
    tracing = load_bench_module("tracing", monkeypatch)
    sset, ckpt = tmp_path / "set.skd", tmp_path / "pre.ckpt"
    assert main(["synth", "--classes", "3", "--per-class", "6", "--teacher-dim", "8",
                 "--input-dim", "3", "--versions", "2", "--seed", "5",
                 "--out", str(sset)]) == 0
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        tracer.active = True
        assert main(["pretrain", "--set", str(sset), "--epochs", "3", "--batch-size", "4",
                     "--hidden", "6", "--identity-dim", "5", "--seed", "5",
                     "--out", str(ckpt)]) == 0
        tracer.active = False
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert len((tmp_path / "pre.ckpt.metrics.jsonl").read_text().splitlines()) == 3
    metrics = tracing.derive(tracing.ITERATION_METRICS, [spans], tracer.missing)
    assert metrics["distiller.log_passes"] == 3
    assert metrics["distiller.log_rows_ratio"] == 1.0
    assert metrics["distiller.log_forward_s"] > 0
