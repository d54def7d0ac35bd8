"""The no-regression verdict and the per-pair ratio summary of ``scripts/bench_pairs.py``
on hand-built samples, and its refusal of checkouts that hold cached bytecode."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# Parent runs with median 4.0 and quartiles 3.9 and 4.1 (IQR 0.2).
STEADY = [3.8, 3.9, 4.0, 4.1, 4.2]
# Parent runs with median 4.0 and quartiles 3.0 and 5.0 (IQR 2.0).
NOISY = [2.0, 3.0, 4.0, 5.0, 6.0]


@pytest.mark.parametrize("parent,change,bound,lower,expected", [
    (STEADY, [3.0, 3.1, 3.2, 3.3, 3.4], 0.25, True, "no regression"),
    # a median of exactly parent * (1 + bound) is still inside the bound
    (STEADY, [4.8, 4.9, 5.0, 5.1, 5.2], 0.25, True, "no regression"),
    (STEADY, [4.9, 5.0, 5.1, 5.2, 5.3], 0.25, True, "REGRESSION"),
    (STEADY, [4.3, 4.4, 4.5, 4.6, 4.7], 0.10, True, "REGRESSION"),
    # the parent's IQR is half its median, wider than the bound
    (NOISY, [2.5, 3.5, 4.5, 5.5, 6.5], 0.25, True, "unresolved"),
    (NOISY, [9.0, 9.5, 10.0, 10.5, 11.0], 0.25, True, "unresolved"),
    (NOISY, [1.0, 1.5, 1.9, 1.9, 1.9], 0.25, True, "no regression"),
    # higher is better
    (STEADY, [3.0, 3.1, 3.2, 3.3, 3.4], 0.25, False, "no regression"),
    (STEADY, [2.8, 2.9, 2.95, 3.0, 3.1], 0.25, False, "REGRESSION"),
    (NOISY, [6.5, 7.0, 8.0, 9.0, 10.0], 0.25, False, "no regression"),
    (NOISY, [1.0, 2.0, 3.0, 4.0, 5.0], 0.25, False, "unresolved"),
])
def test_verdict(bench_pairs, parent, change, bound, lower, expected):
    assert bench_pairs.verdict(parent, change, bound, lower) == expected


# The host runs twice as fast in the first three pairs as in the last three.
PHASED = [4.0, 4.0, 4.0, 8.0, 8.0, 8.0]


@pytest.mark.parametrize("parent,change,expected", [
    # every pair 10% faster: the ratios agree while the parent's IQR is 4.0
    (PHASED, [0.9 * v for v in PHASED], (0.9, 0.9, 0.9)),
    # the change's slow phase covers two more pairs than the parent's
    (PHASED, [3.6, 7.2, 7.2, 7.2, 7.2, 7.2], (0.9, 0.9, 1.575)),
    ([1.0, 2.0, 4.0, 8.0, 16.0], [1.1, 1.8, 4.4, 8.0, 16.0], (1.0, 1.0, 1.1)),
    ([2.0], [3.0], (1.5, 1.5, 1.5)),
])
def test_ratio_summary(bench_pairs, parent, change, expected):
    assert bench_pairs.ratio_summary(parent, change) == pytest.approx(expected)


def test_phase_shift_widens_the_parent_iqr_not_the_ratios(bench_pairs):
    p1, p3 = bench_pairs.quartiles(PHASED)
    _, r1, r3 = bench_pairs.ratio_summary(PHASED, [0.9 * v for v in PHASED])
    assert (p3 - p1, r3 - r1) == (4.0, 0.0)


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        for top in ("src/skd", "bench"):
            (tmp_path / side / top).mkdir(parents=True)
    return tmp_path / "parent", tmp_path / "change"


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("cache", ["src/skd/__pycache__", "bench/__pycache__"])
def test_a_bytecode_cache_stops_the_script_before_any_run(bench_pairs, checkouts, monkeypatch,
                                                          side, cache):
    parent, change = checkouts
    stale = (parent if side == "parent" else change) / cache
    stale.mkdir()
    runs = []
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: runs.append(args))
    with pytest.raises(SystemExit, match=str(stale)):
        bench_pairs.main([str(parent), str(change), "--workload", "desk_pipeline",
                          "--seed", "7", "--pairs", "1"])
    assert runs == []


def test_clean_checkouts_run_without_writing_bytecode(bench_pairs, checkouts, monkeypatch, capsys):
    envs = []
    metrics = {"correct": True, "metrics": {name: {"value": 1.0}
                                            for name in ("setup_s", "wall_s", "peak_rss_mb")}}

    def fake_run(argv, cwd, env, **kwargs):
        envs.append(env["PYTHONDONTWRITEBYTECODE"])
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(metrics), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent, change = checkouts
    assert bench_pairs.main([str(parent), str(change), "--workload", "desk_pipeline",
                             "--seed", "7", "--pairs", "2"]) == 0
    assert envs == ["1"] * 4
    assert "change better in 0/2" in capsys.readouterr().out
