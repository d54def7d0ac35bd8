"""Harness tests: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from child import Outcome  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from workloads import DECLARED, WORKLOADS, smoke  # noqa: E402


def _declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_syntax_and_declaration():
    declared = _declared()
    names = ([m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]]
             + [w["name"] for w in declared["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert tracing.METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert declared["per_layer"] == tracing.per_layer_spec()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in declared["workloads"]] == list(DECLARED)
    assert set(DECLARED) <= set(WORKLOADS)


def test_self_time_of_hand_built_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("mincut.minimize", 1.0, 7.0, 0),
        Span("maxflow.Dinic.max_flow", 2.0, 3.0, 1),
        Span("maxflow.Dinic.max_flow", 4.0, 6.5, 1),
        Span("mincut.save_mask", 8.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0])
    assert tracing.command_accounting(spans) == [(10.0, pytest.approx(10.0))]


def test_failed_check_counts_once_whatever_its_messages():
    outcome = Outcome()
    outcome.record([])
    outcome.record(["sweep.csv: count rises", "sweep.csv: energy > 0"])
    assert (outcome.attempted, outcome.failed, len(outcome.failures)) == (2, 1, 2)


def test_missing_target_yields_null_not_error():
    tracer = Tracer()
    tracer.install((
        ("mincut._gone", "skd.mincut", "_gone", None),
        ("maxflow.Gone.max_flow", "skd.maxflow", "Gone.max_flow", None),
        ("gone.f", "skd.no_such_module", "f", None),
    ))
    assert tracer.missing == {"mincut._gone", "maxflow.Gone.max_flow", "gone.f"}
    metrics = {
        "gone_s": ("s", "lower", ("mincut._gone",), lambda t: t.total("mincut._gone")),
        "kept_s": ("s", "lower", ("cli.main",), lambda t: t.total("cli.main")),
    }
    spans = [Span("cli.main", 0.0, 2.0, None)]
    assert tracing.derive(metrics, [spans], tracer.missing) == {"gone_s": None, "kept_s": 2.0}


def test_install_patches_every_importing_module_and_uninstalls():
    import skd
    from skd import cli, mincut

    original = mincut.minimize
    tracer = Tracer()
    tracer.install([t for t in tracing.TARGETS if t[0] == "mincut.minimize"])
    try:
        assert cli.minimize is mincut.minimize is skd.minimize is not original
    finally:
        tracer.uninstall()
    assert cli.minimize is mincut.minimize is skd.minimize is original


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_configuration_runs(name):
    detail = run.run_one(smoke(WORKLOADS[name]), seed=3, seconds=1, trace=True)
    assert detail["failures"] == [] and detail["failed"] == 0
    assert detail["setup_s"]["n"] == 2
    assert detail["accounting_error_s"] < 1e-6
    line = run.result_line(detail)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in tracing.per_layer_spec()}
    assert all(m["value"] is not None for m in line["metrics"].values())
    assert line["metrics"]["mincut.minimize_calls"]["value"] >= 1
    untraced = run.result_line(dict(detail, trace=False))
    assert set(untraced["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
