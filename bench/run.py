"""Stage-and-layer benchmark of the skd CLI pipeline.

One run of one workload:

    python3 bench/run.py --workload select_stress --seed 7 --seconds 20 --trace 0

Every workload, untraced then traced, at one seed, with a summary table and
``bench/results/BENCH_pipeline.json``:

    python3 bench/run.py --all --seed 7

A run times the workload's commands in one child process for ``--seconds``,
and sets up its input several times in fresh processes spread over that
window (process start, ``import skd``, ``skd synth``; ``setup_s`` is their
median). The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Run it from the repository root; it imports skd from
``src/`` and writes only under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from statistics import median

import numpy as np

import tracing
from child import BenchmarkError, run_child
from workloads import BENCHMARK_SEED, SET_FILE, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_ROOT = BENCH_DIR / ".work"

# The measure child may overrun its window by one iteration, the set-ups
# left over, and the checks.
MEASURE_GRACE_S = 100

# Every workload reports these; per-stage times (select_s, sweep_s,
# pretrain_s, finetune_s, eval_s) are in the report and the detail file.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(p / 100 * n))]
    return None, None


def summary(values: list[float]) -> dict:
    p, v = tail(values)
    return {"median": median(values), "tail_percentile": p, "tail": v, "n": len(values),
            "samples": values}


def child_env() -> dict:
    """skd from ``src/``, and one BLAS thread.

    On a shared two-core machine a second spinning BLAS thread makes the
    timings depend on the neighbours' load.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def machine(env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def run_one(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """One run in fresh child processes; returns the detailed result."""
    if not (SRC / "skd" / "__init__.py").is_file():
        raise BenchmarkError(f"no skd package under {SRC}; run from the repository root")
    env = child_env()
    detail = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(env), "load_avg_start": os.getloadavg()}
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        work = run_dir / "work"
        work.mkdir()
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps({
            "workload": asdict(w), "seed": seed, "seconds": seconds, "trace": trace,
            "work_dir": str(work), "result_path": str(run_dir / "result.json")}))
        run_child(["measure", str(spec_path)], work, seconds + MEASURE_GRACE_S, env)
        result = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = result["failures"]
    set_digests = result["set_digests"]
    if len(set_digests) != 1:
        failures.append(f"{len(set_digests)} distinct SKD1 files from {w.setups} set-ups")
    attempted = result["attempted"] + 1
    failed = result["failed"] + (len(set_digests) != 1)
    detail.update({
        "load_avg_end": os.getloadavg(),
        "iterations": result["iterations"],
        "setup_s": summary(result["setup_times"]),
        "wall_s": summary(result["walls"]),
        "stages": {f"{s}_s": summary(v) for s, v in result["stages"].items()},
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "op_fail_ratio": failed / attempted,
        "failures": failures,
        "digests": dict(result["digests"], **{SET_FILE: set_digests[0]}),
    })
    if trace:
        detail["per_layer"] = result["per_layer"]
        detail["traced_wall_s"] = summary(result["traced_walls"])
        detail["missing_targets"] = result["missing_targets"]
        detail["accounting_error_s"] = result["accounting_error_s"]
        detail["spans"] = result["spans"]
    return detail


def result_line(detail: dict) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer ones when traced."""
    if detail["trace"]:
        units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
        metrics = {name: {"value": detail["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {"setup_s": detail["setup_s"]["median"], "wall_s": detail["wall_s"]["median"],
                  "peak_rss_mb": detail["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def _fmt(s: dict, unit: str) -> str:
    tail_text = (f"p{s['tail_percentile']:g} {s['tail']:.4f}" if s["tail"] is not None
                 else "tail n/a")
    return f"median {s['median']:.4f} {unit}, {tail_text}, n={s['n']}"


def report(detail: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric by name with its unit."""
    head = f"[{detail['workload']} seed={detail['seed']} trace={int(detail['trace'])}]"
    lines = [f"{head} machine {json.dumps(detail['machine'], sort_keys=True)}",
             f"{head} load average {detail['load_avg_start']} -> {detail['load_avg_end']}"]
    for name in ("setup_s", "wall_s"):
        lines.append(f"{head} {name}: {_fmt(detail[name], 's')}")
    for name, s in sorted(detail["stages"].items()):
        lines.append(f"{head} {name}: {_fmt(s, 's')}")
    lines.append(f"{head} peak_rss_mb: {detail['peak_rss_mb']:.1f} MB")
    lines.append(f"{head} op_fail_ratio: {detail['op_fail_ratio']:g} "
                 f"({detail['failed']} of {detail['attempted']} commands and checks)")
    lines += [f"{head} FAILED {msg}" for msg in detail["failures"]]
    if detail["trace"]:
        lines.append(f"{head} traced wall_s: {_fmt(detail['traced_wall_s'], 's')}")
        lines.append(f"{head} trace.overhead_s: {detail['per_layer']['trace.overhead_s']:.4f} s")
        lines.append(f"{head} self times plus cli.overhead_s miss a command's traced wall "
                     f"time by at most {detail['accounting_error_s']:.3g} s")
        if detail["missing_targets"]:
            lines.append(f"{head} missing targets (null metrics): {detail['missing_targets']}")
    return lines


def save(name: str, payload) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def save_run(detail: dict) -> dict:
    """Write a run's detail file, and its spans (name, start, end, parent) apart."""
    stem = f"{detail['workload']}-seed{detail['seed']}"
    if "spans" in detail:
        detail = dict(detail)
        save(f"{stem}.spans.json", detail.pop("spans"))
    save(f"{stem}-trace{int(detail['trace'])}.json", detail)
    return detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=BENCHMARK_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.workload:
            detail = save_run(run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                                      bool(args.trace)))
            print("\n".join(report(detail)))
            print(json.dumps(result_line(detail)))
            return 0
        details = []
        for w in WORKLOADS.values():
            for trace in (False, True):
                detail = save_run(run_one(w, args.seed, args.seconds, trace))
                print("\n".join(report(detail)), flush=True)
                details.append(detail)
        path = save("BENCH_pipeline.json", details)
        print(f"wrote {path.relative_to(ROOT)}")
        return 0 if all(d["failed"] == 0 for d in details) else 1
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
