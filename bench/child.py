"""One benchmark process: a set-up, or the timed window of one run.

    python3 bench/child.py setup <spec.json>
    python3 bench/child.py measure <spec.json>

``setup`` imports skd and runs ``skd synth`` for the workload; whoever starts
it times the whole process. ``measure`` runs the workload's commands through
``skd.cli.main`` for ``seconds``, starting the run's set-ups as fresh
processes spread evenly over that window, checks the artifacts, and writes a
JSON result to the path in the spec. With tracing on it alternates untraced
and traced iterations, so the two wall times come from the same process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import checks
import tracing
from workloads import ARTIFACTS, SET_FILE, Workload

TRACED_SETUPS = 3
SETUP_TIMEOUT_S = 60
CHILD = str(Path(__file__).resolve())


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(args: list[str], cwd: Path, timeout: float, env: dict | None = None) -> float:
    """Run ``child.py args`` to completion; returns its wall time from spawn to exit.

    A blocking wait times the exit exactly (``subprocess.run`` with a timeout
    polls in 50 ms steps); a timer kills a child that overruns ``timeout``.
    """
    # The measure child leads a process group of its own, so that killing it
    # also ends the set-up it may be running.
    group = args[0] == "measure"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=cwd, env=env,
                            start_new_session=group)
    kill = (lambda: os.killpg(proc.pid, signal.SIGKILL)) if group else proc.kill
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        rc = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise BenchmarkError(f"child.py {args[0]} exited {rc}"
                             + (f" (killed after {timeout} s)" if elapsed >= timeout else ""))
    return elapsed


def run_command(cli, argv: list[str]) -> tuple[float, int]:
    """Time one CLI command, starting from a collected heap as a fresh process would."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return time.perf_counter() - t0, rc


class Outcome:
    """Attempted/failed tally of commands and output checks, with the messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, failures: list[str]) -> None:
        """One command or check; it failed if it returned any message."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += failures


def output_checks(outcome: Outcome, work: Path) -> None:
    if (work / "sel.mask").exists():
        outcome.record(checks.check_mask(work / SET_FILE, work / "sel.mask"))
    if (work / "sweep.csv").exists():
        outcome.record(checks.check_sweep_csv(work / "sweep.csv"))
    for path in sorted(work.glob("*.metrics.jsonl")) + sorted(work.glob("*.json")):
        if not path.name.endswith(".config.json"):
            outcome.record(checks.check_finite_json_lines(path))


def measure(spec: dict, spec_path: str) -> dict:
    from skd import cli

    workload = Workload(**spec["workload"])
    seed, trace, seconds = spec["seed"], spec["trace"], spec["seconds"]
    work = Path(spec["work_dir"])
    os.chdir(work)
    setup_times: list[float] = []
    set_digests: set[str] = set()

    def set_up() -> None:
        setup_times.append(run_child(["setup", spec_path], work, SETUP_TIMEOUT_S))
        set_digests.add(checks.digest(work / SET_FILE))

    tracer = tracing.Tracer()
    if trace:
        tracer.install()

    outcome = Outcome()
    setup_spans = []
    for _ in range(TRACED_SETUPS if trace else 0):
        tracer.active = True
        _, rc = run_command(cli, workload.synth_argv(seed, "traced_setup.skd"))
        tracer.active = False
        setup_spans.append(tracer.take())
        outcome.record([] if rc == 0 else [f"traced synth exited {rc}"])

    stages: dict[str, list[float]] = {}
    walls = {False: [], True: []}
    span_sets = []
    digests: dict[str, str] = {}
    # Set-up j starts once j / setups of the window has passed, so setup_s and
    # the iterations sample the host over the same stretch of time. The loop
    # stops when the set-ups now due and another iteration as long as the last
    # would overrun the window.
    gap = seconds / workload.setups
    start = time.perf_counter()

    def setups_due() -> int:
        return min(workload.setups, math.floor((time.perf_counter() - start) / gap) + 1)

    k = 0
    while True:
        while len(setup_times) < setups_due():
            set_up()
        t_iteration = time.perf_counter()
        traced = trace and k % 2 == 1
        tracer.active = traced
        times: dict[str, float] = {}
        for stage, argv in workload.commands(seed):
            dt, rc = run_command(cli, argv)
            times[stage] = times.get(stage, 0.0) + dt
            outcome.record([] if rc == 0 else [f"{argv[0]} exited {rc}"])
        tracer.active = False
        walls[traced].append(sum(times.values()))
        if traced:
            span_sets.append(tracer.take())
        else:
            for stage, dt in times.items():
                stages.setdefault(stage, []).append(dt)
        for name in ARTIFACTS:
            if (work / name).exists():
                d = checks.digest(work / name)
                outcome.record([] if digests.setdefault(name, d) == d
                               else [f"{name} digest differs in iteration {k + 1}"])
        k += 1
        now = time.perf_counter()
        pending = (setups_due() - len(setup_times)) * median(setup_times)
        if (not trace or k >= 2) and 2 * now - t_iteration + pending > start + seconds:
            break
    while len(setup_times) < workload.setups:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    output_checks(outcome, work)
    result = {
        "iterations": k,
        "stages": stages,
        "walls": walls[False],
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "setup_times": setup_times,
        "set_digests": sorted(set_digests),
    }
    if trace:
        result["accounting_error_s"] = max(abs(wall - accounted) for spans in span_sets
                                           for wall, accounted in
                                           tracing.command_accounting(spans))
        per_layer = tracing.derive(tracing.ITERATION_METRICS, span_sets, tracer.missing)
        per_layer.update(tracing.derive(tracing.SETUP_METRICS, setup_spans, tracer.missing))
        per_layer["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        per_layer["trace.spans"] = float(median(len(s) for s in span_sets))
        result["per_layer"] = per_layer
        result["traced_walls"] = walls[True]
        result["missing_targets"] = sorted(tracer.missing)
        result["spans"] = [[[x.name, x.start, x.end, x.parent] for x in spans]
                           for spans in span_sets]
        tracer.uninstall()
    result["attempted"] = outcome.attempted
    result["failed"] = outcome.failed
    result["failures"] = outcome.failures
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    if argv[0] == "setup":
        from skd import cli

        argv = Workload(**spec["workload"]).synth_argv(spec["seed"], SET_FILE)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    result = measure(spec, argv[1])
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
