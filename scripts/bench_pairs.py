#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload select_stress --seed 7 --pairs 10

Runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` in each
checkout in turn, PARENT first in odd pairs and CHANGE first in even ones,
so a slow phase of a shared host falls on both sides. T and each metric's
better direction come from this repository's ``BENCHMARK.json``, so every
run is as long as the benchmark's own. Prints each pair's change/parent
ratio per end-to-end metric as it finishes, then each side's median and
quartiles, the ratio of the medians, the median and quartiles of the
per-pair ratios (see ``ratio_summary``), how many pairs the change won, whether
the change's gain in the median is larger than the parent's interquartile
range, and a verdict against the metric's ``bound`` in ``BENCHMARK.json``
(see ``verdict``). Each checkout's ``bench/`` is run as it is, never
edited; a run that is not ``correct`` stops the script.

Both checkouts must hold no ``__pycache__`` under ``src/`` or ``bench/``:
a side that imports cached bytecode skips the compile the other side's
set-ups pay, which moves ``setup_s`` by about a tenth at the desk shape. The
script exits naming such a directory before the first run, and runs every
``bench/run.py`` with ``PYTHONDONTWRITEBYTECODE=1`` so that no run leaves
one behind for the next.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One untraced run in ``checkout``; its end-to-end metrics by name."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: run not correct\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def bytecode_caches(checkout: Path) -> list[Path]:
    """Every ``__pycache__`` directory under ``checkout``'s ``src/`` and ``bench/``."""
    return sorted(p for top in ("src", "bench") for p in (checkout / top).rglob("__pycache__"))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def ratio_summary(parent: list[float], change: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile of the per-pair change/parent ratios.

    Each ratio compares two runs made back to back, so a phase of the host
    that slows both sides of a pair cancels in it, while it widens each
    side's own quartiles.
    """
    ratios = [c / p for p, c in zip(parent, change, strict=True)]
    return median(ratios), *quartiles(ratios)


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """Whether the change's runs of one metric regress on the parent's.

    ``unresolved`` when the parent's interquartile range is wider than
    ``bound`` times its median, unless every change run is better than every
    parent run; otherwise ``no regression`` when the change's median is worse
    than the parent's by at most ``bound`` times the parent's median, and
    ``REGRESSION`` when it is worse by more.
    """
    sign = 1 if lower else -1  # sign * value: lower is better
    p, c = median(parent), median(change)
    p1, p3 = quartiles(parent)
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if p3 - p1 > bound * abs(p) and not every_run_better:
        return "unresolved"
    return "no regression" if sign * (c - p) <= bound * abs(p) else "REGRESSION"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    for side, checkout in sides.items():
        if caches := bytecode_caches(checkout):
            raise SystemExit(f"{side} checkout holds compiled bytecode, which skews setup_s; "
                             f"delete it first: {caches[0]}")
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], args.workload, args.seed, seconds))
        parent, change = runs["parent"][-1], runs["change"][-1]
        ratios = "  ".join(f"{name} {change[name] / parent[name]:.3f}" for name in parent)
        print(f"pair {pair} ({order[0]} first): change/parent {ratios}", flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs:")
    for name in runs["parent"][0]:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        lower = metrics[name]["better"] == "lower"
        wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        gain = (median(p) - median(c)) * (1 if lower else -1)
        r, r1, r3 = ratio_summary(p, c)
        print(f"  {name}: parent {median(p):.4f} [{p1:.4f}, {p3:.4f}]  "
              f"change {median(c):.4f} [{c1:.4f}, {c3:.4f}]  "
              f"ratio {median(c) / median(p):.3f}  "
              f"pair ratios {r:.3f} [{r1:.3f}, {r3:.3f}]  change better in {wins}/{len(p)}  "
              f"median gain {gain:+.4f} {'>' if gain > p3 - p1 else '<='} "
              f"parent IQR {p3 - p1:.4f}  "
              f"{verdict(p, c, metrics[name]['bound'], lower)} (bound {metrics[name]['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
