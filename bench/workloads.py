"""The benchmark's workloads: generated inputs and the skd commands they time.

Every workload is a fixed shape; the seed only changes the generated data and
the training/evaluation seeds, so the same seed gives the same inputs and
byte-identical artifacts.

* ``desk_pipeline`` -- the README walkthrough (10 x 30): sweep over the
  default pow2 grid, select at lambda -1, pretrain 40 epochs, finetune sc 400
  epochs, eval verify/identify/retrieve. What users run; training
  optimisations show here and solver optimisations should not move it.
* ``select_stress`` -- one ``skd select`` at 10 x 300 (448,500 intra-class
  edges) with lambda -0.05, inside this shape's transition window. One cut
  per class and no reuse: shows array-native solver and SKD1 parse gains, and
  catches a parametric or caching change that slows the one-shot select.
* ``sweep_stress`` -- ``skd sweep`` at 4 x 500 (499,000 edges) over nine
  lambdas spanning that shape's window. Many solves of one graph on few, large
  classes: where a parametric lambda-path shows, and where per-class max-flow
  scaling is stressed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Seed of the documented runs; the benchmark takes any seed as an argument.
# Seed 1811 is held out: a claimed gain must also hold there.
BENCHMARK_SEED = 7

SWEEP_STRESS_GRID = "list:-1,-0.2,-0.1,-0.05,-0.02,-0.01,-0.002,-0.001,0"

SET_FILE = "set.skd"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    per_class: int
    # Set-ups per run, spread evenly over the timed window; setup_s is their
    # median.
    setups: int
    pretrain_epochs: int = 40
    finetune_epochs: int = 400

    def synth_argv(self, seed: int, out: str) -> list[str]:
        return ["synth", "--classes", str(self.classes), "--per-class", str(self.per_class),
                "--teacher-dim", "128", "--input-dim", "8", "--versions", "4",
                "--noise", "0.005", "--outlier-fraction", "0.1",
                "--seed", str(seed), "--out", out]

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        """(stage, argv) of one timed iteration; paths are relative to the work dir."""
        s = SET_FILE
        if self.name == "select_stress":
            return [("select", ["select", "--set", s, "--lambda", "-0.05", "--out", "sel.mask"])]
        if self.name == "sweep_stress":
            return [("sweep", ["sweep", "--set", s, "--grid", SWEEP_STRESS_GRID,
                               "--out", "sweep.csv"])]
        train = ["--lr", "1e-3", "--seed", str(seed)]
        evals = [("eval", ["eval", "--set", s, "--ckpt", "sc.ckpt", "--task", task,
                           "--seed", str(seed), "--out", f"{task}.json"])
                 for task in ("verify", "identify", "retrieve")]
        return [
            ("sweep", ["sweep", "--set", s, "--out", "sweep.csv"]),
            ("select", ["select", "--set", s, "--lambda", "-1", "--out", "sel.mask"]),
            ("pretrain", ["pretrain", "--set", s, "--epochs", str(self.pretrain_epochs),
                          *train, "--out", "pre.ckpt"]),
            ("finetune", ["finetune", "--set", s, "--ckpt", "pre.ckpt", "--mask", "sel.mask",
                          "--supervision", "sc", "--epochs", str(self.finetune_epochs),
                          *train, "--out", "sc.ckpt"]),
            *evals,
        ]


# The workloads BENCHMARK.json declares. sweep_stress times one ~20 s sweep
# per run: on a shared host whose speed swings by half over about a minute,
# that single sample per run spread its ten-run sets by up to 26%, past the
# 25% bound, and two sweeps per run do not fit the benchmark's time limit next
# to the other workloads. It stays runnable by name and in --all.
DECLARED = ("desk_pipeline", "select_stress")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_pipeline",
                 "the README walkthrough users run; training dominates, so solver "
                 "changes should not move it", 10, 30, 15),
        Workload("select_stress",
                 "one-shot select at 10x300, lambda -0.05: SKD1 parse and one cut per "
                 "class with no reuse", 10, 300, 11),
        Workload("sweep_stress",
                 "nine-lambda sweep at 4x500: many solves of one graph on few large "
                 "classes", 4, 500, 11),
    )
}


def smoke(w: Workload) -> Workload:
    """A seconds-long version of ``w`` with the same commands, for the tests."""
    return replace(w, per_class=8, setups=2, pretrain_epochs=2, finetune_epochs=3)


# Artifacts whose SHA-256 must repeat across every iteration of one seed.
ARTIFACTS = ("sweep.csv", "sel.mask", "pre.ckpt", "sc.ckpt")
