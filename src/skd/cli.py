"""Command-line pipeline: synth -> select/sweep -> pretrain -> finetune -> eval.

Every command that writes files also writes a resolved-config echo
(<out>.config.json); ``skd rerun <echo>`` replays it and reproduces the
outputs byte for byte.

Exit codes:
  0  success
  2  usage error (bad flags)
  3  missing input file or output directory
  4  malformed input file (parse error)
  5  invalid configuration or invariant violation
  6  numeric failure during training
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import FormatError, SynthConfig, load_student_set, save_student_set, synthesize
from .distiller import (
    SUPERVISION_MODES,
    TrainConfig,
    TrainingDiverged,
    finetune,
)
from .evaluate import (
    evaluate_identification,
    evaluate_retrieval,
    evaluate_verification,
    make_verification_pairs,
)
from .metric import MEASURES, class_centroids
from .mincut import (
    default_lambda_grid,
    lambda_sweep,
    load_mask,
    minimize,
    pow2_lambda_grid,
    save_mask,
    write_sweep_csv,
)
from .selgraph import (
    SelectionGraph,
    build_selection_graph,
    dump_graph,
    streamed_selection_graph,
)
from .student import StudentArch, init_student, load_checkpoint, save_checkpoint, forward_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_INVALID = 5
EXIT_NUMERIC = 6

EPILOG = """exit codes:
  0  success
  2  usage error
  3  missing input file or output directory
  4  malformed input file
  5  invalid configuration or invariant violation
  6  numeric failure during training
"""


def _echo_path(out: str) -> Path:
    return Path(str(out) + ".config.json")


def _write_echo(command: str, args: argparse.Namespace, out: str) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload = {"command": command, "version": __version__, "args": resolved}
    _echo_path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"missing input file: {path}")
    return p


def _require_out_dirs(args) -> None:
    """FileNotFoundError naming the missing directory of ``--out`` or ``--metrics``,
    ValueError naming either path when it is a directory."""
    for out in (getattr(args, "out", ""), getattr(args, "metrics", "")):
        if out and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"missing output directory: {Path(out).parent}")
        if out and Path(out).is_dir():
            raise ValueError(f"output path is a directory: {out}")


def _parse_grid(spec: str) -> list[float]:
    """Grid spec: 'pow2:<lo>..<hi>' (powers of two plus 0) or 'list:a,b,c'."""
    if spec.startswith("pow2:"):
        lo, sep, hi = spec[len("pow2:"):].partition("..")
        if not sep:
            raise ValueError(f"bad grid spec {spec!r} (expected pow2:<lo>..<hi>)")
        return pow2_lambda_grid(float(lo), float(hi))
    if spec.startswith("list:"):
        return sorted(float(v) for v in spec[len("list:"):].split(","))
    raise ValueError(f"bad grid spec {spec!r} (expected pow2:... or list:...)")


def _arch_from_args(sset, args) -> StudentArch:
    trunk = tuple(int(w) for w in args.hidden.split(",")) if args.hidden else (64, 64)
    return StudentArch(
        input_dim=sset.d_in,
        mimic_dim=sset.D,
        class_count=sset.C,
        trunk=trunk,
        identity_dim=args.identity_dim,
    )


def _selection_graph(args) -> SelectionGraph:
    """The selection graph of ``args.set`` under ``args.measure``, every class
    block built, for the commands that read the graph more than once.

    The set is freed on return, so a solve holds only the graph's class blocks.
    """
    sset = load_student_set(_require_file(args.set))
    return build_selection_graph(sset, class_centroids(sset), measure=args.measure)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    config = SynthConfig(
        C=args.classes,
        per_class_count=args.per_class,
        D=args.teacher_dim,
        d_in=args.input_dim,
        N=args.versions,
        noise_scale=args.noise,
        outlier_fraction=args.outlier_fraction,
        seed=args.seed,
    )
    sset = synthesize(config)
    save_student_set(sset, args.out)
    print(f"wrote {len(sset)} records ({sset.C} classes) to {args.out}")
    return EXIT_OK


def cmd_graph(args) -> int:
    graph = _selection_graph(args)
    dump_graph(graph, args.out)
    print(
        f"wrote graph dump to {args.out} "
        f"({graph.node_count} nodes, {graph.intra_edge_count} intra edges, "
        f"{graph.folded_connection_count} folded connections)"
    )
    return EXIT_OK


def cmd_select(args) -> int:
    # One solve reads each class block once, so the blocks are streamed: each
    # is made, solved and freed in turn, beside the set's features. The
    # inputs and outlier flags, which a select never reads, go first.
    sset = load_student_set(_require_file(args.set))
    features, labels, C, centroids = sset.features, sset.labels, sset.C, class_centroids(sset)
    del sset
    graph = streamed_selection_graph(features, labels, C, centroids, args.measure)
    mask, e = minimize(graph, args.lam)
    save_mask(args.out, mask, args.lam)
    print(
        f"lambda={args.lam}: selected {mask.selected_count}/{len(mask)} "
        f"(energy {e!r}) -> {args.out}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    graph = _selection_graph(args)
    grid = _parse_grid(args.grid) if args.grid else default_lambda_grid()
    result = lambda_sweep(graph, grid)
    write_sweep_csv(result, args.out)
    for e in result.entries:
        print(f"lambda={e.lam:>9} count={e.selected_count:>6} energy={e.optimal_energy:.6g}")
    return EXIT_OK


def _train_and_save(args, model, sset, mask=None, **fields):
    """Train ``model`` under the command's training flags and save it to ``--out``.

    ``fields`` are the TrainConfig fields that have no shared flag. The
    metrics go to ``--metrics``, by default ``<out>.metrics.jsonl``.
    """
    config = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                         epochs=args.epochs, seed=args.seed, **fields)
    metrics = args.metrics or (args.out + ".metrics.jsonl")
    model = finetune(model, sset, mask, config, metrics_path=metrics)
    save_checkpoint(model, args.out)
    return model


def cmd_pretrain(args) -> int:
    sset = load_student_set(_require_file(args.set))
    model = init_student(_arch_from_args(sset, args), args.seed)
    model = _train_and_save(args, model, sset, supervision="c")
    print(f"pretrained {model.parameter_count()} parameters -> {args.out}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    sset = load_student_set(_require_file(args.set))
    model = load_checkpoint(_require_file(args.ckpt))
    mask = None
    if args.mask and args.supervision in ("s", "sc"):  # c and dc never read a mask
        mask = load_mask(_require_file(args.mask))[0]
    _train_and_save(args, model, sset, mask, supervision=args.supervision,
                    reg_scale=args.reg_scale, normalize_targets=args.normalize_targets)
    print(f"finetuned ({args.supervision}) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    sset = load_student_set(_require_file(args.set))
    model = load_checkpoint(_require_file(args.ckpt))
    if args.task == "verify":
        pairs = make_verification_pairs(sset, args.pairs, args.pairs, seed=args.seed)
        payload = {"task": "verify", "tap": args.tap,
                   "auc": evaluate_verification(model, pairs, tap=args.tap)}
    elif args.task == "identify":
        top1, top5 = evaluate_identification(model, sset)
        payload = {"task": "identify", "top1_error": top1, "top5_error": top5}
    else:
        payload = {"task": "retrieve", "tap": args.tap,
                   "rank1_accuracy": evaluate_retrieval(model, sset, tap=args.tap)}
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.batch < 1 or args.repeat < 1:
        raise ValueError(f"--batch and --repeat must be >= 1, got {args.batch} and {args.repeat}")
    ckpt = _require_file(args.ckpt)
    model = load_checkpoint(ckpt)
    X = np.random.default_rng(0).normal(size=(args.batch, model.arch.input_dim))
    forward_batch(model, X)  # warm up
    t0 = time.perf_counter()
    for _ in range(args.repeat):
        forward_batch(model, X)
    dt = time.perf_counter() - t0
    rate = args.batch * args.repeat / dt if dt > 0 else float("inf")
    print(json.dumps({
        "parameter_count": model.parameter_count(),
        "checkpoint_bytes": ckpt.stat().st_size,
        "inferences_per_sec": rate,
        "batch": args.batch,
    }, sort_keys=True))
    return EXIT_OK


def cmd_rerun(args) -> int:
    echo = json.loads(_require_file(args.echo).read_text())
    command = echo["command"]
    argv = [command]
    for key, value in echo["args"].items():
        if key == "command" or value is None or value is False:
            continue
        if command == "finetune" and key in ("lam", "measure"):
            continue  # echoes of finetune's removed --lambda/--measure, never read
        flag = "--" + key.replace("_", "-")
        if key == "lam":
            flag = "--lambda"
        if key == "action":
            argv.append(str(value))
            continue
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return main(argv)


# ---------------------------------------------------------------------------

def _add_measure(p) -> None:
    p.add_argument("--measure", choices=MEASURES, default="cossim",
                   help="pairwise affinity measure (default: cossim)")


def _add_train_flags(p) -> None:
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics", default="", help="metrics JSONL path (default: <out>.metrics.jsonl)")


def _add_arch_flags(p) -> None:
    # architecture is set at pretrain time and travels with the checkpoint
    p.add_argument("--identity-dim", type=int, default=128)
    p.add_argument("--hidden", default="", help="trunk widths, e.g. 64,64")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skd",
        description="Selective knowledge distillation pipeline",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic student set")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=30)
    p.add_argument("--teacher-dim", type=int, default=128)
    p.add_argument("--input-dim", type=int, default=8)
    p.add_argument("--versions", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.005)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("graph", help="dump the selection graph (debug)")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--set", required=True)
    _add_measure(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("select", help="solve the selection energy at one lambda")
    p.add_argument("--set", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_measure(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("sweep", help="selection counts over a lambda grid")
    p.add_argument("--set", required=True)
    p.add_argument("--grid", default="",
                   help="pow2:<lo>..<hi> (default pow2:-8192..0) takes each -2**k, k >= 0, "
                        "in the range, plus 0 if hi is 0; list:a,b,c takes any values, "
                        "such as those in (-1, 0)")
    _add_measure(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pretrain", help="stage 1: classification-only training")
    p.add_argument("--set", required=True)
    _add_train_flags(p)
    _add_arch_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="stage 3: joint fine-tuning from a checkpoint")
    p.add_argument("--set", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mask", default="", help="mask file (required for s/sc)")
    p.add_argument("--supervision", choices=SUPERVISION_MODES, default="sc")
    p.add_argument("--reg-scale", type=float, default=1.0)
    p.add_argument("--normalize-targets", action="store_true")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="verification / identification / retrieval")
    p.add_argument("--set", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", choices=["verify", "identify", "retrieve"], default="verify")
    p.add_argument("--tap", choices=["mimic", "identity"], default="mimic")
    p.add_argument("--pairs", type=int, default=200, help="positive and negative pair count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="report parameter count, checkpoint size and "
                                     "inference throughput")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--repeat", type=int, default=50)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rerun", help="replay a resolved-config echo file")
    p.add_argument("echo")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _require_out_dirs(args)
        code = args.func(args)
        if getattr(args, "out", ""):
            _write_echo(args.command, args, args.out)
        return code
    except FileNotFoundError as exc:
        print(json.dumps({"error": "missing_file", "detail": str(exc)}), file=sys.stderr)
        return EXIT_MISSING_FILE
    except FormatError as exc:
        print(json.dumps({"error": "format", "detail": str(exc), "line": exc.line}),
              file=sys.stderr)
        return EXIT_FORMAT
    except TrainingDiverged as exc:
        print(json.dumps({"error": "numeric", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, AssertionError) as exc:
        print(json.dumps({"error": "invalid", "detail": str(exc)}), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
