"""Selective knowledge distillation over precomputed teacher embeddings.

Pipeline: synthesize or load a student set, build the per-class selection
graph from teacher features, exactly minimize the binary selection energy via
min-cut, then train a compact student under joint classification plus masked
feature regression.

Importing skd defaults the BLAS libraries to one thread, before numpy loads:
at this package's matrix sizes a second BLAS thread costs time (a desk
fine-tune took a median 1.08 times as long at two threads as at one; see
README). A BLAS thread count already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .dataset import (  # noqa: E402
    FormatError,
    StudentSet,
    SynthConfig,
    load_student_set,
    save_student_set,
    subset_classes,
    subset_records,
    synthesize,
)
from .distiller import (
    SUPERVISION_MODES,
    TrainConfig,
    TrainingDiverged,
    finetune,
    gradient_check,
    total_loss,
    transfer_student,
)
from .evaluate import (
    auc_score,
    evaluate_identification,
    evaluate_retrieval,
    evaluate_verification,
    make_verification_pairs,
)
from .metric import MEASURES, class_centroids
from .mincut import (
    SweepEntry,
    SweepResult,
    brute_force_minimize,
    default_lambda_grid,
    lambda_sweep,
    load_mask,
    minimize,
    save_mask,
    write_sweep_csv,
)
from .selgraph import (
    SelectionGraph,
    SelectionMask,
    build_selection_graph,
    dump_graph,
    energy,
    pairwise_reward,
)
from .student import (
    StudentArch,
    StudentModel,
    init_student,
    load_checkpoint,
    save_checkpoint,
    tap_output,
)

__version__ = "0.1.0"
