"""Selective knowledge distillation over precomputed teacher embeddings.

Pipeline: synthesize or load a student set, build the per-class selection
graph from teacher features, exactly minimize the binary selection energy via
min-cut, then train a compact student under joint classification plus masked
feature regression.
"""

from .dataset import (
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
    classification_loss,
    finetune,
    gradient_check,
    pretrain_student,
    regression_loss,
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
from .metric import MEASURES, CentroidTable, class_centroids, pairwise_measure
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
    forward,
    forward_batch,
    init_student,
    load_checkpoint,
    save_checkpoint,
    tap_output,
)

__version__ = "0.1.0"
