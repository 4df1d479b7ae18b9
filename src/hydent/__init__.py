"""Curriculum-guided hybrid label propagation.

A small toolkit for semi-supervised classification on graphs: several
propagation learners share one similarity graph and one pool of unlabeled
nodes, each learner differing only in the share of its own scores a row
keeps (its self-loops), and a matching ensemble of teachers repeatedly
selects the simplest candidates for them to learn next.  See README.md for
the workflow and the command-line interface.
"""

from .data import (
    CLUSTER_CENTERS,
    UNLABELED,
    Dataset,
    SplitSpec,
    load_csv,
    save_csv,
    split,
    synth_noisy_gaussian,
)
from .feedback import feedback_value, next_size
from .graph import (
    Edges,
    LearnerGraph,
    assemble,
    flap_style_weights,
    gaussian_weights,
    knn_pattern,
)
from .propagate import final_labels, init_labels, propagate_round, steady_state
from .run import (
    RunConfig,
    RunResult,
    RoundRecord,
    evaluate,
    paired_t_test,
    result_to_json,
    run_baseline,
    run_hydent,
    write_bcd_trace_csv,
    write_rounds_csv,
)
from .teacher import (
    TeacherState,
    candidate_set,
    gap_matrix,
    make_teacher,
    teaching_matrix,
)
from .teaching import (
    TeachingSolution,
    bcd_solve,
    easiest_start,
    exact_step,
    gradient,
    objective,
    surrogate,
)

__version__ = "0.1.0"

__all__ = [
    "CLUSTER_CENTERS",
    "Dataset",
    "Edges",
    "LearnerGraph",
    "RoundRecord",
    "RunConfig",
    "RunResult",
    "SplitSpec",
    "TeacherState",
    "TeachingSolution",
    "UNLABELED",
    "assemble",
    "bcd_solve",
    "candidate_set",
    "easiest_start",
    "evaluate",
    "exact_step",
    "feedback_value",
    "final_labels",
    "flap_style_weights",
    "gap_matrix",
    "gaussian_weights",
    "gradient",
    "init_labels",
    "knn_pattern",
    "load_csv",
    "make_teacher",
    "next_size",
    "objective",
    "paired_t_test",
    "propagate_round",
    "result_to_json",
    "run_baseline",
    "run_hydent",
    "save_csv",
    "split",
    "steady_state",
    "surrogate",
    "synth_noisy_gaussian",
    "teaching_matrix",
    "write_bcd_trace_csv",
    "write_rounds_csv",
]
