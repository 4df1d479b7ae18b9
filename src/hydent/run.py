"""End-to-end driver: rounds of teaching and propagation, then readout.

A run starts from a fully labeled dataset and the indices revealed to the
algorithm.  Each round gathers the frontier of unlabeled nodes adjacent to
anything already labeled or learned, asks the teachers for a curriculum
(unless the variant disables teaching or the requested size covers the
whole frontier, in which case the whole frontier is taken; each teacher's
solve starts from its own easiest candidates), propagates one synchronous
step, and measures feedback to size the next curriculum.  When nothing is
left unlearned the per-learner damped diffusions are solved to their
limits, averaged, and read out by argmax.  The learners are pooled
uniformly throughout: each round propagates at their mean stay vector,
and the closure averages their limits.

Every learner shares one sparse kNN graph, built once per run: a learner
is its stay vector over that graph (see ``propagate.py``), and one teacher
judges for all of them.  A run without teachers holds no n x n array; a
taught run's only ones are the teacher's L+ and its prior covariance, each
inverted in its own buffer, which then also holds the anchors' Cholesky
rows, so they are also its peak, with temporaries of order n / 2.

Ablation variants reuse the same driver so that, for example, the full
method with one learner and the coupling weight at zero reproduces the
single-teacher baseline bit for bit.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import UNLABELED, Dataset
from .feedback import feedback_value, next_size
from .graph import _indices, assemble, flap_style_weights, gaussian_weights, knn_pattern
from .propagate import final_labels, init_labels, propagate_round, steady_state
from .teacher import candidate_set, make_teacher, teaching_matrix
from .teaching import bcd_solve

KNOWN_KERNELS = ("gaussian", "flap")

VARIANTS = (
    "hydent",
    "hybrid-no-teaching",
    "single-teacher-<kernel>",
    "single-learner-<kernel>",
)


@dataclass(frozen=True)
class RunConfig:
    kernels: tuple = ("gaussian", "flap")
    k: int = 5
    sigma: float = 1.0
    kappa2: float = 100.0
    beta0: float = 100.0
    beta1: float = 100.0
    gamma: float = 0.5
    theta: float = 0.05
    # Seeds the labeled split the CLI draws; a run itself draws no random numbers.
    seed: int = 0

    def __post_init__(self):
        for setting in fields(self):
            # a numpy scalar runs alike but would not serialize to JSON
            if isinstance(getattr(self, setting.name), np.generic):
                object.__setattr__(self, setting.name, getattr(self, setting.name).item())
        if isinstance(self.kernels, str):
            raise ValueError(f"kernels={self.kernels!r} is one string, not a sequence of kernel names; "
                             f"for one learner pass kernels=({self.kernels!r},)")
        # a list runs alike but would leave the config unhashable and unequal to its tuple twin
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise ValueError("need at least one learner kernel")
        for at, kernel in enumerate(self.kernels):
            if kernel not in KNOWN_KERNELS:
                raise ValueError(f"unknown kernel {kernel!r}; choose from {KNOWN_KERNELS}")
            if kernel in self.kernels[:at]:
                raise ValueError(f"kernel {kernel!r} is repeated; each learner kernel may appear once")
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("sigma", "kappa2", "beta0", "beta1", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k < 1 or self.sigma <= 0 or self.kappa2 <= 0:
            raise ValueError("k, sigma and kappa2 must be positive")
        if self.beta0 < 0 or self.beta1 < 0 or self.gamma <= 0:
            raise ValueError("beta0 and beta1 must be nonnegative, gamma positive")
        if math.exp(-self.gamma) == 0.0:
            raise ValueError(f"gamma={self.gamma} is too large: the first round's feedback, "
                             "exp(-gamma), underflows to 0")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")


@dataclass(frozen=True)
class RoundRecord:
    """Trace of one teaching round.

    ``curriculum`` holds the nodes the round taught.  A record keeps no
    scores: the run holds one state, closed into :attr:`RunResult.scores`.
    ``converged`` and ``moved`` are the round's selection solve's flags
    (see :class:`~hydent.teaching.TeachingSolution`): whether it converged,
    and whether its curriculum differs, as a set, from the one its start
    reads as.  ``solve_seconds`` is the wall time of that solve, part of
    ``seconds``.  All three are None for rounds without a solve (no-teaching
    variants, and rounds whose requested size covers the whole pool).
    """

    index: int
    pool_size: int
    size: int
    feedback: float
    seconds: float
    objective: np.ndarray
    curriculum: np.ndarray
    converged: bool | None
    moved: bool | None
    solve_seconds: float | None


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    ``config`` is the configuration the variant ran with: a single-teacher
    or single-learner variant's names its one kernel, and a single
    teacher's has the row coupling ``beta0`` at zero.
    """

    variant: str
    predictions: np.ndarray
    accuracy: float
    rounds: tuple
    seconds: float
    scores: np.ndarray
    config: RunConfig = field(repr=False)


def evaluate(predictions, truth, unlabeled_idx) -> float:
    """Fraction of the given indices whose true class is known that are predicted correctly.

    ``predictions`` and ``truth`` must have one entry per row.  Indices
    whose truth is ``UNLABELED`` are skipped; an index set with no known
    truth counts as vacuously perfect.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise ValueError(f"{predictions.size} predictions for {truth.size} true labels; "
                         "evaluate needs one prediction per row of truth")
    unlabeled_idx = _indices(unlabeled_idx, "unlabeled", len(truth))
    unlabeled_idx = unlabeled_idx[truth[unlabeled_idx] != UNLABELED]
    if unlabeled_idx.size == 0:
        return 1.0
    return float(np.mean(predictions[unlabeled_idx] == truth[unlabeled_idx]))


def _build_graphs(features, config):
    """The run's one graph and each kernel's stay vector, shape (kernels, n), in config order.

    Every kernel keeps the Gaussian edge weights; flap only adds self-loops,
    which make each row keep the share s / (degree + s) of its own scores.
    """
    weights = gaussian_weights(knn_pattern(features, config.k), config.sigma)
    graph = assemble(weights)
    stays = np.zeros((len(config.kernels), graph.n))  # the Gaussian learner keeps no share
    if "flap" in config.kernels:
        loops = flap_style_weights(weights)
        stays[config.kernels.index("flap")] = loops / (graph.degree + loops)
    return graph, stays


def _classes_so_far(masked, learned, scores, class_count):
    """Current per-class membership: given labels plus learned argmaxes."""
    owner = masked.copy()
    owner[learned] = np.argmax(scores[learned], axis=1)
    return {c: np.flatnonzero(owner == c) for c in range(class_count)}


def _parse_variant(variant, config):
    """Map a variant name to (the config it runs with, teaching on)."""
    if variant in ("hydent", "hybrid-no-teaching"):
        return config, variant == "hydent"
    for prefix, teaching in (("single-teacher-", True), ("single-learner-", False)):
        if variant.startswith(prefix):
            tag = variant[len(prefix):]
            if tag in config.kernels:
                return replace(config, kernels=(tag,), beta0=0.0 if teaching else config.beta0), teaching
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS} "
                     f"with <kernel> one of the configured kernels {config.kernels}")


def _drive(dataset, labeled_idx, config, teaching, variant, round_hook):
    started = time.perf_counter()
    n = dataset.n
    c = dataset.class_count
    labeled_idx = _indices(labeled_idx, "labeled", n)
    masked = np.full(n, -1, dtype=int)
    masked[labeled_idx] = dataset.labels[labeled_idx]
    if np.any(dataset.labels[labeled_idx] < 0):
        raise ValueError("labeled indices must carry known classes")

    graph, stays = _build_graphs(dataset.features, config)
    pooled = stays.mean(axis=0)  # every round pools the learners uniformly, as the closure does
    teacher = make_teacher(graph, config.kappa2) if teaching else None

    start = init_labels(masked, c)
    scores = start
    learned = np.empty(0, dtype=int)
    anchored = np.zeros(n, dtype=bool)  # labeled or learned
    anchored[labeled_idx] = True
    unlabeled0 = np.flatnonzero(~anchored)

    records = []
    feedback = math.exp(-config.gamma)  # the first round's: rows still at the uniform prior
    while not anchored.all():
        tick = time.perf_counter()
        candidates = candidate_set(graph, anchored)
        pool = candidates.size
        size = next_size(pool, feedback) if teaching else pool
        if size < pool:
            by_class = _classes_so_far(masked, learned, scores, c)
            # one teacher judges for every learner; the solve takes a score matrix per learner
            r_list = [teaching_matrix(teacher, candidates, by_class)] * len(stays)
            solve_started = time.perf_counter()
            solution = bcd_solve(r_list, config.beta0, config.beta1, size)
            solve_seconds = time.perf_counter() - solve_started
            chosen = candidates[solution.curriculum]
            objective = solution.objective_trace
            converged = solution.converged
            moved = solution.moved
        else:
            chosen = candidates
            objective = np.empty(0)
            converged = moved = solve_seconds = None

        scores = propagate_round(scores, graph, chosen, pooled, learned, start)
        feedback = feedback_value(scores[chosen], c, config.gamma)
        learned = np.concatenate([learned, chosen])
        anchored[chosen] = True

        record = RoundRecord(
            index=len(records) + 1,
            pool_size=pool,
            size=int(chosen.size),
            feedback=feedback,
            seconds=time.perf_counter() - tick,
            objective=objective,
            curriculum=chosen,
            converged=converged,
            moved=moved,
            solve_seconds=solve_seconds,
        )
        records.append(record)
        if round_hook is not None:
            round_hook(record)

    limits = [steady_state(graph, scores, config.theta, stay) for stay in stays]
    mean_scores = sum(limits) / len(limits)
    predictions = final_labels(mean_scores, masked)
    accuracy = evaluate(predictions, dataset.labels, unlabeled0)
    return RunResult(
        variant=variant,
        predictions=predictions,
        accuracy=accuracy,
        rounds=tuple(records),
        seconds=time.perf_counter() - started,
        scores=mean_scores,
        config=config,
    )


def run_baseline(dataset: Dataset, labeled_idx, config: RunConfig, variant: str, round_hook=None) -> RunResult:
    """Run one variant: the full method, a no-teaching ablation, or a
    single-teacher / single-learner reduction."""
    ran, teaching = _parse_variant(variant, config)
    return _drive(dataset, labeled_idx, ran, teaching, variant, round_hook)


def run_hydent(dataset: Dataset, labeled_idx, config: RunConfig, round_hook=None) -> RunResult:
    """Run the full method with every configured learner."""
    return run_baseline(dataset, labeled_idx, config, "hydent", round_hook=round_hook)


# One-sided critical values of Student's t at confidence 0.9, df 1..30.
_T_CRITICAL_90 = (
    3.078, 1.886, 1.638, 1.533, 1.476, 1.440, 1.415, 1.397, 1.383, 1.372,
    1.363, 1.356, 1.350, 1.345, 1.341, 1.337, 1.333, 1.330, 1.328, 1.325,
    1.323, 1.321, 1.319, 1.318, 1.316, 1.315, 1.314, 1.313, 1.311, 1.310,
)
_T_CRITICAL_90_LARGE = 1.2816


def paired_t_test(accuracies_a, accuracies_b):
    """One-sided paired test that mean(a - b) > 0.

    Returns ``(t, significant)``.  Zero-variance differences are decided
    degenerately: a positive mean is certain improvement, anything else is
    not significant.  The test is at confidence 0.9, whose critical values
    are built in.  Non-finite accuracies are refused.
    """
    a = np.asarray(accuracies_a, dtype=float)
    b = np.asarray(accuracies_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length vectors")
    if a.size < 2:
        raise ValueError("need at least two paired runs")
    diff = a - b
    if not np.isfinite(diff).all():
        raise ValueError("accuracies must be finite")
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    df = diff.size - 1
    critical = _T_CRITICAL_90[df - 1] if df <= 30 else _T_CRITICAL_90_LARGE
    if sd == 0.0:
        if mean > 0.0:
            return math.inf, True
        return (0.0 if mean == 0.0 else -math.inf), False
    t = mean / (sd / math.sqrt(diff.size))
    return float(t), bool(t > critical)


def result_to_json(result: RunResult) -> str:
    """Stable JSON summary of a run (schema field first)."""
    payload = {
        "schema": "hydent.run.v2",
        "variant": result.variant,
        "accuracy": result.accuracy,
        "rounds": len(result.rounds),
        "seconds": result.seconds,
        "config": asdict(result.config),
    }
    return json.dumps(payload, indent=2)


def write_rounds_csv(result: RunResult, path) -> None:
    """Per-round trace: round, b, s, g, seconds, converged, moved, solve seconds.

    Each flag is 1 or 0, and the last three columns are empty for a round without a solve.
    """
    with open(path, "w") as handle:
        for r in result.rounds:
            converged, moved = ("" if flag is None else int(flag) for flag in (r.converged, r.moved))
            solve = "" if r.solve_seconds is None else repr(r.solve_seconds)
            handle.write(f"{r.index},{r.pool_size},{r.size},{repr(r.feedback)},{repr(r.seconds)},"
                         f"{converged},{moved},{solve}\n")


def write_bcd_trace_csv(result: RunResult, path) -> None:
    """Per-sweep objective trace: round, iteration, Q.

    Rounds without a teaching step (no-teaching variants) contribute no
    rows; the file is still created.
    """
    with open(path, "w") as handle:
        for r in result.rounds:
            for i, q in enumerate(r.objective):
                handle.write(f"{r.index},{i},{repr(float(q))}\n")
