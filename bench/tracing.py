"""Outside-in tracing of one hydent run.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the names that ``hydent.run`` imports from the other modules with
timing wrappers, and the solver's ``surrogate``/``gradient``/``objective``
globals in ``hydent.teaching`` with counting wrappers.  Nothing in ``src/``
is edited; the originals are put back when the block ends.

Each wrapped call becomes a span (layer, function, start, end, self time,
workload, run id, and parent: the index of the enclosing span, which is its
line in the written file); spans stay in memory until the benchmark writes
them out.
A span's self time is its duration minus the durations of its direct
children, so the self times of one run's spans sum to the run's span.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import hydent.run
import hydent.teaching

# Function imported by hydent.run -> per-layer metric its self time adds to.
TIMED = {
    "knn_pattern": "graph.knn_s",
    "gaussian_weights": "graph.weights_s",
    "flap_style_weights": "graph.weights_s",
    "assemble": "graph.assemble_s",
    "make_teacher": "teacher.make_s",
    "candidate_set": "teacher.frontier_s",
    "teaching_matrix": "teacher.score_s",
    "bcd_solve": "teaching.solve_s",
    "propagate_round": "propagate.round_s",
    "steady_state": "propagate.closure_s",
    "final_labels": "propagate.readout_s",
    "feedback_value": "feedback.s",
}

# Solver helpers called thousands of times per solve: counted, not timed.
COUNTED = {
    "surrogate": "teaching.value_evals",
    "gradient": "teaching.grad_evals",
    "objective": "teaching.objective_evals",
}

RUN_METRIC = "run.self_s"


def _graph_counts(counts, _args, graph):
    fields = (graph.adjacency, graph.degree, graph.laplacian, graph.iteration,
              graph.eigenvalues, graph.eigenvectors)
    counts["graph.edges"] += int((graph.adjacency != 0).sum())
    counts["graph.dense_bytes"] += sum(field.nbytes for field in fields)


def _score_counts(counts, args, _matrix):
    _teacher, candidates, labeled_by_class = args[:3]
    anchors = sum(len(members) for members in labeled_by_class.values())
    counts["teacher.score_calls"] += 1
    counts["teacher.pool_sum"] += len(candidates)
    counts["teacher.anchor_cube_gflop"] += anchors**3 / 1e9


def _solve_counts(counts, args, solution):
    counts["teaching.solve_calls"] += 1
    counts["teaching.sweeps"] += len(solution.objective_trace) - 1
    counts["teaching.converged"] += int(solution.converged)
    counts["teaching.selected"] += len(solution.curriculum)
    counts["teaching.requested"] += int(args[3])


def _propagate_counts(counts, args, _scores):
    _previous, _iterations, curriculum, _weights, learned = args[:5]
    counts["propagate.rows"] += len(curriculum) + len(learned)


def _feedback_counts(counts, _args, _value):
    counts["feedback.calls"] += 1


# Counts read off a timed call's arguments and result, after its span closes.
ON_RETURN = {
    "assemble": _graph_counts,
    "teaching_matrix": _score_counts,
    "bcd_solve": _solve_counts,
    "propagate_round": _propagate_counts,
    "feedback_value": _feedback_counts,
}


class Tracer:
    """Spans and counts for the runs made while it is installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.counts = Counter()
        self.run_id = None
        self._open = []  # indices of spans not yet closed, innermost last

    def _begin(self, layer, function):
        span = {
            "layer": layer,
            "function": function,
            "start": time.perf_counter(),
            "end": None,
            "self": None,
            "children_s": 0.0,
            "workload": self.workload,
            "run_id": self.run_id,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()
        duration = span["end"] - span["start"]
        span["self"] = duration - span.pop("children_s")
        if span["parent"] is not None:
            self.spans[span["parent"]]["children_s"] += duration

    def call(self, run_id, layer, function, fn, *args, **kwargs):
        """Call ``fn`` inside a top-level span owned by ``run_id``."""
        self.run_id = run_id
        span = self._begin(layer, function)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def _timed(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        on_return = ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            span = self._begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, fn, metric):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced names for the duration of the block, then restore them."""
        patches = [(hydent.run, name, self._timed(getattr(hydent.run, name))) for name in TIMED]
        patches += [(hydent.teaching, name, self._counted(getattr(hydent.teaching, name), metric))
                    for name, metric in COUNTED.items()]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def self_seconds(self):
        """Per-layer self time summed over every closed span, keyed by metric."""
        totals = Counter()
        for span in self.spans:
            metric = RUN_METRIC if span["parent"] is None else TIMED[span["function"]]
            totals[metric] += span["self"]
        return totals
