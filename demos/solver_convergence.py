"""Watch the curriculum solver descend.

Builds the first teaching round of a real run by hand: the run's one graph
from the Gaussian weights, the one frontier and teacher it gives both
learners, and the teacher's score matrix, once per learner.  Then solves
the joint selection problem and prints the objective trace, which must
fall monotonically (that is the solver's contract, asserted at the end).
The frontier is read off a boolean mask of the anchored nodes, as a run
keeps it.  The solve starts where it starts in a run, at each score
matrix's easiest candidates, and reports whether its curriculum left that
start's; the curriculum is compared with the naive strategy of just
taking the smallest score diagonals, and with the one the solve ends in
from an explicit random start.

Run:  python3 demos/solver_convergence.py
"""

import math

import numpy as np

from hydent import (
    RunConfig,
    SplitSpec,
    assemble,
    bcd_solve,
    candidate_set,
    gaussian_weights,
    knn_pattern,
    make_teacher,
    next_size,
    split,
    synth_noisy_gaussian,
    teaching_matrix,
)


def main():
    config = RunConfig(seed=0)
    dataset = synth_noisy_gaussian(100, 1.0, seed=0)
    labeled_idx, _ = split(dataset, SplitSpec(1, seed=0))

    # the kNN edges carry their squared distances; the weights go on the same edges
    weights = gaussian_weights(knn_pattern(dataset.features, config.k), config.sigma)
    graph = assemble(weights)
    # the flap learner only adds self-loops, which stay out of the Laplacian,
    # so as in a run both learners share one frontier and one teacher
    teacher = make_teacher(graph, config.kappa2)

    anchored = np.zeros(dataset.n, dtype=bool)  # the run's mask of labeled and learned nodes
    anchored[labeled_idx] = True
    candidates = candidate_set(graph, anchored)
    by_class = {c: labeled_idx[dataset.labels[labeled_idx] == c] for c in range(2)}
    r_list = [teaching_matrix(teacher, candidates, by_class)] * len(config.kernels)
    s = next_size(candidates.size, math.exp(-config.gamma))  # the first round's feedback
    print(f"frontier of {candidates.size} candidates, curriculum size {s}")

    solution = bcd_solve(r_list, config.beta0, config.beta1, s)
    trace = np.asarray(solution.objective_trace)
    print(f"\nobjective: {trace[0]:.1f} -> {trace[-1]:.1f} "
          f"over {len(trace) - 1} sweeps (converged: {solution.converged}, "
          f"left its start's curriculum: {solution.moved})")
    marks = np.unique(np.geomspace(1, len(trace), num=12).astype(int) - 1)
    for i in marks:
        print(f"  sweep {i:3d}   Q = {trace[i]:.3f}")
    assert np.all(np.diff(trace) <= 1e-10), "descent broken"

    chosen = candidates[solution.curriculum]
    naive = candidates[np.argsort(np.mean([np.diag(r) for r in r_list], axis=0))[:s]]
    overlap = np.intersect1d(chosen, naive).size
    print(f"\ncurriculum {np.sort(chosen)} (the {s} rows of largest stacked norm)")
    print(f"smallest-diagonal pick would share {overlap}/{s} members")
    random_start = np.random.default_rng(0).random((len(r_list), candidates.size, s))
    drawn = candidates[bcd_solve(r_list, config.beta0, config.beta1, s, init=random_start).curriculum]
    print(f"from a random start the solve keeps {np.intersect1d(drawn, naive).size}/{drawn.size} "
          "of them: the penalties hold it near where it starts")


if __name__ == "__main__":
    main()
