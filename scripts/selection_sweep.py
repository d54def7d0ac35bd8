#!/usr/bin/env python3
"""Lambda sweep on the planted-outlier benchmark.

Prints, per lambda on the default pow2 grid, the selected count, optimal
energy, pairwise reward, and how the selection splits planted outliers from
inliers. The count stays near-total for very negative lambda, then collapses
to zero as lambda approaches 0; in between there is a window that discards
most planted outliers while keeping the inliers.
"""

import argparse

import numpy as np

from skd.benchmark import make_benchmark
from skd.metric import class_centroids
from skd.mincut import default_lambda_grid, minimize
from skd.selgraph import build_selection_graph, pairwise_reward
from skd.selgraph import energy as selection_energy

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    bench = make_benchmark(args.seed)
    train = bench.train_set
    flags = train.outlier == 1
    graph = build_selection_graph(train, class_centroids(train))
    print(f"benchmark seed {args.seed}: {len(train)} faces, "
          f"{int(flags.sum())} planted outliers, {graph.intra_edge_count} intra edges")
    print(f"{'lambda':>9} {'count':>6} {'energy':>12} {'reward':>10} "
          f"{'outliers kept':>13} {'inliers kept':>12}")
    for lam in default_lambda_grid():
        mask, e = minimize(graph, lam)
        sel = mask.alpha.astype(bool)
        print(f"{lam:>9.0f} {mask.selected_count:>6} {e:>12.3f} "
              f"{pairwise_reward(graph, mask):>10.3f} "
              f"{int((sel & flags).sum()):>10}/{int(flags.sum()):<2} "
              f"{int((sel & ~flags).sum()):>9}/{int((~flags).sum())}")
        assert e == selection_energy(graph, mask, lam)
