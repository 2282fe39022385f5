"""Fuzzy c-means one K at a time over every row: the oracle the lockstep
sweep (`detect.select_partition`, `detect.fuzzy_c_means`) must match.

This is the fit the sweep replaced. Each K seeds with k-means++ from its own
stream, then alternates memberships and centroid updates over all rows and
all columns, the squared distances one broadcast, until its centroids move
less than TOL or it reaches MAX_ITERS. The sweep must give the same K, the
same argmax blocs, `converged` and `n_iters`; its memberships and centroids
may differ in the last bits only, as its sums are grouped another way.
"""

import numpy as np

from plural._rng import derive_rng
from plural.detect import FUZZIFIER, MAX_ITERS, TOL, FuzzyPartition, _kmeanspp_init
from plural.errors import DegenerateInput


def memberships(d2):
    """u_ik proportional to d_ik^(-1/(m-1)); a row touching a centroid
    exactly splits its mass over the zero-distance centroids."""
    zero = d2 <= 1e-300
    with np.errstate(divide="ignore"):
        g = np.where(zero, 0.0, d2) ** (-1.0 / (FUZZIFIER - 1.0))
    g[zero] = 0.0
    hit = zero.any(axis=1)
    g[hit] = zero[hit]
    return g / g.sum(axis=1, keepdims=True)


def sq_distances(x, centroids):
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("nkf,nkf->nk", diff, diff)


def fcm_walk(x, K, seed, reverse=False):
    """The fit of one K on the rows of `x`, as `fuzzy_c_means` gives it;
    with `reverse`, the same fit with its centroid sums run over the rows
    in reverse order, so grouped another way."""
    rows = slice(None, None, -1) if reverse else slice(None)
    if len(np.unique(x, axis=0)) < K:
        raise DegenerateInput(f"fewer than K={K} distinct rows")
    centroids = _kmeanspp_init(x, K, derive_rng(seed, "fcm", K))
    um = memberships(sq_distances(x, centroids)) ** FUZZIFIER
    history = []
    for it in range(1, MAX_ITERS + 1):
        new_centroids = (um[rows].T @ x[rows]) / um.sum(axis=0)[:, None]
        d2 = sq_distances(x, new_centroids)
        u = memberships(d2)
        um = u ** FUZZIFIER
        history.append(float(np.sum(um * d2)))
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < TOL:
            break
    return FuzzyPartition(memberships=u, centroids=centroids, K=K, converged=shift < TOL,
                          n_iters=it, objective_history=history)


def select_walk(x, k_range, seed):
    """`select_partition`: K from the bottom of `k_range` to its top, clamped
    to the number of distinct rows, keeping the first fit with the highest
    partition coefficient."""
    k_lo, k_hi = k_range
    fits = [fcm_walk(x, K, seed)
            for K in range(k_lo, max(k_lo, min(k_hi, len(np.unique(x, axis=0)))) + 1)]
    return max(fits, key=FuzzyPartition.partition_coefficient)
