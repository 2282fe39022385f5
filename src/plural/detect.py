"""Community detection from reaction data.

Fuzzy c-means over signed-attitude rows finds a community's principal
subcommunities, its 2-7 internal blocs of shared attitude. It is
deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_rng
from .errors import DegenerateInput, NotFound, TooSmall

# Fuzzy c-means settings: the fuzzifier m (> 1), the iteration cap, and the
# centroid shift below which a run has converged.
FUZZIFIER = 2.0
MAX_ITERS = 300
TOL = 1e-6


@dataclass
class AttitudeMatrix:
    """Dense citizens-by-features matrix of signed reactions in [-1, 1].

    0 means unobserved or neutral; unobserved cells are *not* imputed before
    clustering (zeros enter the distance computation as-is).
    """

    row_ids: list[int]
    col_ids: list[int]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.row_ids), len(self.col_ids)):
            raise ValueError("values shape does not match id sequences")
        if len(set(self.row_ids)) != len(self.row_ids) or len(set(self.col_ids)) != len(self.col_ids):
            raise ValueError("row/col ids must be unique")
        if self.values.size and (np.nanmax(np.abs(self.values)) > 1 + 1e-12):
            raise ValueError("attitude values must lie in [-1, 1]")


@dataclass
class FuzzyPartition:
    """Result of a fuzzy c-means run."""

    memberships: np.ndarray          # n x K, rows sum to 1
    centroids: np.ndarray            # K x features
    K: int
    converged: bool = True
    n_iters: int = 0
    objective_history: list[float] = field(default_factory=list)

    def partition_coefficient(self) -> float:
        """Mean squared membership; higher is crisper."""
        return float(np.mean(np.sum(self.memberships ** 2, axis=1)))


def _memberships_from_distances(d2: np.ndarray) -> np.ndarray:
    # u_ik proportional to d_ik^(-1/(m-1)); rows touching a centroid exactly
    # split their mass over the zero-distance centroids.
    power = -1.0 / (FUZZIFIER - 1.0)
    zero = d2 <= 1e-300
    if not zero.any():
        g = d2 ** power
        return g / g.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        g = np.where(zero, 0.0, d2) ** power
        g[zero] = 0.0
    u = np.zeros_like(d2)
    hit = zero.any(axis=1)
    if hit.any():
        z = zero[hit]
        u[hit] = z / z.sum(axis=1, keepdims=True)
    rest = ~hit
    if rest.any():
        u[rest] = g[rest] / g[rest].sum(axis=1, keepdims=True)
    return u


class _SqDistances:
    """Squared distances from each row of `x` to each of K centroids.

    The rows are repeated K times once, as a C-contiguous (n, K, F) array,
    so each call's subtraction runs over whole (K, F) blocks into a buffer
    kept between calls. For C-ordered `x` and centroids (a fit's centroids
    always are), the differences have the values and the layout of the
    broadcast `x[:, None, :] - centroids[None, :, :]`, so the einsum gives
    its bits; the buffer is C-ordered whatever the layout of `x`.
    """

    def __init__(self, x: np.ndarray, K: int) -> None:
        self._rows = np.repeat(x[:, None, :], K, axis=1)
        self._diff = np.empty_like(self._rows)

    def __call__(self, centroids: np.ndarray) -> np.ndarray:
        np.subtract(self._rows, centroids[None, :, :], out=self._diff)
        return np.einsum("nkf,nkf->nk", self._diff, self._diff)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(closest), r))
        idx = min(idx, n - 1)
        centroids[j] = x[idx]
        closest = np.minimum(closest, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows of `values`, each row's index among them); no rows
    when `values` holds no cells."""
    if not values.size:
        return values[:0], np.zeros(len(values), dtype=np.intp)
    rows, inverse = np.unique(values, axis=0, return_inverse=True)
    return rows, inverse.reshape(-1)    # numpy 2.0.0 returns another shape


def fuzzy_c_means(data: AttitudeMatrix, K: int, seed: int = 0, *,
                  distinct: tuple[np.ndarray, np.ndarray] | None = None) -> FuzzyPartition:
    """Alternating membership/centroid updates until centroids move < TOL.

    Seeding is k-means++ from the given seed; non-convergence within
    MAX_ITERS is reported through the `converged` flag, never an error.
    The recorded objective is non-increasing iteration over iteration.

    `distinct` is `_distinct_rows(data.values)`, computed here when not
    given. Distances and memberships are row-wise, so they run on the
    distinct rows only and are gathered back to every row with the same
    bits; seeding, centroid updates, the objective and the shift run over
    all rows, whose order fixes their sums.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    x = data.values
    rows, inverse = _distinct_rows(x) if distinct is None else distinct
    if len(rows) < K:
        raise DegenerateInput(f"need at least K={K} distinct rows, found {len(rows)}")

    rng = derive_rng(seed, "fcm", K)
    centroids = _kmeanspp_init(x, K, rng)
    sq_distances = _SqDistances(rows, K)
    u = _memberships_from_distances(sq_distances(centroids))[inverse]
    um = u ** FUZZIFIER
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, MAX_ITERS + 1):
        new_centroids = (um.T @ x) / um.sum(axis=0)[:, None]
        d2_rows = sq_distances(new_centroids)
        d2 = d2_rows[inverse]
        u = _memberships_from_distances(d2_rows)[inverse]
        um = u ** FUZZIFIER          # the objective's weights, and the next update's
        history.append(float(np.sum(um * d2)))
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < TOL:
            converged = True
            break
    return FuzzyPartition(memberships=u, centroids=centroids, K=K, converged=converged,
                          n_iters=it, objective_history=history)


def select_partition(data: AttitudeMatrix, k_range: tuple[int, int],
                     seed: int = 0) -> FuzzyPartition:
    """Sweep K over `k_range` and keep the run maximizing the partition coefficient.

    The top of the range is clamped to the number of distinct rows; if even
    the bottom is infeasible, DegenerateInput propagates from the K=2 run.
    """
    k_lo, k_hi = k_range
    if k_lo < 2 or k_hi < k_lo:
        raise ValueError("K range must satisfy 2 <= lo <= hi")
    distinct = _distinct_rows(data.values)
    k_hi = min(k_hi, max(len(distinct[0]), k_lo))
    best: FuzzyPartition | None = None
    for k in range(k_lo, k_hi + 1):
        part = fuzzy_c_means(data, k, seed=seed, distinct=distinct)
        if best is None or part.partition_coefficient() > best.partition_coefficient():
            best = part
    assert best is not None
    return best


def principal_subcommunities(fabric, community: int, reactions: AttitudeMatrix,
                             seed: int = 0) -> list[set[int]]:
    """Detect a community's 2-7 dominant internal blocs and store them.

    Members are hard-assigned to their argmax cluster so downstream scoring
    can treat the blocs as discrete. Raises TooSmall below 4 sufficiently
    observed members; never returns fewer than 2 blocs silently.
    """
    comm = fabric.communities.get(community)
    if comm is None:
        raise NotFound(f"unknown community {community}")
    # the members with an observed (nonzero) cell
    keep = np.array([r in comm.members for r in reactions.row_ids], dtype=bool) \
        & (reactions.values != 0.0).any(axis=1)
    observed = [r for r, kept in zip(reactions.row_ids, keep.tolist()) if kept]
    if len(observed) < 4:
        raise TooSmall(f"community {community}: {len(observed)} observed members, need >= 4")
    sub = AttitudeMatrix(observed, list(reactions.col_ids), reactions.values[keep])
    part = select_partition(sub, (2, 7), seed=seed)
    assign = np.argmax(part.memberships, axis=1)
    blocs: list[set[int]] = []
    for k in range(part.K):
        bloc = {sub.row_ids[i] for i in np.nonzero(assign == k)[0]}
        if bloc:
            blocs.append(bloc)
    if len(blocs) < 2:
        raise DegenerateInput(f"community {community}: argmax assignment collapsed to one bloc")
    blocs.sort(key=lambda g: min(g))
    comm.principal_subcommunities = blocs
    return blocs
