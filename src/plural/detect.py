"""Community detection from reaction data.

Fuzzy c-means over signed-attitude rows finds a community's principal
subcommunities, its 2-7 internal blocs of shared attitude. It is
deterministic given a seed.

`select_partition` fits every K of its range in one lockstep sweep
(`_sweep`; `fuzzy_c_means` is the sweep of one K). The K's centroids sit in
one stacked array, so each iteration serves them all with the same few
array calls. The sweep reads each distinct row once, weighted by how many
rows repeat it, and only the observed columns, those where some row has a
nonzero cell: an unobserved column's centroid coordinate is exactly 0.
Distances go through one difference buffer of bounded size, a block of
rows at a time.
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
        if not np.isfinite(self.values).all():
            raise ValueError("attitude values must be finite")
        if self.values.size and (np.max(np.abs(self.values)) > 1 + 1e-12):
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


def _block_sums(a: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Each row's sum over each block of `sizes` columns, repeated across the
    block. The blocks are laid side by side, zero-padded to the widest, so
    each sums left to right as `a.sum(axis=1)` over its columns alone would
    for up to 7 of them."""
    padded = np.zeros((len(a), len(sizes), max(sizes)))
    padded[:, np.arange(max(sizes)) < np.array(sizes)[:, None]] = a
    return np.repeat(padded.sum(axis=2), sizes, axis=1)


def _memberships_from_distances(d2: np.ndarray, sizes: list[int] | None = None) -> np.ndarray:
    # u_ik proportional to d_ik^(-1/(m-1)) within each block of `sizes`
    # columns, one block per K (one block of every column by default); a row
    # touching a block's centroid exactly splits that block's mass over its
    # zero-distance centroids.
    sizes = [d2.shape[1]] if sizes is None else sizes
    power = -1.0 / (FUZZIFIER - 1.0)
    zero = d2 <= 1e-300
    if not zero.any():
        g = d2 ** power
    else:
        with np.errstate(divide="ignore"):
            g = np.where(zero, 0.0, d2) ** power
        g = np.where(_block_sums(zero, sizes) > 0, zero, g)
    return g / _block_sums(g, sizes)


# Cells of the distance kernel's difference buffer (or one row's, if more).
_CELLS = 1 << 15


class _SqDistances:
    """Squared distances from each row of `x` to each of up to K centroids.

    The rows are broadcast against the centroids a block of rows at a time
    into one C-ordered buffer of at most _CELLS cells, kept between calls,
    so memory stays bounded whatever the number of rows. The differences
    have the values of the broadcast `x[:, None, :] - centroids[None, :, :]`
    in its C-ordered layout, so for C-ordered `x` and centroids (a fit's
    always are) the einsum gives the broadcast's bits, and whatever the
    layout of `x` the bits of its C-ordered copy.
    """

    def __init__(self, x: np.ndarray, K: int) -> None:
        self._x = x
        n, features = x.shape
        self._buffer = np.empty(min(max(_CELLS, K * features), n * K * features))

    def __call__(self, centroids: np.ndarray) -> np.ndarray:
        n, features = self._x.shape
        k = len(centroids)
        step = max(1, len(self._buffer) // (k * features))
        d2 = np.empty((n, k))
        for lo in range(0, n, step):
            rows = self._x[lo:lo + step]
            diff = self._buffer[:rows.size * k].reshape(len(rows), k, features)
            np.subtract(rows[:, None, :], centroids[None, :, :], out=diff)
            np.einsum("nkf,nkf->nk", diff, diff, out=d2[lo:lo + step])
        return d2


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


def _sweep(data: AttitudeMatrix, k_lo: int, k_hi: int, seed: int) -> list[FuzzyPartition]:
    """One fit for each K in k_lo..k_hi, the top clamped to the number of
    distinct rows, all in lockstep.

    Each K seeds with k-means++ on every row, in row order, from its own
    stream. Its centroids then join one stacked (sum of K x observed
    columns) array, and each iteration updates every K in the stack with
    the same few array calls: distances, memberships per K block, and
    centroids `(w * u^m)^T @ rows / (w @ u^m)` over the distinct rows, each
    weighted by its count w. A K leaves the stack once its centroids move
    less than TOL, or at MAX_ITERS. The recorded objective is the
    count-weighted sum of u^m * d^2, non-increasing iteration over iteration.
    """
    x = data.values
    rows, inverse = np.unique(x, axis=0, return_inverse=True) if x.size else (x[:0], None)
    if len(rows) < k_lo:
        raise DegenerateInput(f"need at least K={k_lo} distinct rows, found {len(rows)}")
    inverse = inverse.reshape(-1)    # numpy 2.0.0 returns another shape
    sizes = list(range(k_lo, min(k_hi, len(rows)) + 1))    # the K still in the stack
    # an unobserved column's centroid coordinate is exactly 0: fit without it
    observed = (rows != 0.0).any(axis=0)
    # C-ordered, as column indexing is not: the distances' bits follow the layout
    kept = np.ascontiguousarray(rows[:, observed])
    weights = np.bincount(inverse, minlength=len(rows)).astype(float)
    centroids = np.ascontiguousarray(np.vstack([
        _kmeanspp_init(x, k, derive_rng(seed, "fcm", k))[:, observed] for k in sizes]))
    sq_distances = _SqDistances(kept, len(centroids))
    um = _memberships_from_distances(sq_distances(centroids), sizes) ** FUZZIFIER
    histories: dict[int, list[float]] = {k: [] for k in sizes}
    fits: dict[int, FuzzyPartition] = {}
    for it in range(1, MAX_ITERS + 1):
        new_centroids = ((um * weights[:, None]).T @ kept) / (weights @ um)[:, None]
        d2 = sq_distances(new_centroids)
        u = _memberships_from_distances(d2, sizes)
        um = u ** FUZZIFIER          # the objective's weights, and the next update's
        starts = np.cumsum(sizes) - sizes
        objective = np.add.reduceat(weights @ (um * d2), starts)
        shift = np.maximum.reduceat(np.abs(new_centroids - centroids).max(axis=1), starts)
        centroids = new_centroids
        for k, value in zip(sizes, objective.tolist()):
            histories[k].append(value)
        done = (shift < TOL) | (it == MAX_ITERS)
        if not done.any():
            continue
        for j in np.flatnonzero(done).tolist():
            k, lo = sizes[j], int(starts[j])
            full = np.zeros((k, x.shape[1]))
            full[:, observed] = centroids[lo:lo + k]
            fits[k] = FuzzyPartition(memberships=u[inverse, lo:lo + k], centroids=full, K=k,
                                     converged=bool(shift[j] < TOL), n_iters=it,
                                     objective_history=histories[k])
        stay = np.repeat(~done, sizes)
        sizes = [k for k, left in zip(sizes, done) if not left]
        if not sizes:
            break
        centroids, um = centroids[stay], um[:, stay]
    return [fits[k] for k in sorted(fits)]


def fuzzy_c_means(data: AttitudeMatrix, K: int, seed: int = 0) -> FuzzyPartition:
    """The fit of one K, from k-means++ seeding on the given seed: the
    lockstep sweep (`_sweep`) of K alone. Non-convergence within MAX_ITERS
    is reported through the `converged` flag, never an error;
    DegenerateInput is raised below K distinct rows."""
    if K < 2:
        raise ValueError("K must be >= 2")
    return _sweep(data, K, K, seed)[0]


def select_partition(data: AttitudeMatrix, k_range: tuple[int, int],
                     seed: int = 0) -> FuzzyPartition:
    """Fit every K of `k_range` in one lockstep sweep (`_sweep`) and keep the
    fit maximizing the partition coefficient, the lowest K on a tie.

    Each K's fit is `fuzzy_c_means(data, K, seed)`'s up to rounding, as the
    stacked sums group differently. The top of the range is clamped to the
    number of distinct rows; below the bottom, DegenerateInput is raised.
    """
    k_lo, k_hi = k_range
    if k_lo < 2 or k_hi < k_lo:
        raise ValueError("K range must satisfy 2 <= lo <= hi")
    best: FuzzyPartition | None = None
    for part in _sweep(data, k_lo, k_hi, seed):
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
