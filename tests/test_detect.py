"""Detection: FCM against a reference implementation and planted-cluster
recovery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plural import detect
from plural.detect import (FUZZIFIER, AttitudeMatrix, _SqDistances,
                           _memberships_from_distances, fuzzy_c_means,
                           principal_subcommunities)
from plural.errors import DegenerateInput, TooSmall
from plural.fabric import SocialFabric

from fcm_walk import fcm_walk, select_walk


# -- independent oracles -------------------------------------------------------

def reference_fcm(x, centroids, m=2.0, iters=500):
    """Textbook FCM iteration from fixed initial centroids, to convergence."""
    for _ in range(iters):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        u = np.zeros((x.shape[0], centroids.shape[0]))
        for i in range(x.shape[0]):
            zero = d2[i] <= 1e-300
            if zero.any():
                u[i, zero] = 1.0 / zero.sum()
                continue
            for k in range(centroids.shape[0]):
                u[i, k] = 1.0 / np.sum((d2[i, k] / d2[i]) ** (1.0 / (m - 1.0)))
        um = u ** m
        new_centroids = (um.T @ x) / um.sum(0)[:, None]
        if np.max(np.abs(new_centroids - centroids)) < 1e-12:
            break
        centroids = new_centroids
    return u, centroids


def broadcast_sq_distances(x, centroids):
    """Squared row-to-centroid distances as one broadcast: the formula the
    buffered kernel must reproduce bit for bit."""
    diff = x[:, None, :] - centroids[None, :, :]
    return np.einsum("nkf,nkf->nk", diff, diff)


def old_memberships_from_distances(d2):
    """The membership update before its no-zero-distance short path."""
    power = -1.0 / (FUZZIFIER - 1.0)
    zero = d2 <= 1e-300
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


def jaccard(a, b):
    return len(a & b) / len(a | b)


def planted_attitudes(rng, sizes, centers, sigma, n_features):
    rows = []
    labels = []
    for k, (size, center) in enumerate(zip(sizes, centers)):
        block = rng.normal(center, sigma, size=(size, n_features))
        rows.append(block)
        labels.extend([k] * size)
    x = np.clip(np.vstack(rows), -1, 1)
    ids = list(range(x.shape[0]))
    return AttitudeMatrix(ids, list(range(n_features)), x), np.array(labels)


@st.composite
def sign_matrices(draw):
    """Every one of a few distinct sign patterns and repeats of them in
    random order, then some columns zeroed in all rows."""
    n_features = draw(st.integers(1, 8))
    patterns = draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n_features,
                                      max_size=n_features), min_size=2, max_size=10,
                             unique_by=tuple))
    repeats = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=1, max_size=50))
    x = np.array(patterns)[draw(st.permutations(list(range(len(patterns))) + repeats))]
    x[:, draw(st.lists(st.integers(0, n_features - 1), max_size=2))] = 0.0
    return x


def same_fit(fit, walk):
    """The same K, `converged` and `n_iters`, memberships and centroids within
    1e-12, and the same argmax bloc for every row whose two highest walk
    memberships are further apart than that tolerance allows to flip."""
    top = np.sort(walk.memberships, axis=1)
    decided = top[:, -1] - top[:, -2] > 2e-12
    return ((fit.K, fit.converged, fit.n_iters) == (walk.K, walk.converged, walk.n_iters)
            and np.abs(fit.memberships - walk.memberships).max() <= 1e-12
            and np.abs(fit.centroids - walk.centroids).max() <= 1e-12
            and np.array_equal(fit.memberships.argmax(axis=1)[decided],
                               walk.memberships.argmax(axis=1)[decided]))


def assert_sweep_equals_the_walk(x, seed):
    """`fuzzy_c_means` of each K and `select_partition` over K = 2..7 give
    the walk's fit (`same_fit`), and raise DegenerateInput where it must;
    the fits, K ascending.

    A K whose walk changes when its centroid sums run over the rows in
    reverse order sits where rounding decides the fit (a symmetric start
    that the iterations leave one way or another), so no regrouped fit need
    match it: it is not compared, nor is a selection over it."""
    data = AttitudeMatrix(list(range(len(x))), list(range(x.shape[1])), x)
    n_distinct = len(np.unique(x, axis=0))
    with pytest.raises(DegenerateInput):
        fuzzy_c_means(data, n_distinct + 1, seed=seed)
    if n_distinct < 2:
        with pytest.raises(DegenerateInput):
            detect.select_partition(data, (2, 7), seed=seed)
        return []
    ks = range(2, min(n_distinct, 7) + 1)
    fits = [fuzzy_c_means(data, K, seed=seed) for K in ks]
    walks = [fcm_walk(x, K, seed) for K in ks]
    posed = [same_fit(fcm_walk(x, K, seed, reverse=True), walk) for K, walk in zip(ks, walks)]
    for K, fit, walk, compared in zip(ks, fits, walks, posed):
        assert not compared or same_fit(fit, walk), K
    if all(posed):
        assert same_fit(detect.select_partition(data, (2, 7), seed=seed),
                        select_walk(x, (2, 7), seed))
    return fits


# -- fuzzy c-means --------------------------------------------------------------

class TestFuzzyCMeans:
    def test_two_point_clusters_match_reference(self):
        # 5 points at the origin, 5 at all-ones: dominant membership ~1
        x = np.vstack([np.zeros((5, 3)), np.ones((5, 3))])
        data = AttitudeMatrix(list(range(10)), [0, 1, 2], x)
        part = fuzzy_c_means(data, K=2, seed=5)
        dominant = part.memberships.max(axis=1)
        assert np.all(dominant >= 0.99)
        labels = part.memberships.argmax(axis=1)
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

        ref_u, ref_c = reference_fcm(x, x[[0, 5]].copy())
        # align reference clusters to ours by centroid proximity
        order = [int(np.argmin(((ref_c - c) ** 2).sum(1))) for c in part.centroids]
        assert np.allclose(part.memberships, ref_u[:, order], atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_membership_update_equals_the_general_form(self, seed):
        # The short path (no row touches a centroid) and the general one give
        # the same bits, on random distances and with zero distances planted.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(60, 5))
        d2 = broadcast_sq_distances(x, x[rng.choice(60, size=4, replace=False)] + 1e-3)
        assert not (d2 <= 1e-300).any()
        assert np.array_equal(_memberships_from_distances(d2), old_memberships_from_distances(d2))
        touching = broadcast_sq_distances(x, x[[3, 17, 17, 40]])
        assert (touching <= 1e-300).any()
        assert np.array_equal(_memberships_from_distances(touching),
                              old_memberships_from_distances(touching))

    @pytest.mark.parametrize("seed", range(4))
    def test_distance_kernel_equals_the_broadcast(self, seed):
        # One kernel, called again and again on its buffer, as a fit calls it,
        # on C-ordered rows and centroids (a fit's centroids always are):
        # random centroids, and centroids on rows.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(50, 7))
        kernel = _SqDistances(x, 4)
        for centroids in (rng.uniform(-1, 1, size=(4, 7)), x[[3, 17, 17, 40]],
                          rng.normal(size=(4, 7))):
            assert np.array_equal(kernel(centroids), broadcast_sq_distances(x, centroids))
        assert (kernel(x[[3, 17, 17, 40]]) == 0.0).any()
        # The repeated rows are C-ordered whatever the layout of x, so a
        # Fortran-ordered x gives the bits of its C-ordered copy.
        centroids = rng.normal(size=(4, 7))
        assert np.array_equal(_SqDistances(np.asfortranarray(x), 4)(centroids),
                              kernel(centroids))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fit_equals_the_broadcast_fit(self, seed, monkeypatch):
        """A whole fit with the buffered kernel is the fit with the broadcast."""
        rng = np.random.default_rng(seed)
        sizes, centers = [12, 10, 8], [[0.8, 0.8, -0.5], [-0.8, 0.2, 0.6], [0.1, -0.9, -0.2]]
        data, _ = planted_attitudes(rng, sizes, centers, 0.3, 3)

        class Broadcast:
            def __init__(self, x, K):
                self.x = x

            def __call__(self, centroids):
                return broadcast_sq_distances(self.x, centroids)

        fits = [fuzzy_c_means(data, K, seed=seed) for K in (2, 3, 4)]
        monkeypatch.setattr(detect, "_SqDistances", Broadcast)
        for K, fit in zip((2, 3, 4), fits):
            ref = fuzzy_c_means(data, K, seed=seed)
            assert np.array_equal(fit.memberships, ref.memberships)
            assert np.array_equal(fit.centroids, ref.centroids)
            assert (fit.n_iters, fit.converged) == (ref.n_iters, ref.converged)
            assert fit.objective_history == ref.objective_history

    @pytest.mark.parametrize("case", ["signs", "k_distinct", "planted"])
    def test_sweep_equals_the_walk_on_examples(self, case):
        """Rows duplicated many times, and rows on a centroid (k-means++
        seeds on rows; with K distinct rows every row sits on a centroid at
        every iteration)."""
        rng = np.random.default_rng(11)
        if case == "signs":
            patterns = rng.integers(-1, 2, size=(6, 5)).astype(float)
            x = np.vstack([patterns[rng.integers(6, size=50)], rng.uniform(-1, 1, size=(3, 5))])
        elif case == "k_distinct":
            x = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 0.0]])[rng.integers(3, size=30)]
        else:
            planted, _ = planted_attitudes(rng, [12, 10, 8], [[0.8, 0.8, -0.5], [-0.8, 0.2, 0.6],
                                                              [0.1, -0.9, -0.2]], 0.3, 3)
            x = np.vstack([planted.values, planted.values[[0, 0, 3, 5, 5, 5, 29, 29]]])
            x = x[rng.permutation(len(x))]
        assert len(np.unique(x, axis=0)) < len(x)
        fits = assert_sweep_equals_the_walk(x, seed=3)
        if case == "k_distinct":
            assert set(np.unique(fits[-1].memberships)) == {0.0, 1.0}

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(sign_matrices(), st.integers(0, 2**32 - 1))
    # rows tied between two blocs, and two fits that rounding decides
    @example(np.array([[-1, -1, -1, -1], [-1, 0, -1, -1], [-1, 0, -1, 0], [-1, 0, 0, -1],
                       [-1, 0, -1, -1]], dtype=float), 0)
    @example(np.array([[-1, -1, -1, -1], [-1, -1, -1, 0], [-1, 0, -1, 0], [-1, 0, -1, -1],
                       [-1, -1, -1, 0]], dtype=float), 0)
    @example(np.array([[-1, -1, -1, 0], [-1, -1, -1, -1], [-1, 0, -1, -1], [-1, 0, -1, 0],
                       [-1, -1, -1, -1]], dtype=float), 0)
    def test_sweep_equals_the_walk(self, x, seed):
        """On sign matrices with duplicate rows and all-zero columns, from one
        distinct row (DegenerateInput) up, the sweep gives each K the walk's
        fit."""
        assert_sweep_equals_the_walk(x, seed)

    def test_distance_kernel_in_blocks_equals_the_broadcast(self):
        # More rows than one buffer holds: the rows go through it in blocks.
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(300, 12))
        centroids = rng.normal(size=(27, 12))
        assert x.size * len(centroids) > 2 * detect._CELLS
        assert np.array_equal(_SqDistances(x, 27)(centroids), broadcast_sq_distances(x, centroids))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_attitudes_rejected(self, bad):
        values = np.array([[1.0, 0.0], [bad, -1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            AttitudeMatrix([0, 1, 2], [0, 1], values)

    def test_k_one_rejected(self):
        data = AttitudeMatrix([0, 1], [0], np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            fuzzy_c_means(data, K=1)

    def test_identical_rows_degenerate(self):
        data = AttitudeMatrix([0, 1, 2], [0, 1], np.zeros((3, 2)))
        with pytest.raises(DegenerateInput):
            fuzzy_c_means(data, K=2)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        data, _ = planted_attitudes(rng, [8, 8, 8], [-0.8, 0.0, 0.8], 0.05, 6)
        part = fuzzy_c_means(data, K=3, seed=9)
        assert np.allclose(part.memberships.sum(axis=1), 1.0, atol=1e-6)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        data, _ = planted_attitudes(rng, [10, 10], [-0.5, 0.5], 0.3, 4)
        part = fuzzy_c_means(data, K=2, seed=1)
        hist = part.objective_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        data, _ = planted_attitudes(rng, [10, 10], [-0.5, 0.5], 0.2, 4)
        a = fuzzy_c_means(data, K=2, seed=123)
        b = fuzzy_c_means(data, K=2, seed=123)
        assert np.array_equal(a.memberships, b.memberships)
        assert np.array_equal(a.centroids, b.centroids)


# -- principal subcommunities ------------------------------------------------------

def two_bloc_fabric_and_reactions(n_per_bloc=10, seed=0):
    rng = np.random.default_rng(seed)
    f = SocialFabric()
    n = 2 * n_per_bloc
    for _ in range(n):
        f.add_citizen()
    c = f.add_community()
    for p in range(n):
        f.add_membership(p, c, 1.0, 1.0)
    # opposite signed reactions to 6 items
    values = np.zeros((n, 6))
    for p in range(n):
        sign = 1.0 if p < n_per_bloc else -1.0
        values[p] = sign * np.clip(rng.normal(0.8, 0.1, 6), 0, 1)
    data = AttitudeMatrix(list(range(n)), list(range(6)), np.clip(values, -1, 1))
    return f, c, data


class TestPrincipalSubcommunities:
    def test_planted_blocs_recovered(self):
        f, c, data = two_bloc_fabric_and_reactions(seed=3)
        blocs = principal_subcommunities(f, c, data, seed=1)
        assert 2 <= len(blocs) <= 7
        planted = [set(range(10)), set(range(10, 20))]
        for truth in planted:
            assert max(jaccard(truth, b) for b in blocs) >= 0.9
        assert f.communities[c].principal_subcommunities == blocs

    def test_too_small(self):
        f = SocialFabric()
        for _ in range(3):
            f.add_citizen()
        c = f.add_community()
        for p in range(3):
            f.add_membership(p, c, 1.0, 1.0)
        data = AttitudeMatrix([0, 1, 2], [0], np.array([[1.0], [-1.0], [1.0]]))
        with pytest.raises(TooSmall):
            principal_subcommunities(f, c, data)

    def test_argmax_assignment_partitions_members(self):
        f, c, data = two_bloc_fabric_and_reactions(seed=9)
        blocs = principal_subcommunities(f, c, data, seed=4)
        union = set().union(*blocs)
        assert union == f.communities[c].members
        for i, a in enumerate(blocs):
            for b in blocs[i + 1:]:
                assert not (a & b)
