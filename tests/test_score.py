"""Scoring: interest decay, consensus products, divisiveness, balancing,
the combined score, and the factorization backend against a batch oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural._rng import derive_rng
from plural.errors import FewerThanTwoBlocs, InsufficientData
from plural.fabric import SocialFabric
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER,
                          ContentItem, MfFit, ReactionMatrix, ScoreCard, ScoringParams, ScoreSet,
                          assign_label, balancing_set, bloc_rates, bridging_gac,
                          bridging_mf, citizen_score, community_score,
                          consensus_product, divisiveness, interest,
                          score_for_community, score_round, _bloc_weights)


def votes(spec_by_bloc, content=0, start_id=0):
    """ReactionMatrix from per-bloc (n_pos, n_neg) specs; returns (rm, blocs)."""
    rm = ReactionMatrix()
    blocs = []
    pid = start_id
    for n_pos, n_neg in spec_by_bloc:
        bloc = []
        for _ in range(n_pos):
            rm.record_reaction(pid, content, 1, 0)
            bloc.append(pid)
            pid += 1
        for _ in range(n_neg):
            rm.record_reaction(pid, content, -1, 0)
            bloc.append(pid)
            pid += 1
        blocs.append(bloc)
    return rm, blocs


class TestInterest:
    def test_no_exposure_zero(self):
        assert interest(ReactionMatrix(), 0, range(10), 5, 5.0) == 0.0

    def test_everyone_reacts_now(self):
        rm = ReactionMatrix()
        for p in range(8):
            rm.record_reaction(p, 0, 1 if p % 2 else -1, 4)
        assert interest(rm, 0, range(8), 4, 3.0) == pytest.approx(1.5)

    def test_single_aged_neutral_exposure(self):
        rm = ReactionMatrix()
        rm.record_exposure(0, 0, 0)
        half_life = 4.0
        assert interest(rm, 0, range(5), 4, half_life) == pytest.approx(0.5 / 5)

    def test_nonmember_interactions_ignored(self):
        rm = ReactionMatrix()
        rm.record_reaction(99, 0, 1, 0)
        assert interest(rm, 0, range(5), 0, 5.0) == 0.0


class TestBridgingGac:
    def test_laplace_eleven_twelfths(self):
        rm, blocs = votes([(10, 0), (10, 0)])
        assert bridging_gac(rm, 0, blocs, "uniform", alpha=1.0) == pytest.approx(11 / 12)
        assert bridging_gac(rm, 0, blocs, "penrose", alpha=1.0) == pytest.approx(11 / 12)

    def test_consensus_returns_common_rate_exactly(self):
        rm, blocs = votes([(3, 1), (3, 1)])
        for weighting in ("uniform", "penrose"):
            assert bridging_gac(rm, 0, blocs, weighting, alpha=0.0) == 0.75

    def test_penrose_sqrt_weights(self):
        w = _bloc_weights([4, 1], "penrose")
        got = consensus_product(np.array([0.9, 0.3]), w)
        assert got == pytest.approx(0.9 ** (2 / 3) * 0.3 ** (1 / 3), abs=1e-12)

    def test_empty_bloc_sits_at_prior(self):
        rm, blocs = votes([(4, 0), (0, 0)])
        beta = bridging_gac(rm, 0, blocs, "uniform", alpha=1.0)
        assert beta == pytest.approx(np.sqrt((5 / 6) * 0.5))
        # alpha=0 mode keeps the 0.5 prior for voteless blocs
        beta0 = bridging_gac(rm, 0, blocs, "uniform", alpha=0.0)
        assert beta0 == pytest.approx(np.sqrt(1.0 * 0.5))

    def test_zero_weight_entries_ignored(self):
        # a zero-weight rate neither forces the product to 0 nor enters the log
        w = np.array([0.0, 0.5, 0.5])
        assert consensus_product(np.array([0.0, 0.81, 0.25]), w) == pytest.approx(0.45)
        assert consensus_product(np.array([0.3, 0.0, 0.25]), w) == 0.0

    def test_fewer_than_two_blocs(self):
        rm, blocs = votes([(2, 2)])
        with pytest.raises(FewerThanTwoBlocs):
            bridging_gac(rm, 0, blocs)

    def test_count_scaling_invariance_alpha_zero(self):
        a, blocs_a = votes([(3, 1), (2, 2)])
        b, blocs_b = votes([(9, 3), (6, 6)])
        assert bridging_gac(a, 0, blocs_a, "uniform", 0.0) == \
            bridging_gac(b, 0, blocs_b, "uniform", 0.0)

    @given(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=6),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_schur_concave_uniform(self, rates, data):
        # transfer mass from a lower to a higher coordinate: x majorizes y
        y = np.array(rates)
        hi = int(np.argmax(y))
        lo = int(np.argmin(y))
        if y[hi] == y[lo]:
            return
        t = data.draw(st.floats(0.0, float(min(1 - y[hi], y[lo]))))
        x = y.copy()
        x[hi] += t
        x[lo] -= t
        w = np.full(len(y), 1 / len(y))
        assert consensus_product(x, w) <= consensus_product(y, w) + 1e-12


class TestDivisiveness:
    def test_spread_and_characteristic(self):
        rm, blocs = votes([(9, 1), (1, 9)])
        delta, char = divisiveness(rm, 0, blocs, alpha=0.0)
        assert delta == pytest.approx(0.8)
        assert char == frozenset({0})

    def test_consensus_zero_spread(self):
        rm, blocs = votes([(4, 1), (4, 1)])
        delta, char = divisiveness(rm, 0, blocs, alpha=0.0)
        assert delta == 0.0
        assert char == frozenset({0, 1})  # both blocs: not a strict subset
        assert assign_label(0.0, delta, char, 2, 0.1) == LABEL_NEITHER

    def test_both_below_half_not_divisive(self):
        rm, blocs = votes([(4, 6), (3, 7)])
        delta, char = divisiveness(rm, 0, blocs, alpha=0.0)
        assert char == frozenset()
        assert assign_label(0.0, delta, char, 2, 0.05) == LABEL_NEITHER

    def test_relabeling_invariance(self):
        rm, blocs = votes([(9, 1), (2, 8), (5, 5)])
        d1, _ = divisiveness(rm, 0, blocs, alpha=1.0)
        d2, _ = divisiveness(rm, 0, list(reversed(blocs)), alpha=1.0)
        assert d1 == d2


class TestCommunityScore:
    @pytest.mark.parametrize("iota,beta,delta,expected",
                             [(0.5, 0.8, 0.3, 0.4),
                              (0.0, 0.9, 0.9, 0.0),
                              (1.0, 0.2, 0.9, 0.9)])
    def test_examples(self, iota, beta, delta, expected):
        assert community_score(iota, beta, delta) == pytest.approx(expected)

    @given(st.floats(0, 10), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_exact_formula(self, iota, beta, delta):
        assert community_score(iota, beta, delta) == iota * max(beta, delta)

    @given(st.floats(0, 5), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, iota, beta, delta, beta2, delta2):
        base = community_score(iota, beta, delta)
        assert community_score(iota + 0.5, beta, delta) >= base
        assert community_score(iota, max(beta, beta2), delta) >= base
        assert community_score(iota, beta, max(delta, delta2)) >= base

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            community_score(-1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            community_score(1.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            community_score(1.0, float("nan"), 0.5)


class TestLabels:
    def test_bridging_wins_ties(self):
        assert assign_label(0.4, 0.4, frozenset({0}), 2, 0.1) == LABEL_BRIDGING

    def test_floor_suppresses(self):
        assert assign_label(0.05, 0.02, frozenset(), 2, 0.1) == LABEL_NEITHER
        assert assign_label(0.02, 0.05, frozenset({0}), 2, 0.1) == LABEL_NEITHER

    def test_divisive_needs_strict_subset(self):
        assert assign_label(0.1, 0.5, frozenset({0}), 2, 0.1) == LABEL_DIVISIVE
        assert assign_label(0.1, 0.5, frozenset({0, 1}), 2, 0.1) == LABEL_NEITHER
        assert assign_label(0.1, 0.5, frozenset(), 2, 0.1) == LABEL_NEITHER


def two_community_fabric():
    f = SocialFabric()
    for _ in range(8):
        f.add_citizen()
    a = f.add_community(lambda_=1.0)
    b = f.add_community(lambda_=1.0)
    for p in (0, 1, 2, 3):
        f.add_membership(p, a, 1.0, 1.0)
    for p in (2, 3, 4, 5):
        f.add_membership(p, b, 1.0, 1.0)
    return f, a, b


class TestCitizenScore:
    def test_bridging_across_both_communities(self):
        f, a, b = two_community_fabric()
        rm = ReactionMatrix()
        for p in (0, 1, 2, 3, 4, 5):
            rm.record_reaction(p, 0, 1, 0)
        item = ContentItem(id=0, creator=0, target_communities={a, b})
        card = citizen_score(item, 2, f, rm, ScoringParams(), 0)
        assert card.scope == ("citizen", 2)
        assert card.label == LABEL_BRIDGING
        assert not card.low_confidence

    def test_divisive_within_citizen(self):
        f, a, b = two_community_fabric()
        rm = ReactionMatrix()
        for p in (0, 1):
            rm.record_reaction(p, 0, 1, 0)
        for p in (4, 5):
            rm.record_reaction(p, 0, -1, 0)
        # citizen 2 sits in both: a approves (rate 1.0), b rejects (rate 0.0)
        card = citizen_score(ContentItem(id=0, creator=0, target_communities={a}),
                             2, f, rm, ScoringParams(alpha=0.0), 0)
        assert card.label == LABEL_DIVISIVE
        assert card.characteristic_blocs == frozenset({0})

    def test_single_community_fallback(self):
        f, a, b = two_community_fabric()
        rm = ReactionMatrix()
        for p in (0, 1):
            rm.record_reaction(p, 0, 1, 0)
        card = citizen_score(ContentItem(id=0, creator=0, target_communities={a}),
                             0, f, rm, ScoringParams(alpha=0.0), 0)
        assert card.low_confidence
        assert card.beta == pytest.approx(1.0)  # raw approval over community a
        assert card.delta == 0.0


class TestBalancingSet:
    def _scores_with(self, cards):
        scores = ScoreSet()
        for c in cards:
            scores.add(c)
        return scores

    def _card(self, mid, delta, char, psi=1.0, label=LABEL_DIVISIVE):
        from plural.score import ScoreCard
        return ScoreCard(content=mid, scope=("community", 0), iota=1.0, beta=0.0,
                         delta=delta, psi=psi, characteristic_blocs=frozenset(char),
                         label=label)

    def test_opposite_pair_symmetric(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}, topics={1}),
                   1: ContentItem(id=1, creator=0, target_communities={0}, topics={1})}
        scores = self._scores_with([self._card(0, 0.8, {0}), self._card(1, 0.8, {1})])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == [1]
        assert balancing_set(("community", 0), 1, scores, catalog, False, 0.2) == [0]

    def test_shared_characteristic_bloc_excluded(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}),
                   1: ContentItem(id=1, creator=0, target_communities={0})}
        scores = self._scores_with([self._card(0, 0.8, {0, 1}), self._card(1, 0.8, {1, 2})])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == []

    def test_zero_tolerance_unequal_deltas(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}),
                   1: ContentItem(id=1, creator=0, target_communities={0})}
        scores = self._scores_with([self._card(0, 0.8, {0}), self._card(1, 0.75, {1})])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.0) == []

    def test_topic_overlap_required(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}, topics={1}),
                   1: ContentItem(id=1, creator=0, target_communities={0}, topics={2})}
        scores = self._scores_with([self._card(0, 0.8, {0}), self._card(1, 0.8, {1})])
        assert balancing_set(("community", 0), 0, scores, catalog, True, 0.2) == []
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == [1]

    def test_sorted_by_psi_then_id(self):
        catalog = {m: ContentItem(id=m, creator=0, target_communities={0})
                   for m in range(4)}
        scores = self._scores_with([
            self._card(0, 0.8, {0}),
            self._card(1, 0.8, {1}, psi=0.5),
            self._card(2, 0.8, {1}, psi=0.9),
            self._card(3, 0.8, {1}, psi=0.5),
        ])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == [2, 1, 3]

    def test_non_divisive_base_rejected(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0})}
        scores = self._scores_with([self._card(0, 0.8, {0}, label=LABEL_BRIDGING)])
        with pytest.raises(ValueError):
            balancing_set(("community", 0), 0, scores, catalog, False, 0.2)


# -- the per-scope index against full scans over ScoreSet.cards -------------------

def _reference_balancing_set(scope, content, scores, catalog, topic_overlap_required,
                             delta_tol):
    base = scores.cards[(content, scope)]
    out = []
    for (m, s), card in scores.cards.items():
        if s != scope or m == content or card.label != LABEL_DIVISIVE:
            continue
        if abs(card.delta - base.delta) > delta_tol:
            continue
        if card.characteristic_blocs & base.characteristic_blocs:
            continue
        if topic_overlap_required and not (catalog[m].topics & catalog[content].topics):
            continue
        out.append((-card.psi, m))
    return [m for _, m in sorted(out)]


def _reference_community_cards(scores, community):
    return [c for (m, s), c in sorted(scores.cards.items()) if s == ("community", community)]


SCOPES = [("community", 0), ("community", 1), ("community", 2), ("citizen", 0),
          ("citizen", 5)]

_random_card = st.builds(
    lambda content, scope, label, delta, psi, blocs: ScoreCard(
        content=content, scope=scope, iota=1.0, beta=0.0, delta=delta, psi=psi,
        characteristic_blocs=frozenset(blocs), label=label),
    st.integers(0, 11), st.sampled_from(SCOPES),
    st.sampled_from([LABEL_DIVISIVE, LABEL_DIVISIVE, LABEL_BRIDGING, LABEL_NEITHER]),
    st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0]) | st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 2.0),
    st.frozensets(st.integers(0, 3), max_size=3))


@settings(max_examples=150, deadline=None)
@given(cards=st.lists(_random_card, min_size=1, max_size=40),
       topics=st.lists(st.frozensets(st.integers(0, 2), min_size=1, max_size=2),
                       min_size=12, max_size=12),
       topic_overlap_required=st.booleans(),
       delta_tol=st.sampled_from([0.0, 0.1, 0.2, 0.5]))
def test_scope_index_matches_full_scans(cards, topics, topic_overlap_required, delta_tol):
    """Cards re-added under a key replace the old card in both views."""
    scores = ScoreSet()
    for card in cards:
        scores.add(card)
    catalog = {m: ContentItem(id=m, creator=0, target_communities={0}, topics=set(t))
               for m, t in enumerate(topics)}
    for scope in SCOPES:
        assert dict(scores.scope_cards(scope)) == \
            {m: c for (m, s), c in scores.cards.items() if s == scope}
    for community in (0, 1, 2, 3):
        assert scores.community_cards(community) == \
            _reference_community_cards(scores, community)
    for (m, scope), card in scores.cards.items():
        if card.label == LABEL_DIVISIVE:
            assert balancing_set(scope, m, scores, catalog, topic_overlap_required,
                                 delta_tol) == \
                _reference_balancing_set(scope, m, scores, catalog,
                                         topic_overlap_required, delta_tol)


# -- matrix factorization ---------------------------------------------------------

def planted_mf_instance():
    """Two 10-rater blocs, 6 items: one bridging, four partisan, one rejected."""
    rm = ReactionMatrix()
    bloc_a = list(range(10))
    bloc_b = list(range(10, 20))
    for p in bloc_a + bloc_b:
        rm.record_reaction(p, 0, 1 if (p % 10) != 9 else -1, 0)
    for item, owner in ((1, "A"), (2, "A"), (3, "B"), (4, "B")):
        for p in bloc_a:
            rm.record_reaction(p, item, 1 if owner == "A" else -1, 0)
        for p in bloc_b:
            rm.record_reaction(p, item, 1 if owner == "B" else -1, 0)
    for p in bloc_a + bloc_b:
        rm.record_reaction(p, 5, -1, 0)
    return rm, bloc_a + bloc_b


def batch_mf_oracle(rm, raters, reg=0.05, iters=20000, lr=0.02, seed=0):
    """Full-batch gradient descent on the same objective, written from scratch."""
    obs = [(p, m, 1.0 if cell.reaction > 0 else 0.0)
           for (p, m), cell in sorted(rm.items())
           if p in set(raters) and cell.reaction != 0]
    raters_idx = {p: i for i, p in enumerate(sorted({p for p, _, _ in obs}))}
    items_idx = {m: j for j, m in enumerate(sorted({m for _, m, _ in obs}))}
    rng = np.random.default_rng(seed)
    mu = float(np.mean([y for _, _, y in obs]))
    b_u = np.zeros(len(raters_idx))
    b_i = np.zeros(len(items_idx))
    f_u = rng.normal(0, 0.1, len(raters_idx))
    f_i = rng.normal(0, 0.1, len(items_idx))
    for _ in range(iters):
        g_mu = 0.0
        g_bu = np.zeros_like(b_u)
        g_bi = np.zeros_like(b_i)
        g_fu = np.zeros_like(f_u)
        g_fi = np.zeros_like(f_i)
        for p, m, y in obs:
            u, i = raters_idx[p], items_idx[m]
            err = y - (mu + b_u[u] + b_i[i] + f_u[u] * f_i[i])
            g_mu += err
            g_bu[u] += err - reg * b_u[u]
            g_bi[i] += err - reg * b_i[i]
            g_fu[u] += err * f_i[i] - reg * f_u[u]
            g_fi[i] += err * f_u[u] - reg * f_i[i]
        mu += lr * g_mu / len(obs)
        b_u += lr * g_bu / 6.0    # 6 observations per rater on the dense instance
        b_i += lr * g_bi / 20.0   # 20 per item
        f_u += lr * g_fu / 6.0
        f_i += lr * g_fi / 20.0
    return {m: float(np.clip(mu + b_i[j], 0, 1)) for m, j in items_idx.items()}


def _reference_mf(reactions, raters, reg=0.05, epochs=400, lr=0.05, seed=0,
                  contents=None):
    """The SGD over numpy arrays of shape (n, 1), one element at a time, that
    bridging_mf's scalar loop must reproduce bit for bit."""
    raters = set(raters)
    pool = None if contents is None else set(contents)
    obs = []
    items = set()
    voters = set()
    for (p, m), cell in sorted(reactions.items()):
        if p not in raters or cell.reaction == 0:
            continue
        if pool is not None and m not in pool:
            continue
        obs.append((p, m, 1.0 if cell.reaction > 0 else 0.0))
        items.add(m)
        voters.add(p)

    rng = derive_rng(seed, "mf")
    r_index = {p: i for i, p in enumerate(sorted(voters))}
    i_index = {m: j for j, m in enumerate(sorted(items))}
    mu = float(np.mean([y for _, _, y in obs]))
    b_u = np.zeros(len(r_index))
    b_i = np.zeros(len(i_index))
    f_u = rng.normal(0.0, 0.1, size=(len(r_index), 1))
    f_i = rng.normal(0.0, 0.1, size=(len(i_index), 1))

    order = np.arange(len(obs))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            p, m, y = obs[idx]
            u, i = r_index[p], i_index[m]
            pred = mu + b_u[u] + b_i[i] + float(f_u[u] @ f_i[i])
            err = y - pred
            mu += lr * err
            b_u[u] += lr * (err - reg * b_u[u])
            b_i[i] += lr * (err - reg * b_i[i])
            fu = f_u[u].copy()
            f_u[u] += lr * (err * f_i[i] - reg * f_u[u])
            f_i[i] += lr * (err * fu - reg * f_i[i])

    beta_raw = {m: float(np.clip(mu + b_i[i_index[m]], 0.0, 1.0)) for m in i_index}
    return MfFit(
        beta_raw=beta_raw,
        mu=mu,
        rater_bias={p: float(b_u[r_index[p]]) for p in r_index},
        item_bias={m: float(b_i[i_index[m]]) for m in i_index},
        rater_factor={p: f_u[r_index[p]].copy() for p in r_index},
        item_factor={m: f_i[i_index[m]].copy() for m in i_index},
    )


def sparse_mf_instance():
    """Uneven votes: rater 0 casts one vote, item 9 has one voter, raters
    100-104 vote but sit outside the pool, and some exposures carry no vote."""
    rng = np.random.default_rng(5)
    rm = ReactionMatrix()
    raters = list(range(12))
    for p in range(1, 12):
        for m in range(9):
            if rng.random() < 0.3 + 0.05 * p:
                rm.record_reaction(p, m, int(rng.choice([-1, 1])), 0)
            elif rng.random() < 0.3:
                rm.record_exposure(p, m, 0)
    rm.record_reaction(0, 3, 1, 0)
    rm.record_reaction(4, 9, -1, 0)
    for p in range(100, 105):
        for m in range(10):
            rm.record_reaction(p, m, 1 if (p + m) % 3 else -1, 0)
    return rm, raters


def assert_fits_identical(fit, ref):
    assert fit.mu == ref.mu
    assert fit.beta_raw == ref.beta_raw
    assert fit.rater_bias == ref.rater_bias
    assert fit.item_bias == ref.item_bias
    for got, want in ((fit.rater_factor, ref.rater_factor),
                      (fit.item_factor, ref.item_factor)):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].shape == want[key].shape == (1,)
            assert got[key][0] == want[key][0]


class TestBridgingMfBitExact:
    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_planted_matches_reference(self, seed):
        rm, raters = planted_mf_instance()
        assert_fits_identical(bridging_mf(rm, raters, seed=seed),
                              _reference_mf(rm, raters, seed=seed))

    def test_sparse_uneven_matches_reference(self):
        rm, raters = sparse_mf_instance()
        fit = bridging_mf(rm, raters, seed=2)
        assert 0 in fit.rater_bias and 9 in fit.item_bias
        assert not any(p >= 100 for p in fit.rater_bias)
        assert_fits_identical(fit, _reference_mf(rm, raters, seed=2))

    def test_content_pool_matches_reference(self):
        rm, raters = sparse_mf_instance()
        pool = [1, 2, 3, 5, 8, 9]
        fit = bridging_mf(rm, raters, reg=0.1, epochs=60, lr=0.03, seed=4,
                          contents=pool)
        assert set(fit.item_bias) == set(pool)
        assert_fits_identical(fit, _reference_mf(rm, raters, reg=0.1, epochs=60,
                                                 lr=0.03, seed=4, contents=pool))


class TestBridgingMf:
    def test_planted_bridging_item_wins(self):
        rm, raters = planted_mf_instance()
        fit = bridging_mf(rm, raters, seed=3)
        assert max(fit.beta_raw, key=fit.beta_raw.get) == 0
        assert fit.beta_raw[0] > 0.7
        assert fit.beta_raw[5] < 0.2

    def test_opposite_bloc_factors(self):
        rm, raters = planted_mf_instance()
        fit = bridging_mf(rm, raters, seed=3)
        a = np.array([fit.rater_factor[p][0] for p in range(10)])
        b = np.array([fit.rater_factor[p][0] for p in range(10, 20)])
        assert np.sign(np.mean(a)) == -np.sign(np.mean(b))

    def test_matches_batch_oracle(self):
        rm, raters = planted_mf_instance()
        fit = bridging_mf(rm, raters, reg=0.05, epochs=400, lr=0.05, seed=11)
        oracle = batch_mf_oracle(rm, raters, reg=0.05, seed=1)
        for m in oracle:
            assert fit.beta_raw[m] == pytest.approx(oracle[m], abs=0.05)

    def test_unanimous_approval(self):
        rm = ReactionMatrix()
        for p in range(12):
            for m in range(4):
                rm.record_reaction(p, m, 1, 0)
        fit = bridging_mf(rm, range(12), seed=0)
        vals = list(fit.beta_raw.values())
        assert all(v >= 0.9 for v in vals)
        assert max(vals) - min(vals) <= 1e-3

    def test_insufficient_data(self):
        rm = ReactionMatrix()
        rm.record_reaction(0, 0, 1, 0)
        rm.record_reaction(1, 0, -1, 0)
        with pytest.raises(InsufficientData):
            bridging_mf(rm, [0, 1])

    def test_deterministic(self):
        rm, raters = planted_mf_instance()
        a = bridging_mf(rm, raters, seed=7)
        b = bridging_mf(rm, raters, seed=7)
        assert a.beta_raw == b.beta_raw


# -- reaction matrix / score set plumbing ---------------------------------------

class TestReactionMatrix:
    def test_csv_roundtrip(self):
        rm = ReactionMatrix()
        rm.record_exposure(0, 5, 1)
        rm.record_reaction(1, 5, -1, 2)
        rm.record_reaction(2, 6, 1, 3)
        text = rm.to_csv()
        back = ReactionMatrix.from_csv(text)
        assert back.to_csv() == text
        assert text.splitlines()[0] == "citizen_id,content_id,round,exposed,reaction"

    def test_reaction_implies_exposure(self):
        rm = ReactionMatrix()
        rm.record_reaction(0, 0, 1, 0)
        assert rm.get(0, 0) is not None
        bad = "citizen_id,content_id,round,exposed,reaction\n0,0,0,0,1\n"
        with pytest.raises(ValueError):
            ReactionMatrix.from_csv(bad)

    def test_invalid_reaction_value(self):
        rm = ReactionMatrix()
        with pytest.raises(ValueError):
            rm.record_reaction(0, 0, 2, 0)

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                  st.sampled_from([None, -1, 0, 1]), st.integers(0, 9)),
                        max_size=40))
    def test_csv_roundtrip_random(self, ops):
        """Random exposure (None) and reaction sequences survive to_csv ->
        from_csv through every read path, and items() yields each cell once."""
        rm = ReactionMatrix()
        for citizen, content, reaction, round_ in ops:
            if reaction is None:
                rm.record_exposure(citizen, content, round_)
            else:
                rm.record_reaction(citizen, content, reaction, round_)
        keys = [key for key, _ in rm.items()]
        assert len(keys) == len(set(keys)) == len(rm)
        assert set(keys) == {(citizen, content) for citizen, content, _, _ in ops}

        text = rm.to_csv()
        back = ReactionMatrix.from_csv(text)
        assert len(back) == len(rm)
        assert back.to_csv() == text
        for i in range(6):
            assert list(back.by_content(i)) == list(rm.by_content(i))
            assert back.for_citizen(i) == rm.for_citizen(i)
            for j in range(6):
                assert back.get(i, j) == rm.get(i, j)
        a, b = rm.to_attitudes(), back.to_attitudes()
        assert (a.row_ids, a.col_ids) == (b.row_ids, b.col_ids)
        assert np.array_equal(a.values, b.values)


# -- brute-force oracle for score_round and the per-card functions ---------------
# Per-member loops over ReactionMatrix.get, kept here as the reference the
# shared scoring primitives must reproduce bit for bit.

def _ref_interest(rm, content, members, current_round, half_life):
    members = list(members)
    if not members:
        return 0.0
    total = 0.0
    for p in members:
        cell = rm.get(p, content)
        if cell is None:
            continue
        age = max(0, current_round - cell.round)
        total += 2.0 ** (-age / half_life) * (1.0 + 0.5 * abs(cell.reaction))
    return total / len(members)


def _ref_bloc_rates(rm, content, blocs, alpha):
    rates = np.empty(len(blocs))
    for g, bloc in enumerate(blocs):
        pos = neg = 0
        for p in bloc:
            cell = rm.get(p, content)
            if cell is None:
                continue
            if cell.reaction > 0:
                pos += 1
            elif cell.reaction < 0:
                neg += 1
        denom = pos + neg + 2.0 * alpha
        rates[g] = (pos + alpha) / denom if denom > 0 else 0.5
    return rates


def _ref_card(content, scope, iota, blocs, rm, params):
    rates = _ref_bloc_rates(rm, content, blocs, params.alpha)
    sizes = [len(b) for b in blocs]
    if len(sizes) >= 2:
        w = np.ones(len(sizes)) if params.backend == "gac_uniform" \
            else np.sqrt(np.asarray(sizes, dtype=float))
        w = w / w.sum()
        if np.all(rates == rates[0]):
            beta = float(rates[0])
        elif np.any(rates <= 0.0):
            beta = 0.0
        else:
            beta = float(np.exp(np.sum(w * np.log(rates))))
        delta = float(rates.max() - rates.min())
        characteristic = frozenset(int(g) for g in np.nonzero(rates >= 0.5)[0])
    else:
        beta = float(rates[0]) if len(sizes) else 0.5
        delta, characteristic = 0.0, frozenset()
    label = assign_label(beta, delta, characteristic, max(len(sizes), 1), params.label_floor)
    psi = iota if params.popularity_only else iota * max(beta, delta)
    return ScoreCard(content=content, scope=scope, iota=iota, beta=beta, delta=delta,
                     psi=psi, characteristic_blocs=characteristic, label=label,
                     low_confidence=len(sizes) < 2)


def _ref_community_card(item, comm, rm, params, current_round):
    members = sorted(comm.members)
    iota = _ref_interest(rm, item.id, members, current_round, params.half_life)
    blocs = [set(g) for g in comm.principal_subcommunities]
    if len(blocs) < 2:
        blocs = [set(members)] if members else []
    return _ref_card(item.id, ("community", comm.id), iota, blocs, rm, params)


def _ref_citizen_card(item, pid, f, rm, params, current_round):
    iota = _ref_interest(rm, item.id, [pid], current_round, params.half_life)
    blocs = [set(f.communities[c].members) for c in f.member_communities(pid)]
    return _ref_card(item.id, ("citizen", pid), iota, blocs, rm, params)


def _card_fields(card):
    return (card.iota, card.beta, card.delta, card.psi, card.label,
            card.characteristic_blocs, card.low_confidence)


def _random_votes(f, targets, n_contents, seed):
    rng = np.random.default_rng(seed)
    rm = ReactionMatrix()
    catalog = {}
    for mid in range(n_contents):
        catalog[mid] = ContentItem(id=mid, creator=int(rng.integers(len(f.citizens))),
                                   target_communities=targets(mid), created_round=0)
        for p in sorted(f.citizens):
            if rng.random() < 0.7:
                r = int(rng.choice([-1, 0, 1]))
                rm.record_reaction(p, mid, r, int(rng.integers(5)))
    return catalog, rm


def assert_matches_oracle(f, catalog, rm, params, current_round):
    """score_round, score_for_community and citizen_score all equal the
    brute-force reference exactly; returns the cards for case-specific checks."""
    scores = score_round(f, catalog, rm, params, current_round)
    checked = []
    for mid, item in sorted(catalog.items()):
        for cid in sorted(item.target_communities):
            comm = f.communities[cid]
            ref = _ref_community_card(item, comm, rm, params, current_round)
            assert _card_fields(scores.get(mid, ("community", cid))) == _card_fields(ref)
            direct = score_for_community(item, comm, rm, params, current_round)
            assert _card_fields(direct) == _card_fields(ref)
            checked.append(ref)
    for pid in sorted(f.citizens):
        for mid, item in sorted(catalog.items()):
            got = scores.get(mid, ("citizen", pid))
            if not item.target_communities & set(f.member_communities(pid)):
                assert got is None
                continue
            ref = _ref_citizen_card(item, pid, f, rm, params, current_round)
            assert _card_fields(got) == _card_fields(ref)
            assert _card_fields(citizen_score(item, pid, f, rm, params, current_round)) \
                == _card_fields(ref)
            checked.append(ref)
    # the card set itself, as the benchmark tracer counts it
    keys = sorted((ref.content, ref.scope) for ref in checked)
    assert len(scores.cards) == len(keys)
    assert sorted(scores.cards) == keys
    return checked


def test_score_round_matches_pairwise_ops():
    # community a has two stored blocs, b none; citizens 2, 3 belong to both
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 2 else {a, b}, 5, seed=5)
    cards = assert_matches_oracle(f, catalog, rm, ScoringParams(), current_round=3)
    assert any(c.scope[0] == "community" and not c.low_confidence for c in cards)


def test_score_round_oracle_community_without_blocs():
    # no stored blocs anywhere: every community card takes the degenerate
    # fallback over the whole member set
    f, a, b = two_community_fabric()
    catalog, rm = _random_votes(f, lambda mid: {a, b}, 6, seed=11)
    cards = assert_matches_oracle(f, catalog, rm, ScoringParams(), current_round=4)
    community = [c for c in cards if c.scope[0] == "community"]
    assert community and all(c.low_confidence for c in community)


def test_score_round_oracle_single_membership_citizen():
    # citizen 0 belongs to community a only: its card is the single-bloc fallback
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    f.communities[b].principal_subcommunities = [{2, 4}, {3, 5}]
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 3 else {b}, 6, seed=2)
    cards = assert_matches_oracle(f, catalog, rm, ScoringParams(), current_round=2)
    own = [c for c in cards if c.scope == ("citizen", 0)]
    assert own and all(c.low_confidence for c in own)


@pytest.mark.parametrize("backend", ["gac_penrose", "gac_uniform"])
def test_score_round_oracle_alpha_zero(backend):
    # unsmoothed rates: vote-less blocs sit at 0.5, unanimous ones at 0 or 1
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    catalog, rm = _random_votes(f, lambda mid: {a, b}, 8, seed=7)
    rm.record_reaction(4, 99, 1, 0)
    catalog[99] = ContentItem(id=99, creator=4, target_communities={a, b})
    cards = assert_matches_oracle(f, catalog, rm, ScoringParams(alpha=0.0, backend=backend),
                                  current_round=5)
    assert any(c.beta == 0.0 for c in cards) and any(c.label == LABEL_DIVISIVE for c in cards)


@pytest.mark.parametrize("backend", ["gac_penrose", "gac_uniform"])
def test_score_round_oracle_popularity_only(backend):
    # psi = iota in every scope, citizen columns included
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 2 else {a, b}, 7, seed=13)
    params = ScoringParams(popularity_only=True, backend=backend)
    cards = assert_matches_oracle(f, catalog, rm, params, current_round=4)
    assert all(c.psi == c.iota for c in cards)
    assert any(c.scope[0] == "citizen" and c.psi > 0 for c in cards)
    assert any(c.psi != c.iota * max(c.beta, c.delta) for c in cards)


def _citizen_rows_instance(seed):
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 3 == 0 else {a, b}, 12, seed=seed)
    return f, catalog, rm


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_citizen_columns_match_a_set_of_cards(seed):
    """The columns score_round keeps for citizen scopes give every view a
    ScoreSet holding the same cards as ScoreCards gives."""
    f, catalog, rm = _citizen_rows_instance(seed)
    scores = score_round(f, catalog, rm, ScoringParams(alpha=0.0), current_round=5)
    cards = ScoreSet()
    for key in sorted(scores.cards):
        cards.add(scores.cards[key])
    assert len(cards.cards) == len(scores.cards)
    assert scores.to_csv() == cards.to_csv()
    scopes = {scope for _, scope in scores.cards} | {("citizen", 7), ("community", 9)}
    for scope in sorted(scopes):
        assert dict(scores.scope_cards(scope)) == dict(cards.scope_cards(scope))
        for m in sorted(catalog) + [99]:
            card = cards.get(m, scope)
            assert scores.get(m, scope) == card
            assert scores.label(m, scope) == (card.label if card is not None else None)
            assert scores.column(scope).get(m, 0.0) == scores.psi(m, scope) == \
                cards.psi(m, scope)
            if card is not None and card.label == LABEL_DIVISIVE:
                assert balancing_set(scope, m, scores, catalog, False, 0.3) == \
                    balancing_set(scope, m, cards, catalog, False, 0.3)
    assert any(scope[0] == "citizen" and card.label == LABEL_DIVISIVE
               for (_, scope), card in scores.cards.items())


def test_add_into_a_citizen_row_keeps_the_rest():
    f, catalog, rm = _citizen_rows_instance(3)
    scores = score_round(f, catalog, rm, ScoringParams(), current_round=5)
    scope = ("citizen", 2)
    # citizen 3 has citizen 2's membership signature, so the two scopes
    # share their profiles
    other = ("citizen", 3)
    assert f.member_communities(3) == f.member_communities(2)
    before = dict(scores.scope_cards(scope))
    other_before = dict(scores.scope_cards(other))
    n = len(scores.cards)
    m = min(before)
    replacement = dataclasses.replace(before[m], psi=0.75, iota=2.0,
                                      characteristic_blocs=frozenset({99}))
    scores.add(replacement)
    assert dict(scores.scope_cards(scope)) == {**before, m: replacement}
    assert len(scores.cards) == n
    assert scores.psi(m, scope) == scores.column(scope)[m] == 0.75
    assert dict(scores.scope_cards(other)) == other_before


def test_scorecard_csv_contract():
    scores = ScoreSet()
    scores.add(ScoreCard(content=3, scope=("community", 1), iota=0.5, beta=0.25,
                         delta=0.7, psi=0.35, characteristic_blocs=frozenset({0, 2}),
                         label=LABEL_DIVISIVE))
    text = scores.to_csv()
    lines = text.splitlines()
    assert lines[0] == "content_id,scope_kind,scope_id,iota,beta,delta,psi,label,characteristic_blocs"
    assert lines[1] == "3,community,1,0.5,0.25,0.7,0.35,Divisive,0;2"
    assert ScoreSet().to_csv().splitlines() == [lines[0]]
