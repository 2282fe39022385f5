"""Scoring: interest decay, consensus products, divisiveness, balancing,
the combined score and the factorization backend. Scores are read off
`score_round` and checked against oracles written from the formulas; the
factorization also against a batch oracle."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural import score
from plural._rng import derive_rng, derive_seed
from plural.errors import InsufficientData
from plural.fabric import SocialFabric
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER,
                          ContentItem, MfFit, ReactionMatrix, ScoreCard, ScoringParams, ScoreSet,
                          _spreads, assign_label, balancing_set, bloc_rates, bridging_mf,
                          consensus_products, score_round)

from test_batched_oracles import old_spread


def votes(spec_by_bloc, content=0, start_id=0):
    """ReactionMatrix from per-bloc (n_pos, n_neg) or (n_pos, n_neg, n_silent)
    specs, silent members having no record; returns (rm, blocs)."""
    rm = ReactionMatrix()
    blocs = []
    pid = start_id
    for n_pos, n_neg, *silent in spec_by_bloc:
        bloc = []
        for reaction, count in ((1, n_pos), (-1, n_neg), (None, sum(silent))):
            for _ in range(count):
                if reaction is not None:
                    rm.record_reaction(pid, content, reaction, 0)
                bloc.append(pid)
                pid += 1
        blocs.append(bloc)
    return rm, blocs


def one_community_scores(rm, blocs, params=ScoringParams(), current_round=0):
    """score_round over one community (id 0) of the blocs' citizens, whose
    blocs are its principal subcommunities when there are two or more, and
    content 0 targeted at it."""
    f = SocialFabric()
    members = sorted(set().union(*blocs))
    for _ in range(max(members) + 1):
        f.add_citizen()
    c = f.add_community(lambda_=1.0)
    for p in members:
        f.add_membership(p, c, 1.0, 1.0)
    if len(blocs) >= 2:
        f.communities[c].principal_subcommunities = [set(b) for b in blocs]
    catalog = {0: ContentItem(id=0, creator=0, target_communities={c})}
    return score_round(f, catalog, rm, params, current_round)


COMMUNITY = ("community", 0)


class TestInterest:
    """A community's iota: each member's exposure weight 2^(-age/half_life)
    * (1 + 0.5|reaction|), summed and divided by the member count."""

    def test_no_exposure_zero(self):
        scores = one_community_scores(ReactionMatrix(), [range(10)], ScoringParams(half_life=5.0),
                                      current_round=5)
        assert scores.get(0, COMMUNITY).iota == 0.0

    def test_everyone_reacts_now(self):
        rm = ReactionMatrix()
        for p in range(8):
            rm.record_reaction(p, 0, 1 if p % 2 else -1, 4)
        scores = one_community_scores(rm, [range(8)], ScoringParams(half_life=3.0),
                                      current_round=4)
        assert scores.get(0, COMMUNITY).iota == pytest.approx(1.5)

    def test_single_aged_neutral_exposure(self):
        rm = ReactionMatrix()
        rm.record_exposure(0, 0, 0)
        scores = one_community_scores(rm, [range(5)], ScoringParams(half_life=4.0),
                                      current_round=4)
        assert scores.get(0, COMMUNITY).iota == pytest.approx(0.5 / 5)

    def test_nonmember_interactions_ignored(self):
        rm = ReactionMatrix()
        rm.record_reaction(99, 0, 1, 0)
        scores = one_community_scores(rm, [range(5)], ScoringParams(half_life=5.0))
        assert scores.get(0, COMMUNITY).iota == 0.0


UNIFORM, PENROSE = ScoringParams(backend="gac_uniform"), ScoringParams(backend="gac_penrose")
UNIFORM_0, PENROSE_0 = (dataclasses.replace(p, alpha=0.0) for p in (UNIFORM, PENROSE))


class TestBridgingGac:
    """A community's beta under the gac backends, with its blocs set."""

    def test_laplace_eleven_twelfths(self):
        rm, blocs = votes([(10, 0), (10, 0)])
        for params in (UNIFORM, PENROSE):
            card = one_community_scores(rm, blocs, params).get(0, COMMUNITY)
            assert card.beta == pytest.approx(11 / 12)

    def test_consensus_returns_common_rate_exactly(self):
        rm, blocs = votes([(3, 1), (3, 1)])
        for params in (UNIFORM_0, PENROSE_0):
            assert one_community_scores(rm, blocs, params).get(0, COMMUNITY).beta == 0.75

    def test_penrose_sqrt_weights(self):
        # blocs of 40 and 10 members weigh sqrt(40):sqrt(10) = 2:1, as 4:1 would
        rm, blocs = votes([(9, 1, 30), (3, 7)])
        card = one_community_scores(rm, blocs, PENROSE_0).get(0, COMMUNITY)
        assert card.beta == pytest.approx(0.9 ** (2 / 3) * 0.3 ** (1 / 3), abs=1e-12)

    def test_empty_bloc_sits_at_prior(self):
        rm, blocs = votes([(4, 0), (0, 0, 4)])
        card = one_community_scores(rm, blocs, UNIFORM).get(0, COMMUNITY)
        assert card.beta == pytest.approx(np.sqrt((5 / 6) * 0.5))
        # alpha=0 mode keeps the 0.5 prior for voteless blocs
        card = one_community_scores(rm, blocs, UNIFORM_0).get(0, COMMUNITY)
        assert card.beta == pytest.approx(np.sqrt(1.0 * 0.5))

    def test_zero_weight_entries_ignored(self):
        # a zero-weight rate neither forces the product to 0 nor enters the log
        w = np.array([0.0, 0.5, 0.5])
        got = consensus_products(np.array([[0.0, 0.81, 0.25], [0.3, 0.0, 0.25]]), w)
        assert got[0] == pytest.approx(0.45)
        assert got[1] == 0.0

    def test_fewer_than_two_blocs(self):
        # one bloc: the raw smoothed approval over the members, low confidence
        rm, blocs = votes([(2, 2)])
        card = one_community_scores(rm, blocs).get(0, COMMUNITY)
        assert card.low_confidence
        assert (card.beta, card.delta) == (0.5, 0.0)

    def test_count_scaling_invariance_alpha_zero(self):
        a, blocs_a = votes([(3, 1), (2, 2)])
        b, blocs_b = votes([(9, 3), (6, 6)])
        assert one_community_scores(a, blocs_a, UNIFORM_0).get(0, COMMUNITY).beta == \
            one_community_scores(b, blocs_b, UNIFORM_0).get(0, COMMUNITY).beta

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
        got = consensus_products(np.array([x, y]), w)
        assert got[0] <= got[1] + 1e-12


def one_content_spread(rm, m, blocs, alpha):
    """Content m's spread and characteristic blocs, through the batched pass
    the metrics read: `bloc_rates` over [m], then `_spreads`."""
    delta, characteristic = _spreads(bloc_rates(rm, [m], blocs, alpha=alpha).T)
    return float(delta[0]), characteristic[0]


class TestDivisiveness:
    def test_spread_and_characteristic(self):
        rm, blocs = votes([(9, 1), (1, 9)])
        delta, char = one_content_spread(rm, 0, blocs, alpha=0.0)
        assert delta == pytest.approx(0.8)
        assert char == frozenset({0})

    def test_consensus_zero_spread(self):
        rm, blocs = votes([(4, 1), (4, 1)])
        delta, char = one_content_spread(rm, 0, blocs, alpha=0.0)
        assert delta == 0.0
        assert char == frozenset({0, 1})  # both blocs: not a strict subset
        assert assign_label(0.0, delta, char, 2, 0.1) == LABEL_NEITHER

    def test_both_below_half_not_divisive(self):
        rm, blocs = votes([(4, 6), (3, 7)])
        delta, char = one_content_spread(rm, 0, blocs, alpha=0.0)
        assert char == frozenset()
        assert assign_label(0.0, delta, char, 2, 0.05) == LABEL_NEITHER

    def test_relabeling_invariance(self):
        rm, blocs = votes([(9, 1), (2, 8), (5, 5)])
        d1, _ = one_content_spread(rm, 0, blocs, alpha=1.0)
        d2, _ = one_content_spread(rm, 0, list(reversed(blocs)), alpha=1.0)
        assert d1 == d2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), alpha=st.sampled_from([0.0, 0.5, 1.0]))
def test_bloc_rates_columns_equal_one_content_oracle(data, alpha):
    """Over random votes, blocs and content lists, each column of
    `bloc_rates` is that content's rates by the record walk, and `_spreads`
    over the columns is each content's spread and characteristic blocs by
    the scalar formula: the metrics' polarization, one pass per community."""
    n = data.draw(st.integers(1, 8), label="citizens")
    n_contents = data.draw(st.integers(1, 5), label="contents")
    rm = ReactionMatrix()
    cells = data.draw(st.lists(st.one_of(st.none(), st.tuples(st.sampled_from([-1, 0, 1]),
                                                              st.integers(0, 3))),
                               min_size=n * n_contents, max_size=n * n_contents), label="votes")
    for (p, m), cell in zip(itertools.product(range(n), range(n_contents)), cells):
        if cell is not None:
            rm.record_reaction(p, m, *cell)    # reaction 0: exposed, no vote
    n_blocs = data.draw(st.integers(1, 4), label="blocs")
    groups = data.draw(st.lists(st.integers(0, n_blocs), min_size=n, max_size=n), label="groups")
    blocs = [[p for p, g in enumerate(groups) if g == k] for k in range(n_blocs)]   # some empty
    # content n_contents has no record at all
    contents = data.draw(st.lists(st.integers(0, n_contents), min_size=1, unique=True),
                         label="content list")
    rates = bloc_rates(rm, contents, blocs, alpha=alpha)
    assert rates.shape == (n_blocs, len(contents))
    for j, m in enumerate(contents):
        assert rates[:, j].tolist() == _ref_bloc_rates(rm, m, blocs, alpha).tolist()
    delta, characteristic = _spreads(rates.T)
    assert list(zip(delta.tolist(), characteristic)) == [old_spread(row) for row in rates.T]


class TestCommunityScore:
    """psi = iota * max(beta, delta): on given rows, and on every card of
    score_round over random votes."""

    @pytest.mark.parametrize("iota,beta,delta,expected",
                             [(0.5, 0.8, 0.3, 0.4),
                              (0.0, 0.9, 0.9, 0.0),
                              (1.0, 0.2, 0.9, 0.9)])
    def test_examples(self, iota, beta, delta, expected):
        scores = ScoreSet.of([ScoreCard(content=0, scope=COMMUNITY, iota=iota, beta=beta,
                                        delta=delta, psi=0.0)])
        assert score._with_psi(scores, False).psi.item(0, 0) == pytest.approx(expected)

    @given(seed=st.integers(0, 2 ** 16), backend=st.sampled_from(["gac_penrose", "gac_uniform"]),
           alpha=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_exact_formula(self, seed, backend, alpha):
        cards = _random_round_cards(seed, ScoringParams(backend=backend, alpha=alpha))
        for card in cards:
            assert card.psi == card.iota * max(card.beta, card.delta)

    @given(seed=st.integers(0, 2 ** 16), backend=st.sampled_from(["gac_penrose", "gac_uniform"]))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, seed, backend):
        # a card at least as interesting and as strong scores at least as high
        cards = _random_round_cards(seed, ScoringParams(backend=backend))
        strength = [(c.iota, max(c.beta, c.delta), c.psi) for c in cards]
        for (iota, strong, psi), (iota2, strong2, psi2) in itertools.product(strength, repeat=2):
            if iota >= iota2 and strong >= strong2:
                assert psi >= psi2


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
    """Citizen cards from score_round: the citizen's communities are its blocs."""

    def scores(self, f, rm, targets, params=ScoringParams()):
        catalog = {0: ContentItem(id=0, creator=0, target_communities=targets)}
        return score_round(f, catalog, rm, params, 0)

    def test_bridging_across_both_communities(self):
        f, a, b = two_community_fabric()
        rm = ReactionMatrix()
        for p in (0, 1, 2, 3, 4, 5):
            rm.record_reaction(p, 0, 1, 0)
        card = self.scores(f, rm, {a, b}).get(0, ("citizen", 2))
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
        card = self.scores(f, rm, {a}, ScoringParams(alpha=0.0)).get(0, ("citizen", 2))
        assert card.label == LABEL_DIVISIVE
        assert card.characteristic_blocs == frozenset({0})

    def test_single_community_fallback(self):
        f, a, b = two_community_fabric()
        rm = ReactionMatrix()
        for p in (0, 1):
            rm.record_reaction(p, 0, 1, 0)
        card = self.scores(f, rm, {a}, ScoringParams(alpha=0.0)).get(0, ("citizen", 0))
        assert card.low_confidence
        assert card.beta == pytest.approx(1.0)  # raw approval over community a
        assert card.delta == 0.0


class TestBalancingSet:
    def _card(self, mid, delta, char, psi=1.0, label=LABEL_DIVISIVE):
        from plural.score import ScoreCard
        return ScoreCard(content=mid, scope=("community", 0), iota=1.0, beta=0.0,
                         delta=delta, psi=psi, characteristic_blocs=frozenset(char),
                         label=label)

    def test_opposite_pair_symmetric(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}, topics={1}),
                   1: ContentItem(id=1, creator=0, target_communities={0}, topics={1})}
        scores = ScoreSet.of([self._card(0, 0.8, {0}), self._card(1, 0.8, {1})])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == [1]
        assert balancing_set(("community", 0), 1, scores, catalog, False, 0.2) == [0]

    def test_shared_characteristic_bloc_excluded(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}),
                   1: ContentItem(id=1, creator=0, target_communities={0})}
        scores = ScoreSet.of([self._card(0, 0.8, {0, 1}), self._card(1, 0.8, {1, 2})])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == []

    def test_zero_tolerance_unequal_deltas(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}),
                   1: ContentItem(id=1, creator=0, target_communities={0})}
        scores = ScoreSet.of([self._card(0, 0.8, {0}), self._card(1, 0.75, {1})])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.0) == []

    def test_topic_overlap_required(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0}, topics={1}),
                   1: ContentItem(id=1, creator=0, target_communities={0}, topics={2})}
        scores = ScoreSet.of([self._card(0, 0.8, {0}), self._card(1, 0.8, {1})])
        assert balancing_set(("community", 0), 0, scores, catalog, True, 0.2) == []
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == [1]

    def test_sorted_by_psi_then_id(self):
        catalog = {m: ContentItem(id=m, creator=0, target_communities={0})
                   for m in range(4)}
        scores = ScoreSet.of([
            self._card(0, 0.8, {0}),
            self._card(1, 0.8, {1}, psi=0.5),
            self._card(2, 0.8, {1}, psi=0.9),
            self._card(3, 0.8, {1}, psi=0.5),
        ])
        assert balancing_set(("community", 0), 0, scores, catalog, False, 0.2) == [2, 1, 3]

    def test_non_divisive_base_rejected(self):
        catalog = {0: ContentItem(id=0, creator=0, target_communities={0})}
        scores = ScoreSet.of([self._card(0, 0.8, {0}, label=LABEL_BRIDGING)])
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
    """A later card under an earlier card's key replaces it in both views."""
    scores = ScoreSet.of(cards)
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


def records(rm):
    """Every ((citizen, content), record) of `rm` in (citizen, content)
    order, read one cell at a time with `get` over its sorted ids."""
    return [((p, m), cell) for p in rm.citizen_ids.tolist() for m in rm.content_ids.tolist()
            if (cell := rm.get(p, m)) is not None]


def batch_mf_oracle(rm, raters, reg=0.05, iters=20000, lr=0.02, seed=0):
    """Full-batch gradient descent on the same objective, written from scratch."""
    obs = [(p, m, 1.0 if cell.reaction > 0 else 0.0)
           for (p, m), cell in records(rm)
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
    for (p, m), cell in records(reactions):
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

# Sparse, negative and extreme int64 ids, in no particular order.
SOME_IDS = [2 ** 63 - 1, 0, -7, 1_000_003, -2 ** 63, 5, -1, 2 ** 40]
ANY_ID = st.sampled_from(SOME_IDS[:-1])      # the last id is never recorded
REACTION = st.sampled_from([-1, 0, 1])
ROUND = st.integers(-3, 9)


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
        from_csv through every read path, and each pair has one record."""
        rm = ReactionMatrix()
        for citizen, content, reaction, round_ in ops:
            if reaction is None:
                rm.record_exposure(citizen, content, round_)
            else:
                rm.record_reaction(citizen, content, reaction, round_)
        keys = [key for key, _ in records(rm)]
        assert len(keys) == len(set(keys)) == len(rm)
        assert set(keys) == {(citizen, content) for citizen, content, _, _ in ops}

        text = rm.to_csv()
        back = ReactionMatrix.from_csv(text)
        assert len(back) == len(rm)
        assert back.to_csv() == text
        assert records(back) == records(rm)
        for i in range(6):
            for j in range(6):
                assert back.get(i, j) == rm.get(i, j)
        a, b = rm.to_attitudes(), back.to_attitudes()
        assert (a.row_ids, a.col_ids) == (b.row_ids, b.col_ids)
        assert np.array_equal(a.values, b.values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("record"), st.lists(st.tuples(ANY_ID, ANY_ID, REACTION), max_size=6),
                  ROUND),
        st.tuples(st.just("reaction"), ANY_ID, ANY_ID, REACTION, ROUND),
        st.tuples(st.just("exposure"), ANY_ID, ANY_ID, ROUND)), max_size=30))
    def test_arrays_match_dict_reference(self, ops):
        """Any sequence of records, on sparse, negative and extreme int64 ids
        with repeated pairs and rounds out of order, reads back as a dict of
        (reaction, round) kept by the same rules: the latest round, and the
        latest nonzero reaction. So does the same sequence read as a log."""
        rm, ref, log = ReactionMatrix(), {}, ["citizen_id,content_id,round,exposed,reaction"]

        def apply(p, m, r, round_):
            held = ref.get((p, m))
            ref[(p, m)] = (r, round_) if held is None \
                else (r if r != 0 else held[0], max(held[1], round_))
            log.append(f"{p},{m},{round_},1,{r}")

        for op in ops:
            if op[0] == "record":
                entries, round_ = op[1], op[2]
                rm.record([e[0] for e in entries], [e[1] for e in entries],
                          [e[2] for e in entries], round_)
                for p, m, r in entries:
                    apply(p, m, r, round_)
            elif op[0] == "reaction":
                rm.record_reaction(*op[1:])
                apply(*op[1:])
            else:
                rm.record_exposure(op[1], op[2], op[3])
                apply(op[1], op[2], 0, op[3])

        assert len(rm) == len(ref)
        for p in SOME_IDS:
            for m in SOME_IDS:
                assert rm.get(p, m) == ref.get((p, m))
        assert rm.to_csv() == "".join(
            ["citizen_id,content_id,round,exposed,reaction\n"]
            + [f"{p},{m},{ref[p, m][1]},1,{ref[p, m][0]}\n" for p, m in sorted(ref)])
        # the same records as a log, one row per entry in order
        assert ReactionMatrix.from_csv("\n".join(log) + "\n").to_csv() == rm.to_csv()

        def grid(rows, cols, value):
            return np.array([[value(ref.get((p, m))) for m in cols] for p in rows],
                            dtype=float).reshape(len(rows), len(cols))

        citizens = sorted({p for p, _ in ref})
        contents = sorted({m for _, m in ref})
        for rows, cols in ((None, None), (SOME_IDS[::-1], SOME_IDS)):
            a = rm.to_attitudes(rows, cols)
            rows, cols = citizens if rows is None else rows, contents if cols is None else cols
            assert (a.row_ids, a.col_ids) == (list(rows), list(cols))
            assert np.array_equal(a.values, grid(rows, cols, lambda c: 0 if c is None else c[0]))

        tally = score._Tally(rm, SOME_IDS, current_round=4, half_life=3.0)
        assert tally.citizens == citizens
        assert np.array_equal(tally.exposed, grid(citizens, SOME_IDS, lambda c: c is not None))
        assert np.array_equal(tally.weight, grid(
            citizens, SOME_IDS, lambda c: 0.0 if c is None
            else 2.0 ** (-max(0, 4 - c[1]) / 3.0) * (1.0 + 0.5 * abs(c[0]))))
        pos, neg = tally.counts([citizens])
        assert np.array_equal(pos[0], grid(citizens, SOME_IDS, lambda c: c is not None
                                           and c[0] > 0).sum(axis=0))
        assert np.array_equal(neg[0], grid(citizens, SOME_IDS, lambda c: c is not None
                                           and c[0] < 0).sum(axis=0))


# -- brute-force oracle for score_round ------------------------------------------
# Per-member loops over ReactionMatrix.get, kept here as the reference the
# scoring passes must reproduce bit for bit.

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


def _ref_card(content, scope, iota, blocs, rm, params, fitted=None):
    """The card by the formulas; with two or more blocs, a `fitted` beta
    replaces the consensus product."""
    rates = _ref_bloc_rates(rm, content, blocs, params.alpha)
    sizes = [len(b) for b in blocs]
    if len(sizes) >= 2:
        w = np.ones(len(sizes)) if params.backend == "gac_uniform" \
            else np.sqrt(np.asarray(sizes, dtype=float))
        w = w / w.sum()
        if fitted is not None:
            beta = fitted
        elif np.all(rates == rates[0]):
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


def _ref_community_card(item, comm, rm, params, current_round, fitted=None):
    members = sorted(comm.members)
    iota = _ref_interest(rm, item.id, members, current_round, params.half_life)
    blocs = [set(g) for g in comm.principal_subcommunities]
    if len(blocs) < 2:
        blocs = [set(members)] if members else []
    return _ref_card(item.id, ("community", comm.id), iota, blocs, rm, params, fitted)


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


def _random_round_cards(seed, params):
    """Every card of score_round over random votes on the two-community
    fabric, community a with blocs."""
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 2 else {a, b}, 4, seed=seed)
    return list(score_round(f, catalog, rm, params, current_round=3).cards.values())


def assert_matches_oracle(f, catalog, rm, params, current_round):
    """score_round equals the brute-force reference exactly; returns the
    cards for case-specific checks."""
    scores = score_round(f, catalog, rm, params, current_round)
    checked = []
    for mid, item in sorted(catalog.items()):
        for cid in sorted(item.target_communities):
            comm = f.communities[cid]
            ref = _ref_community_card(item, comm, rm, params, current_round)
            assert _card_fields(scores.get(mid, ("community", cid))) == _card_fields(ref)
            checked.append(ref)
    for pid in sorted(f.citizens):
        for mid, item in sorted(catalog.items()):
            got = scores.get(mid, ("citizen", pid))
            if not item.target_communities & set(f.member_communities(pid)):
                assert got is None
                continue
            ref = _ref_citizen_card(item, pid, f, rm, params, current_round)
            assert _card_fields(got) == _card_fields(ref)
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), backend=st.sampled_from(["gac_penrose", "gac_uniform"]),
       alpha=st.sampled_from([0.0, 1.0]), popularity_only=st.booleans())
def test_score_round_columns_in_range(data, backend, alpha, popularity_only):
    """Over random memberships, blocs and reactions, every card score_round
    files has beta, delta in [0, 1], iota >= 0 and psi = iota * max(beta,
    delta), or iota alone under popularity_only."""
    n = data.draw(st.integers(2, 5), label="citizens")
    f = SocialFabric()
    for _ in range(n):
        f.add_citizen()
    comms = [f.add_community(lambda_=1.0) for _ in range(data.draw(st.integers(1, 3)))]
    for p in range(n):
        for c in sorted(data.draw(st.sets(st.sampled_from(comms), min_size=1),
                                  label=f"memberships {p}")):
            f.add_membership(p, c, 1.0, 1.0)
    for c in comms:
        members = sorted(f.communities[c].members)
        groups = data.draw(st.lists(st.integers(0, 2), min_size=len(members),
                                    max_size=len(members)), label=f"blocs {c}")
        blocs = [{p for p, g in zip(members, groups) if g == k} for k in range(3)]
        blocs = [b for b in blocs if b]
        if len(blocs) >= 2:
            f.communities[c].principal_subcommunities = blocs
    n_contents = data.draw(st.integers(1, 6), label="contents")
    catalog = {m: ContentItem(id=m, creator=0, created_round=0, target_communities=set(
        data.draw(st.sets(st.sampled_from(comms), min_size=1), label=f"targets {m}")))
        for m in range(n_contents)}
    rm = ReactionMatrix()
    cells = data.draw(st.lists(st.one_of(st.none(), st.tuples(st.sampled_from([-1, 0, 1]),
                                                              st.integers(0, 5))),
                               min_size=n * n_contents, max_size=n * n_contents), label="votes")
    for (p, m), cell in zip(itertools.product(range(n), range(n_contents)), cells):
        if cell is not None:
            rm.record_reaction(p, m, *cell)    # reaction 0: exposed, no vote
    params = ScoringParams(backend=backend, alpha=alpha, popularity_only=popularity_only)
    scores = score_round(f, catalog, rm, params, current_round=5)
    assert len(scores.cards) >= n_contents
    for card in scores.cards.values():
        assert 0.0 <= card.beta <= 1.0 and 0.0 <= card.delta <= 1.0 and card.iota >= 0.0
        assert card.psi == (card.iota if popularity_only
                            else card.iota * max(card.beta, card.delta))


def _citizen_rows_instance(seed):
    f, a, b = two_community_fabric()
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 3 == 0 else {a, b}, 12, seed=seed)
    return f, catalog, rm


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_citizen_columns_match_a_set_of_cards(seed):
    """The rows score_round keeps for citizen scopes, over profile rows
    shared by membership signature, give every view a ScoreSet built from
    the same cards, one profile row per scope, gives."""
    f, catalog, rm = _citizen_rows_instance(seed)
    scores = score_round(f, catalog, rm, ScoringParams(alpha=0.0), current_round=5)
    cards = ScoreSet.of((scores.cards[key] for key in sorted(scores.cards)), contents=catalog)
    assert len(cards.cards) == len(scores.cards)
    assert scores.to_csv() == cards.to_csv()
    scopes = {scope for _, scope in scores.cards} | {("citizen", 7), ("community", 9)}
    for scope in sorted(scopes):
        assert dict(scores.scope_cards(scope)) == dict(cards.scope_cards(scope))
        assert scores.column(scope).tolist() == cards.column(scope).tolist()
        for m in sorted(catalog) + [99]:
            card = cards.get(m, scope)
            assert scores.get(m, scope) == card
            assert scores.label(m, scope) == (card.label if card is not None else None)
            if card is not None and card.label == LABEL_DIVISIVE:
                assert balancing_set(scope, m, scores, catalog, False, 0.3) == \
                    balancing_set(scope, m, cards, catalog, False, 0.3)
    assert any(scope[0] == "citizen" and card.label == LABEL_DIVISIVE
               for (_, scope), card in scores.cards.items())


def test_scorecard_csv_contract():
    scores = ScoreSet.of([ScoreCard(content=3, scope=("community", 1), iota=0.5, beta=0.25,
                                    delta=0.7, psi=0.35, characteristic_blocs=frozenset({0, 2}),
                                    label=LABEL_DIVISIVE)])
    text = scores.to_csv()
    lines = text.splitlines()
    assert lines[0] == "content_id,scope_kind,scope_id,iota,beta,delta,psi,label,characteristic_blocs"
    assert lines[1] == "3,community,1,0.5,0.25,0.7,0.35,Divisive,0;2"
    assert ScoreSet().to_csv().splitlines() == [lines[0]]


# -- the mf backend fits only where a community card reads the fit ---------------

def test_mf_fits_only_communities_whose_cards_read_it(monkeypatch):
    """A fit is read only by a community with two or more blocs and a
    targeted content: only that community is fitted, from its own seed, and
    every other column is the gac_penrose fallback."""
    f = SocialFabric()
    for _ in range(9):
        f.add_citizen()
    a, b, c = (f.add_community(lambda_=1.0) for _ in range(3))
    for cid, members in ((a, (0, 1, 2, 3)), (b, (2, 3, 4, 5)), (c, (5, 6, 7, 8))):
        for p in members:
            f.add_membership(p, cid, 1.0, 1.0)
    f.communities[a].principal_subcommunities = [{0, 1}, {2, 3}]    # blocs, targeted
    f.communities[c].principal_subcommunities = [{5, 6}, {7, 8}]    # blocs, never targeted
    catalog, rm = _random_votes(f, lambda mid: {a} if mid % 2 else {a, b}, 8, seed=4)
    for p in (5, 6, 7, 8):         # votes that would fit c, were c read
        rm.record_reaction(p, 0, 1 if p % 2 else -1, 1)
        rm.record_reaction(p, 1, -1 if p % 2 else 1, 1)

    calls = []

    def counted(reactions, raters, **kwargs):
        calls.append(sorted(raters))
        return bridging_mf(reactions, raters, **kwargs)

    monkeypatch.setattr(score, "bridging_mf", counted)
    params = ScoringParams(backend="mf", mf_epochs=60)
    scores = score_round(f, catalog, rm, params, current_round=3, mf_seed=7)
    assert calls == [[0, 1, 2, 3]]

    fit = bridging_mf(rm, f.communities[a].members, reg=params.mf_reg,
                      epochs=params.mf_epochs, lr=params.mf_lr,
                      seed=derive_seed(7, "mf-community", a))
    penrose = score_round(f, catalog, rm, dataclasses.replace(params, backend="gac_penrose"),
                          current_round=3)
    fitted = scores.scope_cards(("community", a))
    assert sorted(fitted) == sorted(catalog)
    for mid, card in fitted.items():
        assert card == _ref_community_card(catalog[mid], f.communities[a], rm, params, 3,
                                           fitted=fit.beta_raw.get(mid))
    assert any(card != penrose.get(mid, ("community", a)) for mid, card in fitted.items())
    assert not scores.scope_cards(("community", c))
    others = [key for key in sorted(scores.cards) if key[1] != ("community", a)]
    assert others == [key for key in sorted(penrose.cards) if key[1] != ("community", a)]
    assert any(scope == ("community", b) for _, scope in others)
    for key in others:
        assert scores.cards[key] == penrose.cards[key]
