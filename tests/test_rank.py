"""Ranking: the exposure equation against a brute-force oracle, feed
construction, the batched rank against the citizen-by-citizen walk,
provenance tagging, and staked seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural.errors import InsufficientStanding
from plural.fabric import SocialFabric
from plural.rank import (Group, PsiOverrides, RankingParams, build_feed,
                         exposure_weights, feed_to_records, rank_feeds, seed_content, served,
                         term_weights)
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, ContentItem, ReactionMatrix,
                          ScoreCard, ScoreSet, ScoringParams, score_round)

from rank_walk import attention_terms, entry_terms, feeds_table, rank_walk


def exposure_oracle(fabric, psi_table, citizen, pool):
    """Literal transcription of the attention-share equation, dict-driven."""
    p = fabric.citizens[citizen]
    dev = fabric.devotions(citizen)
    nums = {}
    for m in pool:
        total = p.lambda_ * psi_table.get((m, ("citizen", citizen)), 0.0)
        for c, d in dev.items():
            total += d * fabric.communities[c].lambda_ * psi_table.get((m, ("community", c)), 0.0)
        nums[m] = total
    s = sum(nums.values())
    if s <= 0:
        return {m: 1.0 / len(pool) for m in pool}
    return {m: v / s for m, v in nums.items()}


def table_scores(table, pool=()):
    """A ScoreSet holding one card per entry of a {(content, scope): psi}
    table, over the table's contents and the pool's."""
    return ScoreSet.of([ScoreCard(content=m, scope=scope, iota=1.0, beta=0.0, delta=0.0,
                                  psi=psi) for (m, scope), psi in table.items()],
                       contents=pool)


def psi_of(scores, content, scope):
    """The content's psi in `scope`; 0.0 for a content without a column."""
    j = scores.columns.get(content)
    return 0.0 if j is None else scores.column(scope).item(j)


def random_instance(rng):
    f = SocialFabric()
    n_citizens = int(rng.integers(2, 11))
    n_comms = int(rng.integers(1, 4))
    n_contents = int(rng.integers(2, 13))
    for _ in range(n_citizens):
        f.add_citizen(lambda_=float(rng.uniform(0, 2)))
    for _ in range(n_comms):
        f.add_community(lambda_=float(rng.uniform(0, 2)))
    for p in range(n_citizens):
        for c in rng.choice(n_comms, size=int(rng.integers(1, n_comms + 1)),
                            replace=False):
            f.add_membership(p, int(c), float(rng.uniform(0.2, 2)),
                             float(rng.uniform(0.2, 2)))
    table = {}
    for m in range(n_contents):
        for c in range(n_comms):
            if rng.random() < 0.8:
                table[(m, ("community", c))] = float(rng.uniform(0, 1.5))
        for p in range(n_citizens):
            if rng.random() < 0.3:
                table[(m, ("citizen", p))] = float(rng.uniform(0, 1.5))
    return f, table, list(range(n_contents))


class TestExposureWeights:
    def test_single_community_ratio(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=0.0)
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 1.0, 1.0)
        table = {(0, ("community", c)): 0.3, (1, ("community", c)): 0.1}
        w = exposure_weights(p, f, table_scores(table, [0, 1]), [0, 1])
        assert w[0] == pytest.approx(0.75)
        assert w[1] == pytest.approx(0.25)

    def test_all_equal_psi_uniform(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=1.0)
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 1.0, 1.0)
        table = {(m, ("community", c)): 0.4 for m in range(5)}
        w = exposure_weights(p, f, table_scores(table, list(range(5))), list(range(5)))
        assert all(v == pytest.approx(0.2) for v in w.values())

    def test_devotion_weighted_sum(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=0.0)
        c1 = f.add_community(lambda_=1.0)
        c2 = f.add_community(lambda_=1.0)
        f.add_membership(p, c1, 1.0, 1.0)
        f.add_membership(p, c2, 1.0, 1.0)
        table = {(0, ("community", c1)): 0.8, (0, ("community", c2)): 0.0,
                 (1, ("community", c1)): 0.4, (1, ("community", c2)): 0.4}
        w = exposure_weights(p, f, table_scores(table), [0, 1])
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(0.5)

    def test_all_zero_fallback_uniform(self):
        f = SocialFabric()
        p = f.add_citizen()
        f.add_community()
        w = exposure_weights(p, f, table_scores({}, [3, 4, 5]), [3, 4, 5])
        assert all(v == pytest.approx(1 / 3) for v in w.values())

    def test_empty_pool_rejected(self):
        f = SocialFabric()
        p = f.add_citizen()
        with pytest.raises(ValueError):
            exposure_weights(p, f, table_scores({}, []), [])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            f, table, pool = random_instance(rng)
            for p in f.citizens:
                got = exposure_weights(p, f, table_scores(table, pool), pool)
                want = exposure_oracle(f, table, p, pool)
                assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)
                for m in pool:
                    assert got[m] == pytest.approx(want[m], abs=1e-12)

    def test_lambda_scale_invariance(self):
        rng = np.random.default_rng(3)
        f, table, pool = random_instance(rng)
        base = {p: exposure_weights(p, f, table_scores(table, pool), pool) for p in f.citizens}
        for p in f.citizens.values():
            p.lambda_ *= 7.5
        for c in f.communities.values():
            c.lambda_ *= 7.5
        for p in f.citizens:
            scaled = exposure_weights(p, f, table_scores(table, pool), pool)
            for m in pool:
                assert scaled[m] == pytest.approx(base[p][m], abs=1e-12)

    def test_monotone_in_community_psi(self):
        rng = np.random.default_rng(9)
        f, table, pool = random_instance(rng)
        citizen = 0
        comms = f.member_communities(citizen)
        if not comms:
            return
        c = comms[0]
        m = pool[0]
        before = exposure_weights(citizen, f, table_scores(table, pool), pool)[m]
        bumped = dict(table)
        bumped[(m, ("community", c))] = bumped.get((m, ("community", c)), 0.0) + 0.5
        after = exposure_weights(citizen, f, table_scores(bumped, pool), pool)[m]
        assert after >= before - 1e-12

    def test_raising_community_lambda_lifts_its_argmax(self):
        # holds when all other scopes score the pool evenly; see ledger note
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = SocialFabric()
            p = f.add_citizen(lambda_=0.0)
            c0 = f.add_community(lambda_=float(rng.uniform(0.2, 1.5)))
            c1 = f.add_community(lambda_=float(rng.uniform(0.2, 1.5)))
            f.add_membership(p, c0, 1.0, float(rng.uniform(0.5, 2)))
            f.add_membership(p, c1, 1.0, float(rng.uniform(0.5, 2)))
            pool = list(range(6))
            table = {(m, ("community", c0)): float(rng.uniform(0, 1)) for m in pool}
            for m in pool:
                table[(m, ("community", c1))] = 0.6
            star = max(pool, key=lambda m: table[(m, ("community", c0))])
            before = exposure_weights(p, f, table_scores(table, pool), pool)[star]
            f.communities[c0].lambda_ *= float(rng.uniform(1.5, 4.0))
            after = exposure_weights(p, f, table_scores(table, pool), pool)[star]
            assert after >= before - 1e-12


def feed_fixture(n_contents=10, lambda_p=0.0):
    f = SocialFabric()
    p = f.add_citizen(lambda_=lambda_p)
    c = f.add_community(lambda_=1.0)
    f.add_membership(p, c, 1.0, 1.0)
    scores = ScoreSet.of(ScoreCard(content=m, scope=("community", c), iota=1.0,
                                   beta=(n_contents - m) / n_contents, delta=0.0,
                                   psi=(n_contents - m) / n_contents)
                         for m in range(n_contents))
    weights = exposure_weights(p, f, scores, list(range(n_contents)))
    return f, p, c, scores, weights


class TestBuildFeed:
    def test_epsilon_zero_top_k(self):
        f, p, c, scores, weights = feed_fixture()
        feed = build_feed(p, weights, params=RankingParams(feed_size=3, epsilon=0.0))
        assert [m for m, _ in feed] == [0, 1, 2]
        top_weight = sum(weights[m] for m in (0, 1, 2))
        for m, share in feed:
            assert share == pytest.approx(weights[m] / top_weight)
        assert sum(share for _, share in feed) == pytest.approx(1.0, abs=1e-9)

    def test_k_covers_pool_identity(self):
        f, p, c, scores, weights = feed_fixture(n_contents=5)
        feed = build_feed(p, weights, params=RankingParams(feed_size=8, epsilon=0.0))
        assert dict(feed) == pytest.approx(weights)

    def test_budget_split(self):
        f, p, c, scores, weights = feed_fixture(n_contents=10)
        feed = build_feed(p, weights, params=RankingParams(feed_size=3, epsilon=0.1), seed=5)
        top = [share for m, share in feed if m in (0, 1, 2)]
        rest = [share for m, share in feed if m not in (0, 1, 2)]
        assert sum(top) == pytest.approx(0.9)
        assert sum(rest) == pytest.approx(0.1)
        assert sum(share for _, share in feed) == pytest.approx(1.0, abs=1e-9)

    def test_epsilon_with_no_rest_pool(self):
        f, p, c, scores, weights = feed_fixture(n_contents=4)
        feed = build_feed(p, weights, params=RankingParams(feed_size=4, epsilon=0.2), seed=1)
        assert sum(share for _, share in feed) == pytest.approx(1.0, abs=1e-9)

    def test_rank_positions_sorted(self):
        f, p, c, scores, weights = feed_fixture()
        feed = build_feed(p, weights, params=RankingParams(feed_size=5, epsilon=0.2), seed=3)
        assert feed == sorted(feed, key=lambda e: (-e[1], e[0]))
        table = feeds_table({p: feed}, f, scores)
        assert table.rank.tolist() == list(range(len(feed)))
        assert list(zip(table.content.tolist(), table.share.tolist())) == feed

    def test_deterministic(self):
        f, p, c, scores, weights = feed_fixture()
        params = RankingParams(feed_size=3, epsilon=0.3)
        a = build_feed(p, weights, params=params, seed=9, round_=4)
        b = build_feed(p, weights, params=params, seed=9, round_=4)
        assert a == b

    def test_provenance_tags(self):
        f = SocialFabric()
        p = f.add_citizen()
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 1.0, 1.0)
        scores = ScoreSet.of([
            ScoreCard(content=0, scope=("community", c), iota=1.0, beta=0.8,
                      delta=0.1, psi=0.8, label=LABEL_BRIDGING),
            ScoreCard(content=1, scope=("community", c), iota=1.0, beta=0.1,
                      delta=0.7, psi=0.7, label=LABEL_DIVISIVE,
                      characteristic_blocs=frozenset({0})),
            ScoreCard(content=1, scope=("citizen", p), iota=1.0, beta=0.2,
                      delta=0.6, psi=0.6, label=LABEL_DIVISIVE,
                      characteristic_blocs=frozenset({1}))])
        scores.balancing[(1, ("community", c))] = [0]
        weights = exposure_weights(p, f, scores, [0, 1])
        feed = build_feed(p, weights, params=RankingParams(feed_size=2))
        records = feed_to_records(0, feeds_table({p: feed}, f, scores), scores, f)
        by_content = {rec["content"]: rec["provenance"] for rec in records}
        assert by_content[0] == [{"scope_kind": "community", "scope_id": c,
                                  "kind": LABEL_BRIDGING, "balancing_peek": []}]
        assert by_content[1] == [
            {"scope_kind": "community", "scope_id": c, "kind": LABEL_DIVISIVE,
             "balancing_peek": [0]},
            {"scope_kind": "citizen", "scope_id": p, "kind": LABEL_DIVISIVE,
             "balancing_peek": []}]

    def test_feed_records_shape(self):
        f, p, c, scores, weights = feed_fixture()
        feed = build_feed(p, weights, params=RankingParams(feed_size=2))
        recs = feed_to_records(7, feeds_table({p: feed}, f, scores), scores, f)
        assert recs[0]["round"] == 7
        assert recs[0]["citizen"] == p
        assert set(recs[0]) == {"round", "citizen", "rank_position", "content",
                                "exposure_share", "provenance"}


# -- the batched rank against the citizen walk ---------------------------------------

TIES = [0.5, 0.25, 0.0, 1.0]


@st.composite
def rank_worlds(draw):
    """A fabric with overlapping communities, lambda-0 owners, uneven
    devotions and citizens in no community; a catalog of targeted contents
    and personal ads; psi rows, all zero or drawn with many ties, and live
    overrides; the round's groups as a run gathers them, each citizen having
    reacted to none, some or all of its pool; and ranking parameters.

    The psi cells and the partly reacted rows come from a generator seeded
    by a drawn integer, so pools can be long enough for ties to straddle
    the feed size."""
    f = SocialFabric()
    comms = [f.add_community(lambda_=draw(st.sampled_from([1.0, 0.5, 0.0, 2.0])))
             for _ in range(draw(st.integers(1, 3)))]
    citizens = [f.add_citizen(lambda_=draw(st.sampled_from([1.0, 0.7, 0.0])))
                for _ in range(draw(st.integers(1, 8)))]
    ads = {p: draw(st.booleans()) for p in citizens}
    for p in citizens:
        for c in sorted(draw(st.sets(st.sampled_from(comms)))):
            f.add_membership(p, c, 1.0, draw(st.sampled_from([0.3, 1.0, 1.7])))
    contents = range(draw(st.integers(0, 30)))
    targets = {m: draw(st.sets(st.sampled_from(comms))) for m in contents}
    personal = {m: draw(st.booleans()) for m in contents}
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cold = draw(st.booleans())
    scopes = [("citizen", p) for p in citizens] + [("community", c) for c in comms]
    cards = [ScoreCard(content=m, scope=scope, iota=1.0, beta=0.5, delta=0.0,
                       psi=0.0 if cold else float(rng.choice(TIES)) if rng.random() < 0.6
                       else rng.uniform(0.0, 2.0))
             for m in contents for scope in scopes if rng.random() < 0.75]
    overrides = PsiOverrides()
    for _ in range(draw(st.integers(0, 4))):
        overrides.set(draw(st.sampled_from(list(contents) or [0])), draw(st.sampled_from(comms)),
                      draw(st.sampled_from(TIES)), draw(st.integers(0, 3)))
    round_ = draw(st.integers(0, 2))
    view = served(ScoreSet.of(cards, contents=contents), overrides, round_)
    members = {}
    for p in citizens:
        members.setdefault((tuple(f.member_communities(p)), ads[p]), []).append(p)
    groups = []
    for (communities, flag), who in members.items():
        pool = np.array([m for m in contents if targets[m] & set(communities)
                         or (flag and personal[m])], dtype=np.int64)
        modes = [draw(st.sampled_from(["none", "some", "all"])) for _ in who]
        reacted = np.array([rng.random(len(pool)) < {"none": 0.0, "some": 0.3, "all": 1.0}[mode]
                            for mode in modes]).reshape(len(who), len(pool))
        groups.append(Group(np.array(who, dtype=np.int64), pool, reacted))
    params = RankingParams(feed_size=draw(st.integers(1, 6)),
                           epsilon=draw(st.sampled_from([0.0, 0.1, 0.5])))
    return f, view, groups, params, draw(st.integers(0, 2 ** 32 - 1)), round_


@st.composite
def shuffled_fabrics(draw):
    """Fabrics with ids that need not be contiguous, whose citizens,
    communities and memberships are added out of id order, with raw
    devotions across six decades."""
    f = SocialFabric()
    for p in draw(st.lists(st.integers(0, 20), unique=True, max_size=8)):
        f.add_citizen(lambda_=draw(st.floats(0, 10)), citizen_id=p)
    for c in draw(st.lists(st.integers(0, 9), unique=True, max_size=4)):
        f.add_community(lambda_=draw(st.floats(0, 10)), community_id=c)
    edges = draw(st.permutations([(p, c) for p in f.citizens for c in f.communities]))
    for p, c in edges[:draw(st.integers(0, len(edges)))]:
        f.add_membership(p, c, 1.0, draw(st.floats(1e-3, 1e3)))
    return f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shuffled_fabrics())
def test_devotion_matrix_and_term_weights_equal_the_walk(f):
    """Each `devotion_matrix` row is the citizen's `devotions`, its positive
    cells are the memberships, and each `term_weights` cell is the walk's
    attention term (0.0 for a community the citizen is not in)."""
    citizens, communities = sorted(f.citizens), sorted(f.communities)
    devotion = f.devotion_matrix()
    weights = term_weights(f, devotion)
    assert devotion.shape == (len(citizens), len(communities))
    assert weights.shape == (len(citizens), 1 + len(communities))
    member = [[c in f.citizens[p].memberships for c in communities] for p in citizens]
    assert (devotion > 0).tolist() == member
    for i, p in enumerate(citizens):
        devotions = f.devotions(p)
        assert devotion[i].tolist() == [devotions.get(c, 0.0) for c in communities]
        terms = dict(attention_terms(p, f))
        assert weights[i].tolist() == [terms[("citizen", p)]] + \
            [terms.get(("community", c), 0.0) for c in communities]


def test_rank_feeds_equals_the_citizen_walk():
    """The batched rank gives the walk's feed table, column for column, over
    worlds with ties, cold and all-reacted rows, citizens whose pool holds
    only personal ads, pools on either side of the feed size and exploration
    on and off."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rank_worlds())
    def check(world):
        f, view, groups, params, seed, round_ = world
        got = rank_feeds(groups, term_weights(f, f.devotion_matrix()), f, view, params, seed, round_)
        want = rank_walk(groups, f, view, params, seed, round_)
        for column, expected in zip(got, want):
            assert column.dtype == expected.dtype
            assert column.tolist() == expected.tolist()
        k = params.feed_size
        for group in (group for group in groups if len(group.pool)):
            if not f.citizens[int(group.citizens[0])].memberships:
                seen.add("no community")
            seen.update("all reacted" if n == 0 else "short pool" if n < k else "pool = feed size"
                        if n == k else "explored" if params.epsilon else "long pool"
                        for n in len(group.pool) - group.reacted.sum(axis=1))
        shares = got.share.tolist()
        if len(set(shares)) < len(shares):
            seen.add("tied shares")
        if len(got.share) and not view.psi.any():
            seen.add("cold")

    check()
    assert seen >= {"no community", "all reacted", "short pool", "pool = feed size", "explored",
                    "long pool", "tied shares", "cold"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rank_worlds())
def test_rank_feeds_terms_equal_the_walk(world):
    """Each feed entry's terms are the walk's attention terms for its citizen
    and content: own first, then every community by id, 0.0 outside the
    citizen's communities."""
    f, view, groups, params, seed, round_ = world
    feeds = rank_feeds(groups, term_weights(f, f.devotion_matrix()), f, view, params, seed,
                       round_)
    assert feeds.terms.shape == (len(feeds.citizen), 1 + len(f.communities))
    for citizen, content, terms in zip(feeds.citizen.tolist(), feeds.content.tolist(),
                                       feeds.terms.tolist()):
        assert terms == entry_terms(citizen, f, view, content)


class TestSeedContent:
    def _fabric(self):
        f = SocialFabric()
        a = f.add_citizen()
        b = f.add_citizen()
        c = f.add_community(lambda_=1.0)
        f.add_membership(a, c, 1.0, 1.0)
        f.add_membership(b, c, 1.0, 1.0)
        return f, a, b, c

    def test_zero_stake_noop(self):
        f, a, b, c = self._fabric()
        ov = PsiOverrides()
        item = ContentItem(id=0, creator=a, target_communities={c})
        psi = seed_content(ov, f, item, c, 0.0, RankingParams(), 0)
        assert psi == 0.0
        assert ov.live(c, 0).get(0) is None
        assert f.raw_standing(a, c) == 1.0

    def test_linear_stake_ratio(self):
        f, a, b, c = self._fabric()
        ov = PsiOverrides()
        params = RankingParams(stake_scale=10.0)
        item_a = ContentItem(id=0, creator=a, target_communities={c})
        item_b = ContentItem(id=1, creator=b, target_communities={c})
        seed_content(ov, f, item_a, c, 0.04, params, 0)
        seed_content(ov, f, item_b, c, 0.08, params, 0)
        pa, pb = ov.live(c, 0).get(0), ov.live(c, 0).get(1)
        assert pb == pytest.approx(2 * pa)
        # identical lambda weighting means exposure follows the 1:2 ratio;
        # no content has organic psi
        view = served(table_scores({(0, ("community", c)): 0.0}, [0, 1]), ov, 0)
        w = exposure_weights(a, f, view, [0, 1])
        assert w[1] == pytest.approx(2 * w[0])

    def test_nonmember_rejected(self):
        f, a, b, c = self._fabric()
        outsider = f.add_citizen()
        ov = PsiOverrides()
        item = ContentItem(id=0, creator=outsider, target_communities={c})
        with pytest.raises(InsufficientStanding):
            seed_content(ov, f, item, c, 0.1, RankingParams(), 0)

    def test_overspend_rejected(self):
        f, a, b, c = self._fabric()
        ov = PsiOverrides()
        item = ContentItem(id=0, creator=a, target_communities={c})
        with pytest.raises(InsufficientStanding):
            seed_content(ov, f, item, c, 2.0, RankingParams(), 0)

    @pytest.mark.parametrize("kind", ["citizen", "advertiser"])
    @pytest.mark.parametrize("stake", [float("nan"), float("inf")])
    def test_non_finite_stake_rejected(self, kind, stake):
        f, a, b, c = self._fabric()
        ov = PsiOverrides()
        item = ContentItem(id=0, creator=a, target_communities={c}, creator_kind=kind)
        allowance = {c: 1.0}
        with pytest.raises(ValueError, match="finite"):
            seed_content(ov, f, item, c, stake, RankingParams(), 0, allowance=allowance)
        assert (allowance, f.raw_standing(a, c), ov.live(c, 0)) == ({c: 1.0}, 1.0, {})

    def test_override_expires(self):
        f, a, b, c = self._fabric()
        ov = PsiOverrides()
        item = ContentItem(id=0, creator=a, target_communities={c})
        seed_content(ov, f, item, c, 0.05, RankingParams(seed_rounds=2), 3)
        assert ov.live(c, 3).get(0) == pytest.approx(0.5)
        assert ov.live(c, 4).get(0) == pytest.approx(0.5)
        assert ov.live(c, 5).get(0) is None

    def test_expire_keeps_every_live_override(self):
        # Dropping expired overrides each round changes no live() result,
        # in that round or any later one, and leaves only live ones held.
        rng = np.random.default_rng(3)
        kept, pruned = PsiOverrides(), PsiOverrides()
        for round_ in range(12):
            pruned.expire(round_)
            for _ in range(int(rng.integers(0, 6))):
                m, c = int(rng.integers(0, 20)), int(rng.integers(0, 3))
                psi, expires = float(rng.random()), round_ + int(rng.integers(0, 4))
                kept.set(m, c, psi, expires)
                pruned.set(m, c, psi, expires)
            for later in range(round_, round_ + 5):
                for c in range(4):
                    assert pruned.live(c, later) == kept.live(c, later)
        pruned.expire(12)
        held = sum(len(by_content) for by_content in pruned._live.values())
        assert held == sum(len(pruned.live(c, 12)) for c in range(3))
        assert held < sum(len(by_content) for by_content in kept._live.values())

    def test_advertiser_allowance_path(self):
        f, a, b, c = self._fabric()
        ov = PsiOverrides()
        item = ContentItem(id=0, creator=0, target_communities={c},
                           creator_kind="advertiser")
        allowance = {c: 0.1}
        seed_content(ov, f, item, c, 0.06, RankingParams(), 0, allowance=allowance)
        assert allowance[c] == pytest.approx(0.04)
        with pytest.raises(InsufficientStanding):
            seed_content(ov, f, item, c, 0.06, RankingParams(), 0, allowance=allowance)

    def test_effective_psi_prefers_live_override(self):
        f, a, b, c = self._fabric()
        scores = table_scores({(0, ("community", c)): 0.2})
        ov = PsiOverrides()
        ov.set(0, c, 0.9, expires_round=2)
        assert psi_of(served(scores, ov, 1), 0, ("community", c)) == 0.9
        assert psi_of(served(scores, ov, 2), 0, ("community", c)) == 0.2


class TestEffectivePsiColumn:
    """`served(scores, overrides, round_)`, which replaced the EffectivePsi
    view: each scope's psi row in the served copy is the organic one with the
    overrides live in the round laid over the community rows, and the
    organic psi array is left as it was."""

    OVERRIDES = ((0, 0, 0.9, 2),     # live in rounds 0 and 1
                 (2, 0, 0.8, 1),     # live in round 0 only
                 (7, 0, 0.6, 3),     # content without a card
                 (3, 5, 0.1, 3))     # community 5 has no card for content 3

    def _scores(self):
        table = {(0, ("community", 0)): 0.2, (1, ("community", 0)): 0.0,
                 (2, ("community", 0)): 0.7, (2, ("community", 1)): 0.4,
                 (8, ("community", 5)): 0.0,
                 (0, ("citizen", 5)): 0.3, (3, ("citizen", 5)): 0.5}
        return table_scores(table, range(9))

    def _overrides(self):
        ov = PsiOverrides()
        for content, community, psi, expires in self.OVERRIDES:
            ov.set(content, community, psi, expires_round=expires)
        return ov

    def _view(self, current_round):
        return served(self._scores(), self._overrides(), current_round)

    @pytest.mark.parametrize("scope", [("community", 0), ("community", 1),
                                       ("community", 5), ("citizen", 5),
                                       ("citizen", 0)])
    @pytest.mark.parametrize("current_round", [0, 1, 3])
    def test_column_matches_psi(self, scope, current_round):
        scores = self._scores()
        organic, ov = scores.psi.copy(), self._overrides()
        view = served(scores, ov, current_round)
        assert np.array_equal(scores.psi, organic) and view.psi is not scores.psi
        live = ov.live(scope[1], current_round) if scope[0] == "community" else {}
        for m in range(9):
            assert psi_of(view, m, scope) == live.get(m, psi_of(scores, m, scope))

    def test_live_and_expired_overrides(self):
        def row(current_round, community):
            return self._view(current_round).column(("community", community)).tolist()
        assert row(0, 0) == [0.9, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.6, 0.0]
        assert row(1, 0) == [0.9, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.6, 0.0]
        assert row(3, 0) == [0.2, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert row(0, 5) == [0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_citizen_scope_ignores_overrides(self):
        # overrides are keyed by community id; citizen 5 shares the id only
        assert self._view(0).column(("citizen", 5)).tolist() == \
            [0.3, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_citizen_rows_from_score_round(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=1.0)
        q = f.add_citizen(lambda_=1.0)
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 1.0, 1.0)
        f.add_membership(q, c, 1.0, 1.0)
        catalog = {m: ContentItem(id=m, creator=q, target_communities={c}) for m in range(3)}
        rm = ReactionMatrix()
        rm.record_reaction(p, 0, 1, 0)
        rm.record_exposure(p, 1, 1)
        rm.record_reaction(q, 2, -1, 1)
        scores = score_round(f, catalog, rm, ScoringParams(), current_round=2,
                             signatures=f.signatures())
        ov = PsiOverrides()
        ov.set(1, c, 0.9, expires_round=3)
        organic_psi = scores.psi.copy()
        view = served(scores, ov, 2)
        assert np.array_equal(scores.psi, organic_psi)
        for scope in (("citizen", p), ("citizen", q), ("community", c)):
            for m in range(4):
                card = scores.get(m, scope)
                organic = card.psi if card is not None else 0.0
                assert psi_of(scores, m, scope) == organic
                expected = 0.9 if (m, scope) == (1, ("community", c)) else organic
                assert psi_of(view, m, scope) == expected
        assert psi_of(scores, 0, ("citizen", p)) > 0.0 and psi_of(scores, 2, ("citizen", p)) == 0.0
