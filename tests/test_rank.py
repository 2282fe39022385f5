"""Ranking: the exposure equation against a brute-force oracle, feed
construction, provenance tagging, and staked seeding."""

import numpy as np
import pytest

from plural.errors import InsufficientStanding
from plural.fabric import SocialFabric
from plural.rank import (EffectivePsi, Feeds, PsiOverrides, RankingParams, build_feed,
                         exposure_weights, feed_to_records, seed_content)
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, ContentItem, ReactionMatrix,
                          ScoreCard, ScoreSet, ScoringParams, score_round)


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


class _TablePsi:
    """A psi view over a {(content, scope): psi} table."""

    def __init__(self, table):
        self.table = table

    def column(self, scope):
        return {m: v for (m, s), v in self.table.items() if s == scope}

    def psi(self, content, scope):
        return self.table.get((content, scope), 0.0)


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
        w = exposure_weights(p, f, _TablePsi(table), [0, 1])
        assert w[0] == pytest.approx(0.75)
        assert w[1] == pytest.approx(0.25)

    def test_all_equal_psi_uniform(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=1.0)
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 1.0, 1.0)
        table = {(m, ("community", c)): 0.4 for m in range(5)}
        w = exposure_weights(p, f, _TablePsi(table), list(range(5)))
        assert all(v == pytest.approx(0.2) for v in w.values())

    def test_devotion_weighted_sum(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=0.0)
        c1 = f.add_community(lambda_=1.0)
        c2 = f.add_community(lambda_=1.0)
        f.add_membership(p, c1, 1.0, 1.0)
        f.add_membership(p, c2, 1.0, 1.0)
        table = {("A", ("community", c1)): 0.8, ("A", ("community", c2)): 0.0,
                 ("B", ("community", c1)): 0.4, ("B", ("community", c2)): 0.4}
        w = exposure_weights(p, f, _TablePsi(table), ["A", "B"])
        assert w["A"] == pytest.approx(0.5)
        assert w["B"] == pytest.approx(0.5)

    def test_all_zero_fallback_uniform(self):
        f = SocialFabric()
        p = f.add_citizen()
        f.add_community()
        w = exposure_weights(p, f, _TablePsi({}), [3, 4, 5])
        assert all(v == pytest.approx(1 / 3) for v in w.values())

    def test_empty_pool_rejected(self):
        f = SocialFabric()
        p = f.add_citizen()
        with pytest.raises(ValueError):
            exposure_weights(p, f, _TablePsi({}), [])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            f, table, pool = random_instance(rng)
            for p in f.citizens:
                got = exposure_weights(p, f, _TablePsi(table), pool)
                want = exposure_oracle(f, table, p, pool)
                assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)
                for m in pool:
                    assert got[m] == pytest.approx(want[m], abs=1e-12)

    def test_lambda_scale_invariance(self):
        rng = np.random.default_rng(3)
        f, table, pool = random_instance(rng)
        base = {p: exposure_weights(p, f, _TablePsi(table), pool) for p in f.citizens}
        for p in f.citizens.values():
            p.lambda_ *= 7.5
        for c in f.communities.values():
            c.lambda_ *= 7.5
        for p in f.citizens:
            scaled = exposure_weights(p, f, _TablePsi(table), pool)
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
        before = exposure_weights(citizen, f, _TablePsi(table), pool)[m]
        bumped = dict(table)
        bumped[(m, ("community", c))] = bumped.get((m, ("community", c)), 0.0) + 0.5
        after = exposure_weights(citizen, f, _TablePsi(bumped), pool)[m]
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
            before = exposure_weights(p, f, _TablePsi(table), pool)[star]
            f.communities[c0].lambda_ *= float(rng.uniform(1.5, 4.0))
            after = exposure_weights(p, f, _TablePsi(table), pool)[star]
            assert after >= before - 1e-12


def feed_fixture(n_contents=10, lambda_p=0.0):
    f = SocialFabric()
    p = f.add_citizen(lambda_=lambda_p)
    c = f.add_community(lambda_=1.0)
    f.add_membership(p, c, 1.0, 1.0)
    scores = ScoreSet()
    for m in range(n_contents):
        psi = (n_contents - m) / n_contents
        scores.add(ScoreCard(content=m, scope=("community", c), iota=1.0,
                             beta=psi, delta=0.0, psi=psi))
    weights = exposure_weights(p, f, scores, list(range(n_contents)))
    return f, p, c, scores, weights


class TestBuildFeed:
    def test_epsilon_zero_top_k(self):
        f, p, c, scores, weights = feed_fixture()
        feed = build_feed(p, f, weights, scores, RankingParams(feed_size=3, epsilon=0.0))
        assert [m for m, _ in feed] == [0, 1, 2]
        top_weight = sum(weights[m] for m in (0, 1, 2))
        for m, share in feed:
            assert share == pytest.approx(weights[m] / top_weight)
        assert sum(share for _, share in feed) == pytest.approx(1.0, abs=1e-9)

    def test_k_covers_pool_identity(self):
        f, p, c, scores, weights = feed_fixture(n_contents=5)
        feed = build_feed(p, f, weights, scores, RankingParams(feed_size=8, epsilon=0.0))
        assert dict(feed) == pytest.approx(weights)

    def test_budget_split(self):
        f, p, c, scores, weights = feed_fixture(n_contents=10)
        feed = build_feed(p, f, weights, scores,
                          RankingParams(feed_size=3, epsilon=0.1), seed=5)
        top = [share for m, share in feed if m in (0, 1, 2)]
        rest = [share for m, share in feed if m not in (0, 1, 2)]
        assert sum(top) == pytest.approx(0.9)
        assert sum(rest) == pytest.approx(0.1)
        assert sum(share for _, share in feed) == pytest.approx(1.0, abs=1e-9)

    def test_epsilon_with_no_rest_pool(self):
        f, p, c, scores, weights = feed_fixture(n_contents=4)
        feed = build_feed(p, f, weights, scores,
                          RankingParams(feed_size=4, epsilon=0.2), seed=1)
        assert sum(share for _, share in feed) == pytest.approx(1.0, abs=1e-9)

    def test_rank_positions_sorted(self):
        f, p, c, scores, weights = feed_fixture()
        feed = build_feed(p, f, weights, scores,
                          RankingParams(feed_size=5, epsilon=0.2), seed=3)
        assert feed == sorted(feed, key=lambda e: (-e[1], e[0]))
        table = Feeds.of({p: feed})
        assert table.rank.tolist() == list(range(len(feed)))
        assert list(zip(table.content.tolist(), table.share.tolist())) == feed

    def test_deterministic(self):
        f, p, c, scores, weights = feed_fixture()
        params = RankingParams(feed_size=3, epsilon=0.3)
        a = build_feed(p, f, weights, scores, params, seed=9, round_=4)
        b = build_feed(p, f, weights, scores, params, seed=9, round_=4)
        assert a == b

    def test_provenance_tags(self):
        f = SocialFabric()
        p = f.add_citizen()
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 1.0, 1.0)
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=0.8,
                             delta=0.1, psi=0.8, label=LABEL_BRIDGING))
        scores.add(ScoreCard(content=1, scope=("community", c), iota=1.0, beta=0.1,
                             delta=0.7, psi=0.7, label=LABEL_DIVISIVE,
                             characteristic_blocs=frozenset({0})))
        scores.add(ScoreCard(content=1, scope=("citizen", p), iota=1.0, beta=0.2,
                             delta=0.6, psi=0.6, label=LABEL_DIVISIVE,
                             characteristic_blocs=frozenset({1})))
        scores.balancing[(1, ("community", c))] = [0]
        weights = exposure_weights(p, f, scores, [0, 1])
        feed = build_feed(p, f, weights, scores, RankingParams(feed_size=2))
        records = feed_to_records(0, Feeds.of({p: feed}), scores, f)
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
        feed = build_feed(p, f, weights, scores, RankingParams(feed_size=2))
        recs = feed_to_records(7, Feeds.of({p: feed}), scores, f)
        assert recs[0]["round"] == 7
        assert recs[0]["citizen"] == p
        assert set(recs[0]) == {"round", "citizen", "rank_position", "content",
                                "exposure_share", "provenance"}


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
        # identical lambda weighting means exposure follows the 1:2 ratio
        view = EffectivePsi(ScoreSet(), ov, 0)
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
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("community", c), iota=1.0,
                             beta=0.2, delta=0.0, psi=0.2))
        ov = PsiOverrides()
        ov.set(0, c, 0.9, expires_round=2)
        view = EffectivePsi(scores, ov, current_round=1)
        assert view.psi(0, ("community", c)) == 0.9
        view_late = EffectivePsi(scores, ov, current_round=2)
        assert view_late.psi(0, ("community", c)) == 0.2


class TestEffectivePsiColumn:
    """`column(scope)` agrees with `psi()` content by content, and both
    follow the overrides live in the view's round."""

    def _view(self, current_round):
        scores = ScoreSet()
        for m, psi in ((0, 0.2), (1, 0.0), (2, 0.7)):
            scores.add(ScoreCard(content=m, scope=("community", 0), iota=1.0,
                                 beta=psi, delta=0.0, psi=psi))
        scores.add(ScoreCard(content=2, scope=("community", 1), iota=1.0,
                             beta=0.4, delta=0.0, psi=0.4))
        for m, psi in ((0, 0.3), (3, 0.5)):
            scores.add(ScoreCard(content=m, scope=("citizen", 5), iota=1.0,
                                 beta=psi, delta=0.0, psi=psi))
        ov = PsiOverrides()
        ov.set(0, 0, 0.9, expires_round=2)      # live in rounds 0 and 1
        ov.set(2, 0, 0.8, expires_round=1)      # live in round 0 only
        ov.set(7, 0, 0.6, expires_round=3)      # content without a card
        ov.set(3, 5, 0.1, expires_round=3)      # community 5 has no cards
        return EffectivePsi(scores, ov, current_round)

    @pytest.mark.parametrize("scope", [("community", 0), ("community", 1),
                                       ("community", 5), ("citizen", 5),
                                       ("citizen", 0)])
    @pytest.mark.parametrize("current_round", [0, 1, 3])
    def test_column_matches_psi(self, scope, current_round):
        view = self._view(current_round)
        col = view.column(scope)
        for m in range(9):
            assert col.get(m, 0.0) == view.psi(m, scope)

    def test_live_and_expired_overrides(self):
        assert dict(self._view(0).column(("community", 0))) == \
            {0: 0.9, 1: 0.0, 2: 0.8, 7: 0.6}
        assert dict(self._view(1).column(("community", 0))) == \
            {0: 0.9, 1: 0.0, 2: 0.7, 7: 0.6}
        assert dict(self._view(3).column(("community", 0))) == {0: 0.2, 1: 0.0, 2: 0.7}
        assert dict(self._view(0).column(("community", 5))) == {3: 0.1}

    def test_citizen_scope_ignores_overrides(self):
        # overrides are keyed by community id; citizen 5 shares the id only
        assert dict(self._view(0).column(("citizen", 5))) == {0: 0.3, 3: 0.5}

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
        scores = score_round(f, catalog, rm, ScoringParams(), current_round=2)
        ov = PsiOverrides()
        ov.set(1, c, 0.9, expires_round=3)
        view = EffectivePsi(scores, ov, current_round=2)
        for scope in (("citizen", p), ("citizen", q), ("community", c)):
            col = view.column(scope)
            for m in range(4):
                card = scores.get(m, scope)
                organic = card.psi if card is not None else 0.0
                assert scores.column(scope).get(m, 0.0) == scores.psi(m, scope) == organic
                expected = 0.9 if (m, scope) == (1, ("community", c)) else organic
                assert col.get(m, 0.0) == view.psi(m, scope) == expected
        assert scores.psi(0, ("citizen", p)) > 0.0 and scores.psi(2, ("citizen", p)) == 0.0
