"""Economy: ledger discipline, settlement flows, standing rewards, and the
advertiser standing market."""

import copy
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural import econ
from plural.config import AdDealConfig
from plural.econ import (PLATFORM, REASONS, Advertiser, EconParams, Ledger, creator_pool,
                         reward_standing, sell_standing, settle_round)
from plural.errors import InsufficientFunds, NotFound, Unregistered
from plural.fabric import SocialFabric
from plural.rank import Feeds
from plural.score import ContentItem, ScoreCard, ScoreSet

from rank_walk import feeds_table
from settle_walk import settle_walk, shares, sponsor_terms


def one_community_world(lambda_c=1.0, balance=100.0):
    f = SocialFabric()
    p = f.add_citizen()
    creator = f.add_citizen()
    c = f.add_community(lambda_=lambda_c)
    f.add_membership(p, c, 1.0, 1.0)
    f.add_membership(creator, c, 1.0, 1.0)
    ledger = Ledger()
    ledger.open_account(("community", c), balance)
    catalog = {0: ContentItem(id=0, creator=creator, target_communities={c})}
    cards = []
    cards.append(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=1.0,
                           delta=0.0, psi=1.0))
    scores = ScoreSet.of(cards)
    feeds = feeds_table({p: [(0, 1.0)]}, f, scores)
    return f, p, creator, c, ledger, catalog, scores, feeds


class TestLedger:
    def test_post_validations(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 10.0)
        with pytest.raises(ValueError):
            ledger.post(0, ("community", 0), PLATFORM, 0.0, "PlatformFee")
        with pytest.raises(ValueError):
            ledger.post(0, ("community", 0), ("community", 0), 1.0, "PlatformFee")
        with pytest.raises(ValueError):
            ledger.post(0, ("community", 0), PLATFORM, 1.0, "Tips")
        with pytest.raises(InsufficientFunds):
            ledger.post(0, ("community", 0), PLATFORM, 11.0, "PlatformFee")

    def test_audit_and_csv(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 5.0)
        ledger.post(2, ("community", 0), PLATFORM, 1.5, "PlatformFee")
        ledger.post(2, ("community", 0), ("citizen", 3), 0.5, "CreatorReward")
        ledger.audit()
        lines = ledger.to_csv().splitlines()
        assert lines[0] == "round,from_kind,from_id,to_kind,to_id,amount,reason"
        assert lines[1] == "2,community,0,platform,0,1.5,PlatformFee"
        assert lines[2] == "2,community,0,citizen,3,0.5,CreatorReward"

    def test_audit_catches_created_money(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 5.0)
        ledger.post(0, ("community", 0), PLATFORM, 1.0, "PlatformFee")
        ledger.audit()
        ledger._balances[ledger.code(PLATFORM)] += 1.0
        with pytest.raises(AssertionError, match="not conserved"):
            ledger.audit()

    def test_audit_catches_balance_drift(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 5.0)
        ledger.post(0, ("community", 0), PLATFORM, 1.0, "PlatformFee")
        # moved between accounts without a posting: the total still holds
        ledger._balances[ledger.code(("community", 0))] -= 0.5
        ledger._balances[ledger.code(PLATFORM)] += 0.5
        with pytest.raises(AssertionError, match="balance drift"):
            ledger.audit()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_amounts_and_balances_rejected(self, bad):
        ledger = Ledger()
        ledger.open_account(("community", 0), 10.0)
        with pytest.raises(ValueError, match="finite"):
            ledger.post(0, ("community", 0), PLATFORM, bad, "PlatformFee")
        with pytest.raises(ValueError, match="finite"):
            ledger.open_account(("community", 1), bad)
        payer, payee = ledger.code(("community", 0)), ledger.code(PLATFORM)
        with pytest.raises(ValueError, match="finite"):
            ledger.post_block(0, [payer, payer], [payee, payee], [1.0, bad], [4, 4])
        assert ledger.entries == []
        assert ledger.balance(("community", 0)) == 10.0
        assert ledger.balance(PLATFORM) == 0.0
        assert ledger.balance(("community", 1)) == 0.0
        ledger.audit()

    def test_block_raises_first_failing_rows_error_and_posts_nothing(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 1.0)
        a, b = ledger.code(("community", 0)), ledger.code(PLATFORM)
        fee = REASONS.index("PlatformFee")
        # row 1 overdraws (after row 0) before row 2's self-transfer
        with pytest.raises(InsufficientFunds, match=r"\('community', 0\) balance 0.4 < 0.7"):
            ledger.post_block(0, [a, a, a], [b, b, a], [0.6, 0.7, 0.1], [fee] * 3)
        with pytest.raises(ValueError, match="self-transfers"):
            ledger.post_block(0, [a, a, a], [b, a, b], [0.6, 0.1, 0.7], [fee] * 3)
        with pytest.raises(ValueError, match="unknown reason"):
            ledger.post_block(0, [a], [b], [0.1], [len(REASONS)])
        assert ledger.entries == [] and ledger.balance(("community", 0)) == 1.0
        # an earlier credit counts
        c = ledger.code(("citizen", 3))
        ledger.post_block(1, [a, c], [c, b], [1.0, 1.0],
                          [REASONS.index("CreatorReward"), REASONS.index("Subscription")])
        assert [e.reason for e in ledger.entries] == ["CreatorReward", "Subscription"]
        assert ledger.balance(PLATFORM) == 1.0 and ledger.balance(("community", 0)) == 0.0
        ledger.audit()

    def test_drain_keeps_the_audit(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 5.0)
        ledger.post(0, ("community", 0), PLATFORM, 1.5, "PlatformFee")
        rows = ledger.drain()
        ledger.post(1, ("community", 0), ("citizen", 3), 0.5, "CreatorReward")
        assert [(e.round, e.from_owner, e.to_owner, e.amount) for e in rows.entries()] \
            == [(0, ("community", 0), PLATFORM, 1.5)]
        assert ledger.to_csv().splitlines()[1:] == ["1,community,0,citizen,3,0.5,CreatorReward"]
        ledger.audit()
        ledger._drained[ledger.code(PLATFORM)] -= 1.0
        with pytest.raises(AssertionError, match="balance drift"):
            ledger.audit()


class TestSettleRound:
    def test_single_flow_split(self):
        f, p, creator, c, ledger, catalog, scores, feeds = one_community_world()
        events = settle_round(0, feeds, f, catalog, {}, {},
                              EconParams(platform_fee=0.3, creator_share=0.7,
                                         default_price_per_lambda_impression=1.0), ledger)
        assert events == []
        assert ledger.balance(("community", c)) == pytest.approx(99.0)
        assert ledger.balance(PLATFORM) == pytest.approx(0.3)
        assert ledger.balance(("citizen", creator)) == pytest.approx(0.7)
        reasons = [e.reason for e in ledger.entries]
        assert reasons == ["PlatformFee", "CreatorReward"]
        ledger.audit()

    def test_zero_lambda_no_entries(self):
        f, p, creator, c, ledger, catalog, scores, feeds = \
            one_community_world(lambda_c=0.0)
        settle_round(0, feeds, f, catalog, {}, {},
                     EconParams(default_price_per_lambda_impression=1.0), ledger)
        assert ledger.entries == []

    def test_remainder_goes_to_creator_pool(self):
        f, p, creator, c, ledger, catalog, scores, feeds = one_community_world()
        params = EconParams(platform_fee=0.2, creator_share=0.5,
                            default_price_per_lambda_impression=1.0)
        settle_round(0, feeds, f, catalog, {}, {}, params, ledger)
        assert ledger.balance(PLATFORM) == pytest.approx(0.2)
        assert ledger.balance(("citizen", creator)) == pytest.approx(0.5)
        assert ledger.balance(creator_pool(c)) == pytest.approx(0.3)
        ledger.audit()

    def test_citizen_sponsor_books_subscription(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=1.0, subscriber=True)
        creator = f.add_citizen()
        c = f.add_community(lambda_=0.0)
        f.add_membership(p, c, 1.0, 1.0)
        f.add_membership(creator, c, 1.0, 1.0)
        ledger = Ledger()
        ledger.open_account(("citizen", p), 10.0)
        catalog = {0: ContentItem(id=0, creator=creator, target_communities={c})}
        cards = []
        cards.append(ScoreCard(content=0, scope=("citizen", p), iota=1.0, beta=0.5,
                               delta=0.0, psi=0.5))
        scores = ScoreSet.of(cards)
        feeds = feeds_table({p: [(0, 1.0)]}, f, scores)
        settle_round(0, feeds, f, catalog, {}, {},
                     EconParams(default_price_per_lambda_impression=1.0), ledger)
        assert [e.reason for e in ledger.entries] == ["Subscription", "CreatorReward"]
        assert ledger.balance(("citizen", p)) == pytest.approx(9.0)

    def test_nonsubscriber_citizen_never_charged(self):
        f = SocialFabric()
        p = f.add_citizen(lambda_=1.0, subscriber=False)
        creator = f.add_citizen()
        c = f.add_community(lambda_=0.0)
        f.add_membership(p, c, 1.0, 1.0)
        f.add_membership(creator, c, 1.0, 1.0)
        ledger = Ledger()
        catalog = {0: ContentItem(id=0, creator=creator, target_communities={c})}
        cards = []
        cards.append(ScoreCard(content=0, scope=("citizen", p), iota=1.0, beta=0.5,
                               delta=0.0, psi=0.5))
        scores = ScoreSet.of(cards)
        feeds = feeds_table({p: [(0, 1.0)]}, f, scores)
        settle_round(0, feeds, f, catalog, {}, {},
                     EconParams(default_price_per_lambda_impression=1.0), ledger)
        assert ledger.entries == []

    def test_insufficient_funds_clamps_lambda(self):
        f, p, creator, c, ledger, catalog, scores, feeds = \
            one_community_world(balance=0.4)
        events = settle_round(0, feeds, f, catalog, {}, {},
                              EconParams(default_price_per_lambda_impression=1.0), ledger)
        assert any(e["kind"] == "lambda_clamped" and e["owner"] == ("community", c)
                   for e in events)
        assert f.communities[c].lambda_ == 0.0
        assert ledger.balance(("community", c)) == pytest.approx(0.4)
        ledger.audit()  # nothing went negative

    def test_attribution_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        f = SocialFabric()
        p = f.add_citizen(lambda_=0.7, subscriber=True)
        c1 = f.add_community(lambda_=1.2)
        c2 = f.add_community(lambda_=0.8)
        f.add_membership(p, c1, 1.0, 1.3)
        f.add_membership(p, c2, 1.0, 0.7)
        cards = []
        for scope in (("citizen", p), ("community", c1), ("community", c2)):
            cards.append(ScoreCard(content=0, scope=scope, iota=1.0,
                                   beta=float(rng.uniform(0.2, 1)), delta=0.0,
                                   psi=float(rng.uniform(0.2, 1))))
        scores = ScoreSet.of(cards)
        ledger = Ledger()
        for owner in (("citizen", p), ("community", c1), ("community", c2)):
            ledger.open_account(owner, 10.0)
        catalog = {0: ContentItem(id=0, creator=p, target_communities={c1})}
        # price 1, share 1 and no fee or reward: each sponsor's fraction is
        # posted whole, as its pool remainder
        settle_round(0, feeds_table({p: [(0, 1.0)]}, f, scores), f, catalog, {}, {},
                     EconParams(platform_fee=0.0, creator_share=0.0,
                                default_price_per_lambda_impression=1.0), ledger)
        terms = shares(sponsor_terms(p, f, scores), scores.columns[0])
        assert len(terms) == 3
        assert [(e.from_owner, e.amount) for e in ledger.entries] == terms
        assert sum(frac for _, frac in terms) == pytest.approx(1.0, abs=1e-9)

    def test_zero_sum_random_scenario(self):
        rng = np.random.default_rng(4)
        f = SocialFabric()
        citizens = [f.add_citizen(lambda_=float(rng.uniform(0, 1)),
                                  subscriber=bool(rng.random() < 0.5))
                    for _ in range(6)]
        comms = [f.add_community(lambda_=float(rng.uniform(0, 2))) for _ in range(3)]
        for p in citizens:
            for c in rng.choice(comms, size=int(rng.integers(1, 3)), replace=False):
                f.add_membership(p, int(c), 1.0, float(rng.uniform(0.5, 2)))
        ledger = Ledger()
        for c in comms:
            ledger.open_account(("community", c), 50.0)
        for p in citizens:
            if f.citizens[p].subscriber:
                ledger.open_account(("citizen", p), 20.0)
        catalog = {m: ContentItem(id=m, creator=citizens[m % len(citizens)],
                                  target_communities={int(rng.choice(comms))})
                   for m in range(8)}
        cards = []
        for m in catalog:
            for c in comms:
                cards.append(ScoreCard(content=m, scope=("community", c), iota=1.0,
                                       beta=float(rng.uniform(0, 1)), delta=0.0,
                                       psi=float(rng.uniform(0, 1))))
            for p in citizens:
                cards.append(ScoreCard(content=m, scope=("citizen", p), iota=1.0,
                                       beta=0.5, delta=0.0, psi=float(rng.uniform(0, 1))))
        feeds = {}
        for p in citizens:
            pool = list(catalog)
            shares = rng.dirichlet(np.ones(len(pool)))
            feeds[p] = list(zip(pool, shares.tolist()))
        scores = ScoreSet.of(cards)
        settle_round(0, feeds_table(feeds, f, scores), f, catalog, {}, {},
                     EconParams(platform_fee=0.25, creator_share=0.6,
                                default_price_per_lambda_impression=0.5), ledger)
        # oracle: re-sum every entry from scratch
        debits = sum(e.amount for e in ledger.entries)
        credits = sum(e.amount for e in ledger.entries)
        assert debits == pytest.approx(credits, abs=1e-9)
        ledger.audit()
        assert ledger.entries, "expected sponsored flows"

    def test_creator_revenue_monotone_in_psi(self):
        def revenue(psi_value):
            f, p, creator, c, ledger, catalog, scores, feeds = \
                one_community_world()
            cards = []
            cards.append(ScoreCard(content=0, scope=("community", c), iota=1.0,
                                   beta=psi_value, delta=0.0, psi=psi_value))
            other = ContentItem(id=1, creator=p, target_communities={c})
            catalog[1] = other
            cards.append(ScoreCard(content=1, scope=("community", c), iota=1.0,
                                   beta=0.5, delta=0.0, psi=0.5))
            scores = ScoreSet.of(cards)
            feeds = feeds_table({p: [(0, 0.6), (1, 0.4)]}, f, scores)
            settle_round(0, feeds, f, catalog, {}, {},
                         EconParams(default_price_per_lambda_impression=1.0), ledger)
            return ledger.balance(("citizen", creator))

        assert revenue(0.9) >= revenue(0.5) >= revenue(0.2)


    def test_charges_follow_attribution(self):
        """Unclamped, each owner's charge for an entry is price * share * the
        owner's fraction of the attention numerator, posted as platform fee,
        creator reward and pool remainder in term order, and only owners with
        a positive term are charged."""
        f = SocialFabric()
        p = f.add_citizen(lambda_=0.6, subscriber=True)
        creator = f.add_citizen()
        c1 = f.add_community(lambda_=1.2)
        c2 = f.add_community(lambda_=0.7)
        for c, devotion in ((c1, 1.3), (c2, 0.7)):
            f.add_membership(p, c, 1.0, devotion)
            f.add_membership(creator, c, 1.0, 1.0)
        owners = [("citizen", p), ("community", c1), ("community", c2)]
        ledger = Ledger()
        for owner in owners:
            ledger.open_account(owner, 100.0)
        catalog = {m: ContentItem(id=m, creator=creator, target_communities={c1, c2})
                   for m in range(3)}
        psis = {0: (0.3, 0.8, 0.5), 1: (0.9, 0.1, 0.6), 2: (0.4, 0.7, 0.0)}
        cards = []
        for m, row in psis.items():
            for owner, psi in zip(owners, row):
                cards.append(ScoreCard(content=m, scope=owner, iota=1.0, beta=psi,
                                       delta=0.0, psi=psi))
        prices = {("community", c2): 1.5}
        params = EconParams(platform_fee=0.25, creator_share=0.6,
                            default_price_per_lambda_impression=0.8)
        scores = ScoreSet.of(cards)
        for m, share in ((0, 0.5), (1, 0.3), (2, 0.2)):
            fractions = shares(sponsor_terms(p, f, scores), scores.columns[m])
            want = []
            for owner, frac in fractions:
                charge = prices.get(owner, params.default_price_per_lambda_impression) \
                    * share * frac
                fee, reward = params.platform_fee * charge, params.creator_share * charge
                want += [(owner, fee), (owner, reward), (owner, charge - fee - reward)]
            start = len(ledger.entries)
            events = settle_round(0, feeds_table({p: [(m, share)]}, f, scores), f, catalog, prices, {},
                                  params, ledger)
            assert events == []
            assert [(e.from_owner, e.amount) for e in ledger.entries[start:]] == want
        assert ("community", c2) not in {owner for owner, _ in want}     # psi 0.0 on content 2
        ledger.audit()

    def test_clamp_mid_feed(self):
        """A sponsor that cannot pay is clamped at once: the citizen being
        settled keeps the terms read at the start of its feed (the clamped
        owner is skipped, the others keep their fractions), and citizens
        settled later no longer include it."""
        f = SocialFabric()
        p1 = f.add_citizen(lambda_=1.0, subscriber=True)
        p2 = f.add_citizen(lambda_=1.0, subscriber=True)
        creator = f.add_citizen()
        poor = f.add_community(lambda_=1.0)
        rich = f.add_community(lambda_=1.0)
        for p in (p1, p2, creator):
            for c in (poor, rich):
                f.add_membership(p, c, 1.0, 1.0)
        ledger = Ledger()
        for p in (p1, p2):
            ledger.open_account(("citizen", p), 100.0)
        ledger.open_account(("community", rich), 100.0)
        # Enough for p1's second entry (0.16) but not its first (0.24).
        ledger.open_account(("community", poor), 0.2)
        catalog = {m: ContentItem(id=m, creator=creator, target_communities={poor, rich})
                   for m in (0, 1)}
        cards = []
        for m in (0, 1):
            for scope, psi in ((("citizen", p1), 0.5), (("citizen", p2), 0.5),
                               (("community", poor), 1.0), (("community", rich), 0.5)):
                cards.append(ScoreCard(content=m, scope=scope, iota=1.0, beta=psi,
                                       delta=0.0, psi=psi))
        scores = ScoreSet.of(cards)
        feeds = feeds_table({p: [(0, 0.6), (1, 0.4)] for p in (p1, p2)}, f, scores)
        # numerator terms 0.5 (citizen), 0.5 (poor), 0.25 (rich) per content
        assert shares(sponsor_terms(p1, f, scores), scores.columns[0]) == [
            (("citizen", p1), 0.4), (("community", poor), 0.4), (("community", rich), 0.2)]

        events = settle_round(0, feeds, f, catalog, {}, {},
                              EconParams(platform_fee=0.25, creator_share=0.6,
                                         default_price_per_lambda_impression=1.0), ledger)
        assert events == [{"round": 0, "kind": "lambda_clamped",
                           "owner": ("community", poor)}]
        assert f.communities[poor].lambda_ == 0.0
        assert ledger.balance(("community", poor)) == 0.2     # skipped on the 2nd entry
        assert shares(sponsor_terms(p2, f, scores), scores.columns[0]) == [
            (("citizen", p2), 2 / 3), (("community", rich), 1 / 3)]
        charged: dict = {}
        for e in ledger.entries:
            charged[e.from_owner] = charged.get(e.from_owner, 0.0) + e.amount
        assert charged == pytest.approx({
            ("citizen", p1): 0.6 * 0.4 + 0.4 * 0.4,
            ("citizen", p2): 0.6 * 2 / 3 + 0.4 * 2 / 3,
            ("community", rich): 0.6 * 0.2 + 0.4 * 0.2 + 0.6 / 3 + 0.4 / 3,
        }, rel=1e-12)
        ledger.audit()


class TestAdvertising:
    def _world(self):
        f = SocialFabric()
        p = f.add_citizen(accepts_personal_ads=True)
        c = f.add_community(lambda_=1.0, admin_registered=True)
        f.add_membership(p, c, 1.0, 1.0)
        adv = Advertiser(id=0,
                         deals=[AdDealConfig(community=c, price_per_impression=2.0,
                                             accepted=True)],
                         personal_targeting=True, personal_price=0.5)
        ledger = Ledger()
        ledger.open_account(("advertiser", 0), 10.0)
        ledger.open_account(("community", c), 0.0)
        catalog = {0: ContentItem(id=0, creator=0, target_communities={c},
                                  creator_kind="advertiser")}
        feeds = Feeds.of({p: [(0, 0.5, (0.0, 0.0))]})     # an ad's terms are not read
        return f, p, c, adv, ledger, catalog, feeds

    def test_ad_impressions_pay_community_and_citizen(self):
        f, p, c, adv, ledger, catalog, feeds = self._world()
        settle_round(0, feeds, f, catalog, {}, {0: adv},
                     EconParams(), ledger)
        reasons = sorted(e.reason for e in ledger.entries)
        assert reasons == ["AdImpression", "AdImpression"]
        assert ledger.balance(("community", c)) == pytest.approx(1.0)   # 2.0 * 0.5
        assert ledger.balance(("citizen", p)) == pytest.approx(0.25)    # 0.5 * 0.5
        assert ledger.balance(("advertiser", 0)) == pytest.approx(8.75)
        ledger.audit()

    def test_budget_cap_skips_payment(self):
        f, p, c, adv, ledger, catalog, feeds = self._world()
        drained = Ledger()
        drained.open_account(("advertiser", 0), 0.1)
        drained.open_account(("community", c), 0.0)
        events = settle_round(0, feeds, f, catalog, {},
                              {0: adv}, EconParams(), drained)
        assert any(e["kind"] == "ad_skipped" for e in events)
        assert drained.balance(("advertiser", 0)) >= 0
        drained.audit()

    def test_payment_rounding_to_zero_is_not_made(self):
        """A share so small that the personal-ad payment 0.4 * 5e-324 rounds
        to 0.0: that payment is not made and no event is emitted, while the
        deal payment 2.0 * 5e-324, which does not round to 0.0, is posted."""
        f, p, c, adv, ledger, catalog, _ = self._world()
        adv.personal_price = 0.4
        assert adv.personal_price * 5e-324 == 0.0 < 2.0 * 5e-324
        events = settle_round(0, Feeds.of({p: [(0, 5e-324, (0.0, 0.0))]}), f, catalog, {},
                              {0: adv}, EconParams(), ledger)
        assert events == []
        assert [(e.from_owner, e.to_owner, e.amount, e.reason) for e in ledger.entries] == [
            (("advertiser", 0), ("community", c), 2.0 * 5e-324, "AdImpression")]
        ledger.audit()

    def test_sell_standing_flow(self):
        f, p, c, adv, ledger, catalog, feeds = self._world()
        sell_standing(adv, c, amount=0.3, price=4.0, ledger=ledger, fabric=f)
        assert adv.seeding_allowance[c] == pytest.approx(0.3)
        assert ledger.balance(("community", c)) == pytest.approx(4.0)
        assert ledger.balance(("advertiser", 0)) == pytest.approx(6.0)
        assert ledger.entries[-1].reason == "StandingPurchase"

    def test_sell_standing_guards(self):
        f, p, c, adv, ledger, catalog, feeds = self._world()
        f.communities[c].admin_registered = False
        with pytest.raises(Unregistered):
            sell_standing(adv, c, 0.1, 1.0, ledger, f)
        f.communities[c].admin_registered = True
        with pytest.raises(InsufficientFunds):
            sell_standing(adv, c, 0.1, 100.0, ledger, f)
        with pytest.raises(NotFound):
            sell_standing(adv, 99, 0.1, 1.0, ledger, f)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_sell_standing_rejects_non_finite_amount(self, amount):
        # a NaN allowance would never run short in seed_content
        f, p, c, adv, ledger, catalog, feeds = self._world()
        with pytest.raises(ValueError, match="finite"):
            sell_standing(adv, c, amount, 1.0, ledger, f)
        assert adv.seeding_allowance == {}
        assert ledger.balance(("advertiser", 0)) == 10.0


class TestRewardStanding:
    def _world(self):
        f = SocialFabric()
        creator = f.add_citizen()
        other = f.add_citizen()
        c = f.add_community()
        f.add_membership(creator, c, 1.0, 1.0)
        f.add_membership(other, c, 1.0, 1.0)
        catalog = {0: ContentItem(id=0, creator=creator, target_communities={c})}
        return f, creator, other, c, catalog

    def test_zero_psi_no_change(self):
        f, creator, other, c, catalog = self._world()
        cards = []
        cards.append(ScoreCard(content=0, scope=("community", c), iota=0.0, beta=0.5,
                               delta=0.0, psi=0.0))
        scores = ScoreSet.of(cards)
        reward_standing(scores, f, 0.1, catalog)
        assert f.standings(c)[creator] == pytest.approx(0.5)

    def test_creator_gains_other_loses(self):
        f, creator, other, c, catalog = self._world()
        cards = []
        cards.append(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=0.8,
                               delta=0.0, psi=0.8))
        scores = ScoreSet.of(cards)
        reward_standing(scores, f, 0.5, catalog)
        standings = f.standings(c)
        assert standings[creator] > 0.5
        assert standings[other] < 0.5
        assert standings[creator] + standings[other] == pytest.approx(1.0)

    def test_increments_proportional_to_psi(self):
        f, creator, other, c, catalog = self._world()
        catalog[1] = ContentItem(id=1, creator=other, target_communities={c})
        cards = []
        cards.append(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=0.8,
                               delta=0.0, psi=0.8))
        cards.append(ScoreCard(content=1, scope=("community", c), iota=1.0, beta=0.4,
                               delta=0.0, psi=0.4))
        scores = ScoreSet.of(cards)
        reward_standing(scores, f, 0.5, catalog)
        assert f.raw_standing(creator, c) - 1.0 == pytest.approx(2 * (f.raw_standing(other, c) - 1.0))

    def test_matches_walk_over_all_cards_sorted(self):
        """reward_standing walks one community scope at a time; the standings
        must equal, with ==, those of a walk over every card sorted by
        (content, scope)."""
        f = SocialFabric()
        creator, other, outsider = f.add_citizen(), f.add_citizen(), f.add_citizen()
        a, b = f.add_community(), f.add_community()
        for p in (creator, other):
            for c in (a, b):
                f.add_membership(p, c, 1.0, 1.0)
        f.add_membership(outsider, b, 1.0, 1.0)
        catalog = {}
        cards = []
        # Several contents of one creator in both communities; summing these
        # psi values in another order gives other floats.
        psis = [1 / 3, 0.7, 1 / 7, 0.3, 1e-3, 2 / 9]
        for m, psi in enumerate(psis):
            catalog[m] = ContentItem(id=m, creator=creator, target_communities={a, b})
            for c, scale in ((a, 1.0), (b, 0.3)):
                cards.append(ScoreCard(content=m, scope=("community", c), iota=1.0, beta=psi,
                                       delta=0.0, psi=psi * scale))
            cards.append(ScoreCard(content=m, scope=("citizen", other), iota=1.0, beta=0.5,
                                   delta=0.0, psi=0.5))
        catalog[6] = ContentItem(id=6, creator=other, target_communities={a})
        catalog[7] = ContentItem(id=7, creator=outsider, target_communities={a})
        catalog[8] = ContentItem(id=8, creator=0, target_communities={b},
                                 creator_kind="advertiser")
        for m in (6, 7, 8):
            cards.append(ScoreCard(content=m, scope=("community", a if m < 8 else b),
                                   iota=1.0, beta=0.9, delta=0.0, psi=0.9))
        cards.append(ScoreCard(content=9, scope=("community", a), iota=1.0, beta=0.9,
                               delta=0.0, psi=0.9))          # not in the catalog
        cards.append(ScoreCard(content=0, scope=("community", 17), iota=1.0, beta=0.9,
                               delta=0.0, psi=0.9))          # community not in the fabric
        scores = ScoreSet.of(cards)

        reference = copy.deepcopy(f)
        for (m, scope) in sorted(scores.cards):
            card = scores.cards[(m, scope)]
            if scope[0] != "community" or card.psi <= 0 or m not in catalog:
                continue
            content = catalog[m]
            comm = reference.communities.get(scope[1])
            if content.creator_kind != "citizen" or comm is None \
                    or content.creator not in comm.members:
                continue
            reference.update_standing(content.creator, scope[1], card.psi)

        reward_standing(scores, f, 1.0, catalog)
        for p in (creator, other, outsider):
            for c in f.citizens[p].memberships:
                assert f.raw_standing(p, c) == reference.raw_standing(p, c), (p, c)
        reversed_walk = 1.0
        for psi in reversed(psis):
            reversed_walk += psi
        assert reference.raw_standing(creator, a) != reversed_walk


# -- the batched settlement against the entry walk ----------------------------------

SMALL = st.sampled_from([1.0, 0.2, 100.0, 0.05, 0.01, 0.0])
PSI = st.sampled_from([0.5, 1.0, 0.1, 0.0]) | st.floats(0.0, 1.0)
SHARE = st.sampled_from([0.5, 0.1, 0.0]) | st.floats(0.0, 1.0)


@st.composite
def settle_worlds(draw):
    """A fabric with subscribers and overlapping communities, advertisers
    with deals and personal ads, a psi view, a feed table, prices and opening
    balances small enough to clamp sponsors and skip ad payments."""
    f = SocialFabric()
    n_comms = draw(st.integers(1, 3))
    comms = [f.add_community(lambda_=draw(st.sampled_from([1.0, 0.5, 2.0, 0.0])))
             for _ in range(n_comms)]
    citizens = [f.add_citizen(lambda_=draw(st.sampled_from([1.0, 0.7, 0.0])),
                              subscriber=draw(st.sampled_from([True, True, False])),
                              accepts_personal_ads=draw(st.sampled_from([True, False])))
                for _ in range(draw(st.integers(2, 5)))]
    for p in citizens:
        for c in draw(st.sets(st.sampled_from(comms), min_size=1)):
            f.add_membership(p, c, 1.0, draw(st.sampled_from([0.3, 1.0, 1.7])))
    advertisers = {}
    for aid in range(draw(st.integers(0, 2))):
        deals = [AdDealConfig(community=c,
                              price_per_impression=draw(st.sampled_from([0.3, 2.0, 0.0])),
                              accepted=draw(st.sampled_from([True, True, False])))
                 for c in sorted(draw(st.sets(st.sampled_from(comms + [99]), min_size=1)),
                                 reverse=True)]
        advertisers[aid] = Advertiser(id=aid, deals=deals,
                                      personal_targeting=draw(st.sampled_from([True, False])),
                                      personal_price=draw(st.sampled_from([0.4, 0.0])))
    catalog = {}
    for m in range(draw(st.integers(2, 6))):
        targets = draw(st.sets(st.sampled_from(comms + [99]), min_size=1))
        if draw(st.integers(0, 3)) == 0:
            catalog[m] = ContentItem(id=m, creator=draw(st.integers(0, 2)),
                                     target_communities=targets, creator_kind="advertiser")
        else:
            catalog[m] = ContentItem(id=m, creator=draw(st.sampled_from(citizens)),
                                     target_communities=targets)
    scopes = [("citizen", p) for p in citizens] + [("community", c) for c in comms]
    cards = [ScoreCard(content=m, scope=scope, iota=1.0, beta=0.5, delta=0.0, psi=draw(PSI))
             for m in catalog for scope in scopes if draw(st.integers(0, 3))]
    scores = ScoreSet.of(cards, contents=catalog)
    feeds = {p: draw(st.lists(st.tuples(st.sampled_from(sorted(catalog)), SHARE),
                              min_size=1, max_size=6, unique_by=lambda e: e[0]))
             for p in citizens if draw(st.integers(0, 4))}
    prices = {("community", c): draw(st.sampled_from([0.5, 3.0]))
              for c in draw(st.sets(st.sampled_from(comms)))}
    params = EconParams(platform_fee=draw(st.sampled_from([0.1, 0.25, 0.0])),
                        creator_share=draw(st.sampled_from([0.6, 0.75, 0.0])),
                        default_price_per_lambda_impression=draw(st.sampled_from([1.0, 2.5, 0.0])))
    openings = [(owner, draw(SMALL)) for owner in
                [("community", c) for c in comms]
                + [("citizen", p) for p in citizens if f.citizens[p].subscriber]]
    openings += [(("advertiser", aid), draw(st.sampled_from([0.5, 0.05, 5.0, 0.0])))
                 for aid in advertisers]
    return f, catalog, scores, feeds, prices, advertisers, params, openings


def _settled(world, walk=False):
    """Two rounds of `settle_round`, or of the walk, over a copy of the world:
    its ledger, events and lambdas. Each round's table carries the terms its
    ranking would read off the fabric. Neither settlement raises, also where
    a payment rounds to 0.0."""
    f, catalog, scores, feeds, prices, advertisers, params, openings = copy.deepcopy(world)
    settle = functools.partial(settle_walk, psi_view=scores) if walk else settle_round
    ledger = Ledger()
    for owner, balance in openings:
        ledger.open_account(owner, balance)
    events = [settle(round_, feeds_table(feeds, f, scores), f, catalog, prices, advertisers,
                     params, ledger) for round_ in (0, 1)]
    lambdas = [(p, c.lambda_) for p, c in f.citizens.items()] + \
        [(c, comm.lambda_) for c, comm in f.communities.items()]
    return ledger, events, lambdas


def test_settle_round_equals_the_entry_walk():
    """Batched settlement gives the walk's ledger rows (as OwnerRefs), balance
    bits, events in order and lambdas, over worlds where sponsors clamp, ads
    are skipped and creators sponsor their own impressions, and whatever
    the most entries priced at once."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(settle_worlds(), st.sampled_from([econ._BLOCK_ENTRIES, 1, 2, 3]))
    def check(world, block_entries):
        with mock.patch.object(econ, "_BLOCK_ENTRIES", block_entries):
            got = _settled(world)
        want = _settled(world, walk=True)
        (ledger, events, lambdas), (want_ledger, want_events, want_lambdas) = got, want
        assert ledger.entries == want_ledger.entries
        owners = set(ledger.owners) | set(want_ledger.owners)
        assert {o: repr(ledger.balance(o)) for o in owners} == \
            {o: repr(want_ledger.balance(o)) for o in owners}
        assert events == want_events
        assert lambdas == want_lambdas
        ledger.audit()
        seen.update(e["kind"] for round_events in events for e in round_events)
        entries = ledger.entries
        if any(e.reason == "Subscription" for e in entries):
            seen.add("subscriber")
        if any(e.reason == "AdImpression" for e in entries):
            seen.add("ad paid")
        _, catalog, _, feeds, _, _, _, _ = world
        own = {p for p, feed in feeds.items() for m, _ in feed
               if catalog[m].creator_kind == "citizen" and catalog[m].creator == p}
        if any(e.reason == "Subscription" and e.from_owner[1] in own for e in entries):
            seen.add("self-sponsored")

    check()
    assert seen >= {"lambda_clamped", "ad_skipped", "subscriber", "ad paid", "self-sponsored"}
