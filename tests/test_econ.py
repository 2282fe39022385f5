"""Economy: ledger discipline, settlement flows, standing rewards, and the
advertiser standing market."""

import copy

import numpy as np
import pytest

from plural.econ import (PLATFORM, AdDeal, Advertiser, EconParams, Ledger,
                         attribute_entry, creator_pool, reward_standing,
                         sell_standing, settle_round)
from plural.errors import InsufficientFunds, NotFound, Unregistered
from plural.fabric import SocialFabric
from plural.rank import Feeds
from plural.score import ContentItem, ScoreCard, ScoreSet


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
    scores = ScoreSet()
    scores.add(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=1.0,
                         delta=0.0, psi=1.0))
    feeds = Feeds.of({p: [(0, 1.0)]})
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
        ledger._balances[PLATFORM] += 1.0
        with pytest.raises(AssertionError, match="not conserved"):
            ledger.audit()

    def test_audit_catches_balance_drift(self):
        ledger = Ledger()
        ledger.open_account(("community", 0), 5.0)
        ledger.post(0, ("community", 0), PLATFORM, 1.0, "PlatformFee")
        # moved between accounts without a posting: the total still holds
        ledger._balances[("community", 0)] -= 0.5
        ledger._balances[PLATFORM] += 0.5
        with pytest.raises(AssertionError, match="balance drift"):
            ledger.audit()


class TestSettleRound:
    def test_single_flow_split(self):
        f, p, creator, c, ledger, catalog, scores, feeds = one_community_world()
        events = settle_round(0, feeds, f, catalog, scores, {}, {},
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
        settle_round(0, feeds, f, catalog, scores, {}, {},
                     EconParams(default_price_per_lambda_impression=1.0), ledger)
        assert ledger.entries == []

    def test_remainder_goes_to_creator_pool(self):
        f, p, creator, c, ledger, catalog, scores, feeds = one_community_world()
        params = EconParams(platform_fee=0.2, creator_share=0.5,
                            default_price_per_lambda_impression=1.0)
        settle_round(0, feeds, f, catalog, scores, {}, {}, params, ledger)
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
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("citizen", p), iota=1.0, beta=0.5,
                             delta=0.0, psi=0.5))
        feeds = Feeds.of({p: [(0, 1.0)]})
        settle_round(0, feeds, f, catalog, scores, {}, {},
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
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("citizen", p), iota=1.0, beta=0.5,
                             delta=0.0, psi=0.5))
        feeds = Feeds.of({p: [(0, 1.0)]})
        settle_round(0, feeds, f, catalog, scores, {}, {},
                     EconParams(default_price_per_lambda_impression=1.0), ledger)
        assert ledger.entries == []

    def test_insufficient_funds_clamps_lambda(self):
        f, p, creator, c, ledger, catalog, scores, feeds = \
            one_community_world(balance=0.4)
        events = settle_round(0, feeds, f, catalog, scores, {}, {},
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
        scores = ScoreSet()
        for scope in (("citizen", p), ("community", c1), ("community", c2)):
            scores.add(ScoreCard(content=0, scope=scope, iota=1.0,
                                 beta=float(rng.uniform(0.2, 1)), delta=0.0,
                                 psi=float(rng.uniform(0.2, 1))))
        terms = attribute_entry(p, 0, f, scores)
        assert terms, "expected sponsored terms"
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
        scores = ScoreSet()
        for m in catalog:
            for c in comms:
                scores.add(ScoreCard(content=m, scope=("community", c), iota=1.0,
                                     beta=float(rng.uniform(0, 1)), delta=0.0,
                                     psi=float(rng.uniform(0, 1))))
            for p in citizens:
                scores.add(ScoreCard(content=m, scope=("citizen", p), iota=1.0,
                                     beta=0.5, delta=0.0, psi=float(rng.uniform(0, 1))))
        feeds = {}
        for p in citizens:
            pool = list(catalog)
            shares = rng.dirichlet(np.ones(len(pool)))
            feeds[p] = list(zip(pool, shares.tolist()))
        settle_round(0, Feeds.of(feeds), f, catalog, scores, {}, {},
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
            scores = ScoreSet()
            scores.add(ScoreCard(content=0, scope=("community", c), iota=1.0,
                                 beta=psi_value, delta=0.0, psi=psi_value))
            other = ContentItem(id=1, creator=p, target_communities={c})
            catalog[1] = other
            scores.add(ScoreCard(content=1, scope=("community", c), iota=1.0,
                                 beta=0.5, delta=0.0, psi=0.5))
            feeds = Feeds.of({p: [(0, 0.6), (1, 0.4)]})
            settle_round(0, feeds, f, catalog, scores, {}, {},
                         EconParams(default_price_per_lambda_impression=1.0), ledger)
            return ledger.balance(("citizen", creator))

        assert revenue(0.9) >= revenue(0.5) >= revenue(0.2)


    def test_charges_follow_attribution(self):
        """Unclamped, each owner's charge for an entry (platform fee, creator
        reward and pool remainder together) is price * share * the owner's
        attribute_entry fraction, and only attributed owners are charged."""
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
        scores = ScoreSet()
        for m, row in psis.items():
            for owner, psi in zip(owners, row):
                scores.add(ScoreCard(content=m, scope=owner, iota=1.0, beta=psi,
                                     delta=0.0, psi=psi))
        prices = {("community", c2): 1.5}
        params = EconParams(platform_fee=0.25, creator_share=0.6,
                            default_price_per_lambda_impression=0.8)
        for m, share in ((0, 0.5), (1, 0.3), (2, 0.2)):
            fractions = dict(attribute_entry(p, m, f, scores))
            start = len(ledger.entries)
            events = settle_round(0, Feeds.of({p: [(m, share)]}), f, catalog, scores, prices, {},
                                  params, ledger)
            assert events == []
            charged: dict = {}
            for e in ledger.entries[start:]:
                charged[e.from_owner] = charged.get(e.from_owner, 0.0) + e.amount
            assert set(charged) == set(fractions)
            for owner, frac in fractions.items():
                expected = prices.get(owner, params.default_price_per_lambda_impression) \
                    * share * frac
                assert charged[owner] == pytest.approx(expected, rel=1e-12)
        assert ("community", c2) not in dict(attribute_entry(p, 2, f, scores))
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
        scores = ScoreSet()
        for m in (0, 1):
            for scope, psi in ((("citizen", p1), 0.5), (("citizen", p2), 0.5),
                               (("community", poor), 1.0), (("community", rich), 0.5)):
                scores.add(ScoreCard(content=m, scope=scope, iota=1.0, beta=psi,
                                     delta=0.0, psi=psi))
        feeds = Feeds.of({p: [(0, 0.6), (1, 0.4)] for p in (p1, p2)})
        # numerator terms 0.5 (citizen), 0.5 (poor), 0.25 (rich) per content
        assert dict(attribute_entry(p1, 0, f, scores)) == pytest.approx(
            {("citizen", p1): 0.4, ("community", poor): 0.4, ("community", rich): 0.2})

        events = settle_round(0, feeds, f, catalog, scores, {}, {},
                              EconParams(platform_fee=0.25, creator_share=0.6,
                                         default_price_per_lambda_impression=1.0), ledger)
        assert events == [{"round": 0, "kind": "lambda_clamped",
                           "owner": ("community", poor)}]
        assert f.communities[poor].lambda_ == 0.0
        assert ledger.balance(("community", poor)) == 0.2     # skipped on the 2nd entry
        assert dict(attribute_entry(p2, 0, f, scores)) == pytest.approx(
            {("citizen", p2): 2 / 3, ("community", rich): 1 / 3})
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
                         deals=[AdDeal(community=c, price_per_impression=2.0,
                                       accepted=True)],
                         personal_targeting=True, personal_price=0.5)
        ledger = Ledger()
        ledger.open_account(("advertiser", 0), 10.0)
        ledger.open_account(("community", c), 0.0)
        catalog = {0: ContentItem(id=0, creator=0, target_communities={c},
                                  creator_kind="advertiser")}
        feeds = Feeds.of({p: [(0, 0.5)]})
        return f, p, c, adv, ledger, catalog, feeds

    def test_ad_impressions_pay_community_and_citizen(self):
        f, p, c, adv, ledger, catalog, feeds = self._world()
        settle_round(0, feeds, f, catalog, ScoreSet(), {}, {0: adv},
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
        events = settle_round(0, feeds, f, catalog, ScoreSet(), {},
                              {0: adv}, EconParams(), drained)
        assert any(e["kind"] == "ad_skipped" for e in events)
        assert drained.balance(("advertiser", 0)) >= 0
        drained.audit()

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
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("community", c), iota=0.0, beta=0.5,
                             delta=0.0, psi=0.0))
        reward_standing(scores, f, 0.1, catalog)
        assert f.standing(creator, c) == pytest.approx(0.5)

    def test_creator_gains_other_loses(self):
        f, creator, other, c, catalog = self._world()
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=0.8,
                             delta=0.0, psi=0.8))
        reward_standing(scores, f, 0.5, catalog)
        assert f.standing(creator, c) > 0.5
        assert f.standing(other, c) < 0.5
        assert f.standing(creator, c) + f.standing(other, c) == pytest.approx(1.0)

    def test_increments_proportional_to_psi(self):
        f, creator, other, c, catalog = self._world()
        catalog[1] = ContentItem(id=1, creator=other, target_communities={c})
        scores = ScoreSet()
        scores.add(ScoreCard(content=0, scope=("community", c), iota=1.0, beta=0.8,
                             delta=0.0, psi=0.8))
        scores.add(ScoreCard(content=1, scope=("community", c), iota=1.0, beta=0.4,
                             delta=0.0, psi=0.4))
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
        scores = ScoreSet()
        # Several contents of one creator in both communities; summing these
        # psi values in another order gives other floats.
        psis = [1 / 3, 0.7, 1 / 7, 0.3, 1e-3, 2 / 9]
        for m, psi in enumerate(psis):
            catalog[m] = ContentItem(id=m, creator=creator, target_communities={a, b})
            for c, scale in ((a, 1.0), (b, 0.3)):
                scores.add(ScoreCard(content=m, scope=("community", c), iota=1.0, beta=psi,
                                     delta=0.0, psi=psi * scale))
            scores.add(ScoreCard(content=m, scope=("citizen", other), iota=1.0, beta=0.5,
                                 delta=0.0, psi=0.5))
        catalog[6] = ContentItem(id=6, creator=other, target_communities={a})
        catalog[7] = ContentItem(id=7, creator=outsider, target_communities={a})
        catalog[8] = ContentItem(id=8, creator=0, target_communities={b},
                                 creator_kind="advertiser")
        for m in (6, 7, 8):
            scores.add(ScoreCard(content=m, scope=("community", a if m < 8 else b),
                                 iota=1.0, beta=0.9, delta=0.0, psi=0.9))
        scores.add(ScoreCard(content=9, scope=("community", a), iota=1.0, beta=0.9,
                             delta=0.0, psi=0.9))          # not in the catalog
        scores.add(ScoreCard(content=0, scope=("community", 17), iota=1.0, beta=0.9,
                             delta=0.0, psi=0.9))          # community not in the fabric

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
