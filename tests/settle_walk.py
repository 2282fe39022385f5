"""Settlement entry by entry: the oracle `econ.settle_round` must equal.

This is the walk `settle_round` replaced. It settles the feed table one entry
at a time through `Ledger.post`, reading each citizen's attention terms at
its first entry and each sponsor's balance before each charge. The batched
settlement must give the same ledger rows, balance bits, events and lambdas.
It reads the terms off the fabric (`rank_walk.attention_terms`) and psi off
`psi_view`, not off the table's `terms`.
"""

from plural._sum import left_sum
from plural.config import FUNDS_TOL
from plural.econ import PLATFORM, creator_pool

from rank_walk import attention_terms


def sponsor_terms(citizen, fabric, psi_view):
    """The citizen's attention numerator terms with a positive weight, each
    with its owner's psi row."""
    return [(owner, w, psi_view.column(owner))
            for owner, w in attention_terms(citizen, fabric) if w > 0]


def shares(terms, at):
    """Each owner's fraction of the attention numerator of the content at
    position `at`, over the owners whose term is positive; empty when the
    numerator is not."""
    values = [w * row.item(at) for _, w, row in terms]
    total = left_sum(values)
    if total <= 0:
        return []
    return [(term[0], v / total) for term, v in zip(terms, values) if v > 0]


def settle_walk(round_, feeds, fabric, catalog, prices, advertisers, params, ledger, psi_view):
    """`settle_round`, one entry and one posting at a time."""
    events = []
    clamped = set()
    post, balance = ledger.post, ledger.balance
    owner_prices = {}

    def pay_ad(adv, to_owner, amount):
        if balance(("advertiser", adv.id)) + FUNDS_TOL < amount:
            events.append({"round": round_, "kind": "ad_skipped",
                           "owner": ("advertiser", adv.id)})
        else:
            post(round_, ("advertiser", adv.id), to_owner, amount, "AdImpression")

    last = None
    for citizen, mid, share in zip(feeds.citizen.tolist(), feeds.content.tolist(),
                                   feeds.share.tolist()):
        if citizen != last:
            last, terms = citizen, sponsor_terms(citizen, fabric, psi_view)
        content = catalog[mid]
        if share <= 0:
            continue

        if content.creator_kind == "advertiser":
            adv = advertisers.get(content.creator)
            if adv is None:
                continue
            for deal in sorted(adv.deals, key=lambda d: d.community):
                if not deal.accepted or deal.community not in content.target_communities:
                    continue
                comm = fabric.communities.get(deal.community)
                if comm is None or citizen not in comm.members:
                    continue
                amount = deal.price_per_impression * share
                if amount > 0:
                    pay_ad(adv, ("community", deal.community), amount)
            p = fabric.citizens[citizen]
            if adv.personal_targeting and p.accepts_personal_ads and adv.personal_price > 0:
                amount = adv.personal_price * share
                if amount > 0:
                    pay_ad(adv, ("citizen", citizen), amount)
            continue

        for owner, frac in shares(terms, psi_view.columns[mid]):
            if owner in clamped:
                continue
            kind, oid = owner
            if owner not in owner_prices:
                owner_prices[owner] = \
                    prices.get(owner, params.default_price_per_lambda_impression) \
                    if kind != "citizen" or fabric.citizens[oid].subscriber else None
            price = owner_prices[owner]
            if price is None:
                continue
            charge = price * share * frac
            if charge <= 0:
                continue
            if balance(owner) + FUNDS_TOL < charge:
                holders = fabric.citizens if kind == "citizen" else fabric.communities
                holders[oid].lambda_ = 0.0
                clamped.add(owner)
                events.append({"round": round_, "kind": "lambda_clamped", "owner": owner})
                continue
            fee = params.platform_fee * charge
            reward = params.creator_share * charge
            remainder = charge - fee - reward
            if fee > 1e-15:
                post(round_, owner, PLATFORM, fee,
                     "Subscription" if kind == "citizen" else "PlatformFee")
            # creators sponsoring their own impressions keep the share
            if reward > 1e-15 and owner != ("citizen", content.creator):
                post(round_, owner, ("citizen", content.creator), reward, "CreatorReward")
            if remainder > 1e-15:
                pool_community = oid if kind == "community" \
                    else min(content.target_communities)
                post(round_, owner, creator_pool(pool_community), remainder,
                     "ImpressionSponsorship")
    return events
