"""The sponsorship economy: pay-per-impression settlement over feeds.

Money flows from sponsors (communities paying for coherence, subscriber
citizens paying for integrity, advertisers paying for reach) to the platform
and to content creators. Every transfer is a double-entry ledger posting, so
per-round conservation is auditable, and no account may go negative: a
sponsor that cannot cover a charge has its algorithmic weight clamped to
zero for subsequent rounds instead.

Account owners are ("citizen", id), ("community", id), ("advertiser", id),
("platform", 0) or ("creator_pool", community_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .config import EconParams
from .errors import InsufficientFunds, NoAcceptedDeal, NotFound, Unregistered
from .rank import attention_terms

OwnerRef = tuple[str, int]

PLATFORM: OwnerRef = ("platform", 0)

REASONS = ("ImpressionSponsorship", "Subscription", "AdImpression",
           "CreatorReward", "PlatformFee", "StandingPurchase")

LEDGER_CSV_HEADER = ["round", "from_kind", "from_id", "to_kind", "to_id", "amount", "reason"]


def creator_pool(community: int) -> OwnerRef:
    return ("creator_pool", community)


@dataclass(slots=True)
class LedgerEntry:
    round: int
    from_owner: OwnerRef
    to_owner: OwnerRef
    amount: float
    reason: str


class Ledger:
    """Append-only account book. Amounts are positive; entries are two-sided."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self._balances: dict[OwnerRef, float] = {}
        self._initial: dict[OwnerRef, float] = {}

    def open_account(self, owner: OwnerRef, balance: float = 0.0) -> None:
        if owner in self._balances:
            raise ValueError(f"account {owner} already open")
        if balance < 0:
            raise ValueError("opening balance must be >= 0")
        self._balances[owner] = balance
        self._initial[owner] = balance

    def balance(self, owner: OwnerRef) -> float:
        return self._balances.get(owner, 0.0)

    def _ensure(self, owner: OwnerRef) -> None:
        if owner not in self._balances:
            self._balances[owner] = 0.0
            self._initial[owner] = 0.0

    def post(self, round_: int, from_owner: OwnerRef, to_owner: OwnerRef,
             amount: float, reason: str) -> None:
        if amount <= 0:
            raise ValueError("ledger amounts must be > 0")
        if from_owner == to_owner:
            raise ValueError("self-transfers are not allowed")
        if reason not in REASONS:
            raise ValueError(f"unknown reason {reason!r}")
        self._ensure(from_owner)
        self._ensure(to_owner)
        if self._balances[from_owner] + 1e-12 < amount:
            raise InsufficientFunds(
                f"{from_owner} balance {self._balances[from_owner]:.6g} < {amount:.6g}")
        self._balances[from_owner] -= amount
        self._balances[to_owner] += amount
        self.entries.append(LedgerEntry(round_, from_owner, to_owner, amount, reason))

    def audit(self, tol: float = 1e-9) -> None:
        """Check conservation, then recompute balances from entries and check
        them and their positivity.

        Conservation: balances sum to the opening balances, to within `tol`
        relative to that total (each posting may round both balances).
        """
        opening = math.fsum(self._initial.values())
        assert abs(math.fsum(self._balances.values()) - opening) <= tol * max(1.0, opening), \
            "money not conserved: balances do not sum to the opening balances"
        recomputed = dict(self._initial)
        for e in self.entries:
            recomputed[e.from_owner] = recomputed.get(e.from_owner, 0.0) - e.amount
            recomputed[e.to_owner] = recomputed.get(e.to_owner, 0.0) + e.amount
        for owner, bal in self._balances.items():
            assert abs(bal - recomputed.get(owner, 0.0)) <= tol, \
                f"balance drift on {owner}"
            assert bal >= -tol, f"negative balance on {owner}"

    def csv_lines(self) -> Iterator[str]:
        """ledger.csv lines, header first. No field needs CSV quoting: ids and
        rounds are ints, amounts float reprs, kinds and reasons plain words."""
        yield ",".join(LEDGER_CSV_HEADER) + "\n"
        for e in self.entries:
            (from_kind, from_id), (to_kind, to_id) = e.from_owner, e.to_owner
            yield (f"{e.round},{from_kind},{from_id},{to_kind},{to_id},"
                   f"{e.amount!r},{e.reason}\n")

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


@dataclass
class AdDeal:
    community: int
    price_per_impression: float
    accepted: bool = False


@dataclass
class Advertiser:
    id: int
    budget: float
    deals: list[AdDeal] = field(default_factory=list)
    personal_targeting: bool = False
    personal_price: float = 0.0
    seeding_allowance: dict[int, float] = field(default_factory=dict)

    def accepted_deal_with(self, community: int) -> Optional[AdDeal]:
        for d in self.deals:
            if d.community == community and d.accepted:
                return d
        return None


@dataclass
class LambdaPolicy:
    owner: OwnerRef
    lambda_: float = 0.0
    funding: str = "SelfPaid"              # SelfPaid | AdFunded
    price_per_lambda_impression: Optional[float] = None


class PolicyBook:
    """Lambda policies plus the pending changes that apply at round boundaries."""

    def __init__(self, default_price: float = 0.01) -> None:
        self.policies: dict[OwnerRef, LambdaPolicy] = {}
        self.pending: dict[OwnerRef, LambdaPolicy] = {}
        self.default_price = default_price

    def price_for(self, owner: OwnerRef) -> float:
        pol = self.policies.get(owner)
        if pol is not None and pol.price_per_lambda_impression is not None:
            return pol.price_per_lambda_impression
        return self.default_price

    def set_lambda(self, owner: OwnerRef, new_lambda: float, funding: str,
                   advertisers: Mapping[int, Advertiser], fabric) -> None:
        """Queue a weight change; it takes effect at the next round boundary.

        AdFunded owners must have at least one live advertiser arrangement:
        an accepted community deal, or for citizens an advertiser doing
        personal targeting while the citizen opts in.
        """
        if new_lambda < 0:
            raise ValueError("lambda must be >= 0")
        if funding not in ("SelfPaid", "AdFunded"):
            raise ValueError(f"unknown funding {funding!r}")
        if funding == "AdFunded":
            kind, oid = owner
            if kind == "community":
                if not any(a.accepted_deal_with(oid) for a in advertisers.values()):
                    raise NoAcceptedDeal(f"community {oid} has no accepted advertiser deal")
            elif kind == "citizen":
                citizen = fabric.citizens.get(oid)
                opted = citizen is not None and citizen.accepts_personal_ads
                if not (opted and any(a.personal_targeting for a in advertisers.values())):
                    raise NoAcceptedDeal(f"citizen {oid} has no active personal-ad arrangement")
            else:
                raise ValueError(f"{kind} cannot hold a lambda policy")
        old = self.policies.get(owner)
        price = old.price_per_lambda_impression if old else None
        self.pending[owner] = LambdaPolicy(owner, new_lambda, funding, price)

    def apply_pending(self, fabric) -> None:
        """Round boundary: copy queued weights into the live policy and fabric."""
        for owner in sorted(self.pending):
            self._set(owner, self.pending[owner], fabric)
        self.pending.clear()

    def clamp(self, owner: OwnerRef, fabric) -> None:
        """Zero out a sponsor that failed to pay, effective immediately for
        future rounds."""
        pol = self.policies.get(owner) or LambdaPolicy(owner)
        pol.lambda_ = 0.0
        self._set(owner, pol, fabric)

    def _set(self, owner: OwnerRef, pol: LambdaPolicy, fabric) -> None:
        """Make `pol` the live policy and copy its weight into the fabric."""
        self.policies[owner] = pol
        kind, oid = owner
        if kind == "citizen" and oid in fabric.citizens:
            fabric.citizens[oid].lambda_ = pol.lambda_
        elif kind == "community" and oid in fabric.communities:
            fabric.communities[oid].lambda_ = pol.lambda_


def attribute_entry(citizen: int, content: int, fabric, psi_view) -> list[tuple[OwnerRef, float]]:
    """Sponsor attribution for one feed entry.

    Each numerator term's owner gets the fraction of the entry's attention
    its term contributed. Fractions sum to 1; an all-zero numerator (uniform
    fallback or exploration slot) has no sponsors.
    """
    terms = [(owner, w * psi_view.psi(content, owner))
             for owner, w in attention_terms(citizen, fabric)]
    terms = [(owner, v) for owner, v in terms if v > 0]
    total = sum(v for _, v in terms)
    if total <= 0:
        return []
    return [(owner, v / total) for owner, v in terms]


def settle_round(round_: int, feeds: Mapping[int, Sequence], fabric, catalog,
                 psi_view, policies: PolicyBook, advertisers: Mapping[int, Advertiser],
                 params: EconParams, ledger: Ledger) -> list[dict]:
    """Charge sponsors for the round's attention and pay creators.

    Citizen-and-community sponsored impressions split three ways straight
    from the sponsor: platform fee (PlatformFee; Subscription when the
    sponsor is a citizen), creator share (CreatorReward), and any remainder
    into the context community's creator pool (ImpressionSponsorship).
    Advertiser-created content settles only through deal payments
    (AdImpression): advertisers pay the targeted community, and opted-in
    citizens directly, per unit of attention. Sponsors' shares come from
    `psi_view.column(scope)` (ScoreSet or EffectivePsi).

    Returns the event log (lambda clamps, skipped ad payments).
    """
    events: list[dict] = []
    clamped: set[OwnerRef] = set()

    def clamp(owner: OwnerRef) -> None:
        if owner in clamped:
            return
        policies.clamp(owner, fabric)
        clamped.add(owner)
        events.append({"round": round_, "kind": "lambda_clamped", "owner": owner})

    def pay_ad(adv: Advertiser, to_owner: OwnerRef, amount: float) -> None:
        if ledger.balance(("advertiser", adv.id)) + 1e-12 < amount:
            events.append({"round": round_, "kind": "ad_skipped",
                           "owner": ("advertiser", adv.id)})
        else:
            ledger.post(round_, ("advertiser", adv.id), to_owner, amount, "AdImpression")

    # A citizen's numerator coefficients are read at their first sponsored
    # entry and kept for the round, with each term's psi column. A clamp
    # zeroes the owner's lambda in the fabric at once, so citizens reached
    # after it no longer include it.
    term_cache: dict[int, list[tuple[OwnerRef, float, Mapping[int, float]]]] = {}

    def static_terms(citizen: int) -> list[tuple[OwnerRef, float, Mapping[int, float]]]:
        if citizen not in term_cache:
            term_cache[citizen] = [(owner, w, psi_view.column(owner))
                                   for owner, w in attention_terms(citizen, fabric) if w > 0]
        return term_cache[citizen]

    for citizen in sorted(feeds):
        for entry in sorted(feeds[citizen], key=lambda e: e.rank_position):
            content = catalog[entry.content]
            share = entry.exposure_share
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
                    pay_ad(adv, ("citizen", citizen), adv.personal_price * share)
                continue

            contributions = [(owner, w * col.get(entry.content, 0.0))
                             for owner, w, col in static_terms(citizen)]
            total = sum(v for _, v in contributions)
            if total <= 0:
                continue
            for owner, value in contributions:
                frac = value / total
                if frac <= 0:
                    continue
                kind, oid = owner
                if owner in clamped:
                    continue
                if kind == "citizen" and not fabric.citizens[oid].subscriber:
                    continue  # ad-funded-only citizens are never charged
                charge = policies.price_for(owner) * share * frac
                if charge <= 0:
                    continue
                if ledger.balance(owner) + 1e-12 < charge:
                    clamp(owner)
                    continue
                fee = params.platform_fee * charge
                reward = params.creator_share * charge
                remainder = charge - fee - reward
                pool_community = oid if kind == "community" \
                    else min(content.target_communities)
                if fee > 1e-15:
                    ledger.post(round_, owner, PLATFORM, fee,
                                "Subscription" if kind == "citizen" else "PlatformFee")
                # creators sponsoring their own impressions keep the share
                if reward > 1e-15 and owner != ("citizen", content.creator):
                    ledger.post(round_, owner, ("citizen", content.creator), reward,
                                "CreatorReward")
                if remainder > 1e-15:
                    ledger.post(round_, owner, creator_pool(pool_community), remainder,
                                "ImpressionSponsorship")
    return events


def reward_standing(scores, fabric, reward_rate: float, catalog) -> None:
    """Raise creators' raw standing by reward_rate * psi in each scoring community.

    Only citizen creators who are members of the community are rewarded;
    standings renormalize implicitly.
    """
    if reward_rate < 0:
        raise ValueError("reward_rate must be >= 0")
    if reward_rate == 0:
        return
    # Each update touches only the edge (creator, cid), and every update of
    # that edge comes from the scope ("community", cid). Walking each scope
    # in ascending content order therefore adds to every edge in the same
    # order as a walk over all cards sorted by (content, scope), so the
    # standings come out bit for bit the same.
    for cid in sorted(fabric.communities):
        members = fabric.communities[cid].members
        psi = scores.column(("community", cid))
        for content_id in sorted(psi):
            if psi[content_id] <= 0:
                continue
            content = catalog.get(content_id)
            if content is None or content.creator_kind != "citizen" \
                    or content.creator not in members:
                continue
            fabric.update_standing(content.creator, cid, reward_rate * psi[content_id])


def sell_standing(advertiser: Advertiser, community: int, amount: float,
                  price: float, ledger: Ledger, fabric, round_: int = 0) -> None:
    """Community representatives sell seeding allowance to an advertiser.

    Requires a registered administrator and sufficient advertiser funds; the
    payment lands in the community account, the allowance on the advertiser.
    """
    comm = fabric.communities.get(community)
    if comm is None:
        raise NotFound(f"unknown community {community}")
    if not comm.admin_registered:
        raise Unregistered(f"community {community} has no registered administrator")
    if amount <= 0 or price <= 0:
        raise ValueError("amount and price must be > 0")
    if ledger.balance(("advertiser", advertiser.id)) + 1e-12 < price:
        raise InsufficientFunds(
            f"advertiser {advertiser.id} balance cannot cover {price:.6g}")
    ledger.post(round_, ("advertiser", advertiser.id), ("community", community),
                price, "StandingPurchase")
    advertiser.seeding_allowance[community] = \
        advertiser.seeding_allowance.get(community, 0.0) + amount
