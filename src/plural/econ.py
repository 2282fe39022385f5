"""The sponsorship economy: pay-per-impression settlement over feeds.

Money flows from sponsors (communities paying for coherence, subscriber
citizens paying for integrity, advertisers paying for reach) to the platform
and to content creators. Every transfer is a double-entry ledger posting, so
per-round conservation is auditable, and no account may go negative: a
sponsor that cannot cover a charge has its algorithmic weight lambda, which
the scenario sets and nothing else changes, clamped to zero for the rest of
the run instead.

Account owners are ("citizen", id), ("community", id), ("advertiser", id),
("platform", 0) or ("creator_pool", community_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from ._sum import left_sum
from .config import FUNDS_TOL, AdDealConfig, EconParams
from .errors import InsufficientFunds, NotFound, Unregistered
from .rank import Feeds, attention_terms

OwnerRef = tuple[str, int]

PLATFORM: OwnerRef = ("platform", 0)

# One attention numerator term: its owner, weight and psi column.
SponsorTerm = tuple[OwnerRef, float, Mapping[int, float]]

REASONS = ("ImpressionSponsorship", "Subscription", "AdImpression",
           "CreatorReward", "PlatformFee", "StandingPurchase")

LEDGER_CSV_HEADER = ["round", "from_kind", "from_id", "to_kind", "to_id", "amount", "reason"]
LEDGER_CSV_HEAD = ",".join(LEDGER_CSV_HEADER) + "\n"


def creator_pool(community: int) -> OwnerRef:
    return ("creator_pool", community)


@dataclass(slots=True)
class LedgerEntry:
    round: int
    from_owner: OwnerRef
    to_owner: OwnerRef
    amount: float
    reason: str


# A ledger's rows as parallel columns: round, from, to, amount and reason.
LedgerRows = tuple[list[int], list[OwnerRef], list[OwnerRef], list[float], list[str]]


def _net_into(totals: dict[OwnerRef, float], from_owners: Sequence[OwnerRef],
              to_owners: Sequence[OwnerRef], amounts: Sequence[float]) -> None:
    """Add each row's amount to its payee's total and take it from its payer's,
    in row order."""
    for from_owner, to_owner, amount in zip(from_owners, to_owners, amounts):
        totals[from_owner] = totals.get(from_owner, 0.0) - amount
        totals[to_owner] = totals.get(to_owner, 0.0) + amount


class _OwnerFields(dict):
    """Each owner's "kind,id" CSV fields, formatted once."""

    def __missing__(self, owner: OwnerRef) -> str:
        value = self[owner] = f"{owner[0]},{owner[1]}"
        return value


def csv_rows(rows: LedgerRows) -> Iterator[str]:
    """ledger.csv lines of `rows`, no header. No field needs CSV quoting: ids
    and rounds are ints, amounts float reprs (`float.__repr__`, so a numpy
    scalar prints as a plain number), kinds and reasons plain words."""
    owner = _OwnerFields()
    for round_, from_owner, to_owner, amount, reason in zip(*rows):
        yield (f"{round_},{owner[from_owner]},{owner[to_owner]},{float.__repr__(amount)},"
               f"{reason}\n")


class Ledger:
    """Append-only account book. Amounts are positive; entries are two-sided.

    Postings are held as parallel columns: round, from, to, amount and
    reason. `entries` is a view of them as LedgerEntry rows, built when read;
    assigning it replaces the columns. `drain` hands the held rows out and
    keeps only their net amount per owner, which `audit` adds back.
    """

    def __init__(self) -> None:
        self._rounds: list[int] = []
        self._from: list[OwnerRef] = []
        self._to: list[OwnerRef] = []
        self._amounts: list[float] = []
        self._reasons: list[str] = []
        self._balances: dict[OwnerRef, float] = {}
        self._initial: dict[OwnerRef, float] = {}
        self._drained: dict[OwnerRef, float] = {}   # net amount of drained rows

    @property
    def entries(self) -> list[LedgerEntry]:
        return list(map(LedgerEntry, self._rounds, self._from, self._to, self._amounts,
                        self._reasons))

    @entries.setter
    def entries(self, entries) -> None:
        rows = [(e.round, e.from_owner, e.to_owner, e.amount, e.reason) for e in entries]
        self._rounds, self._from, self._to, self._amounts, self._reasons = \
            (list(col) for col in zip(*rows)) if rows else ([], [], [], [], [])

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
        balances = self._balances
        if from_owner not in balances:
            self._ensure(from_owner)
        if to_owner not in balances:
            self._ensure(to_owner)
        have = balances[from_owner]
        if have + FUNDS_TOL < amount:
            raise InsufficientFunds(f"{from_owner} balance {have:.6g} < {amount:.6g}")
        balances[from_owner] = have - amount
        balances[to_owner] += amount
        self._rounds.append(round_)
        self._from.append(from_owner)
        self._to.append(to_owner)
        self._amounts.append(amount)
        self._reasons.append(reason)

    def drain(self) -> LedgerRows:
        """The rows posted since the last drain, as (round, from, to, amount,
        reason) columns, and no longer held. Balances stay, and each owner's
        net drained amount is kept for `audit`."""
        rows = (self._rounds, self._from, self._to, self._amounts, self._reasons)
        _net_into(self._drained, self._from, self._to, self._amounts)
        self._rounds, self._from, self._to, self._amounts, self._reasons = [], [], [], [], []
        return rows

    def audit(self, tol: float = 1e-9) -> None:
        """Check conservation, then recompute balances from the opening
        balances and every posted amount, drained or held, and check them and
        their positivity.

        Conservation: balances sum to the opening balances, to within `tol`
        relative to that total (each posting may round both balances).
        """
        opening = math.fsum(self._initial.values())
        assert abs(math.fsum(self._balances.values()) - opening) <= tol * max(1.0, opening), \
            "money not conserved: balances do not sum to the opening balances"
        recomputed = dict(self._initial)
        for owner, net in self._drained.items():
            recomputed[owner] = recomputed.get(owner, 0.0) + net
        _net_into(recomputed, self._from, self._to, self._amounts)
        for owner, bal in self._balances.items():
            assert abs(bal - recomputed.get(owner, 0.0)) <= tol, \
                f"balance drift on {owner}"
            assert bal >= -tol, f"negative balance on {owner}"

    def csv_lines(self) -> Iterator[str]:
        """ledger.csv lines of the held rows, header first."""
        yield LEDGER_CSV_HEAD
        yield from csv_rows((self._rounds, self._from, self._to, self._amounts,
                             self._reasons))

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


# A consented advertiser deal: the scenario's own record, under its econ name.
AdDeal = AdDealConfig


@dataclass
class Advertiser:
    """An advertiser's terms; its budget is its ledger account."""

    id: int
    deals: list[AdDeal] = field(default_factory=list)
    personal_targeting: bool = False
    personal_price: float = 0.0
    seeding_allowance: dict[int, float] = field(default_factory=dict)


def _sponsor_terms(citizen: int, fabric, psi_view) -> list[SponsorTerm]:
    """The citizen's attention numerator terms with a positive weight, each
    with its owner's psi column."""
    return [(owner, w, psi_view.column(owner))
            for owner, w in attention_terms(citizen, fabric) if w > 0]


def _shares(terms: Sequence[SponsorTerm], content: int) -> list[tuple[OwnerRef, float]]:
    """Each owner's fraction of the content's attention numerator, over the
    owners whose term is positive; empty when the numerator is not."""
    values = [w * col.get(content, 0.0) for _, w, col in terms]
    total = left_sum(values)
    if total <= 0:
        return []
    return [(term[0], v / total) for term, v in zip(terms, values) if v > 0]


def attribute_entry(citizen: int, content: int, fabric, psi_view) -> list[tuple[OwnerRef, float]]:
    """Sponsor attribution for one feed entry.

    Each numerator term's owner gets the fraction of the entry's attention
    its term contributed. Fractions sum to 1; an all-zero numerator (uniform
    fallback or exploration slot) has no sponsors.
    """
    return _shares(_sponsor_terms(citizen, fabric, psi_view), content)


def settle_round(round_: int, feeds: Feeds, fabric, catalog,
                 psi_view, prices: Mapping[OwnerRef, float],
                 advertisers: Mapping[int, Advertiser],
                 params: EconParams, ledger: Ledger) -> list[dict]:
    """Charge sponsors for the round's feed table, in its order; pay creators.

    Citizen-and-community sponsored impressions split three ways straight
    from the sponsor: platform fee (PlatformFee; Subscription when the
    sponsor is a citizen), creator share (CreatorReward), and any remainder
    into the context community's creator pool (ImpressionSponsorship).
    Advertiser-created content settles only through deal payments
    (AdImpression): advertisers pay the targeted community, and opted-in
    citizens directly, per unit of attention. Sponsors' shares come from
    `psi_view.column(scope)` (ScoreSet or EffectivePsi). A sponsor's price
    per lambda-weighted impression is `prices[owner]`, else
    `params.default_price_per_lambda_impression`. Lambdas are the scenario's,
    read from the fabric; a sponsor that cannot cover a charge has its lambda
    set to 0.0 there at once, for the rest of the run.

    Returns the event log (lambda clamps, skipped ad payments).
    """
    events: list[dict] = []
    clamped: set[OwnerRef] = set()
    post, balance = ledger.post, ledger.balance

    # Each sponsor's price per lambda-weighted impression, read once; None
    # for the ad-funded-only citizens, who are never charged.
    owner_prices: dict[OwnerRef, Optional[float]] = {}

    def pay_ad(adv: Advertiser, to_owner: OwnerRef, amount: float) -> None:
        if balance(("advertiser", adv.id)) + FUNDS_TOL < amount:
            events.append({"round": round_, "kind": "ad_skipped",
                           "owner": ("advertiser", adv.id)})
        else:
            post(round_, ("advertiser", adv.id), to_owner, amount, "AdImpression")

    last = None
    for citizen, mid, share in zip(feeds.citizen.tolist(), feeds.content.tolist(),
                                   feeds.share.tolist()):
        # The citizen's terms are read once, before its entries settle. A
        # clamp zeroes the owner's lambda in the fabric at once, so citizens
        # settled after it no longer include it; entries before a citizen's
        # first sponsored one change no lambda or devotion.
        if citizen != last:
            last, terms = citizen, _sponsor_terms(citizen, fabric, psi_view)
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
                pay_ad(adv, ("citizen", citizen), adv.personal_price * share)
            continue

        for owner, frac in _shares(terms, mid):
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
    if ledger.balance(("advertiser", advertiser.id)) + FUNDS_TOL < price:
        raise InsufficientFunds(
            f"advertiser {advertiser.id} balance cannot cover {price:.6g}")
    ledger.post(round_, ("advertiser", advertiser.id), ("community", community),
                price, "StandingPurchase")
    advertiser.seeding_allowance[community] = \
        advertiser.seeding_allowance.get(community, 0.0) + amount
