"""The sponsorship economy: pay-per-impression settlement over feeds.

Money flows from sponsors (communities paying for coherence, subscriber
citizens paying for integrity, advertisers paying for reach) to the platform
and to content creators. Every transfer is a double-entry ledger posting, so
per-round conservation is auditable, and no account may go negative: a
sponsor that cannot cover a charge has its algorithmic weight lambda, which
the scenario sets and nothing else changes, clamped to zero for the rest of
the run instead.

Account owners are ("citizen", id), ("community", id), ("advertiser", id),
("platform", 0) or ("creator_pool", community_id). The ledger knows each by
an int code, and holds its postings as columns of codes, amounts and reason
codes. `settle_round` prices a round's whole feed table in array passes,
from the attention terms ranking kept on each entry (`Feeds.terms`), and
posts it as one block, a new one after each clamp, with the rows, bits and
events of settling the table entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._sum import left_sum
from .config import FUNDS_TOL, AdDealConfig, EconParams
from .errors import InsufficientFunds, NotFound, Unregistered
from .rank import Feeds

OwnerRef = tuple[str, int]

PLATFORM: OwnerRef = ("platform", 0)

REASONS = ("ImpressionSponsorship", "Subscription", "AdImpression",
           "CreatorReward", "PlatformFee", "StandingPurchase")
_REASON = {reason: code for code, reason in enumerate(REASONS)}
# The dtypes of a ledger's columns: round, payer, payee, amount, reason.
_COLUMN_TYPES = (np.int64, np.intp, np.intp, float, np.intp)
# The most sponsored entries `settle_round` prices at once.
_BLOCK_ENTRIES = 2048

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


class LedgerRows(NamedTuple):
    """Ledger rows as parallel array columns: round, payer and payee codes,
    amount and reason code (an index into REASONS). `owners` and `fields`
    are the ledger's code tables, each owner and its "kind,id" CSV text by
    code; a code never changes, so rows stay readable after the ledger posts
    more."""

    rounds: np.ndarray
    payers: np.ndarray
    payees: np.ndarray
    amounts: np.ndarray
    reasons: np.ndarray
    owners: list[OwnerRef]
    fields: list[str]

    def lists(self, start: int = 0, stop: Optional[int] = None) -> Iterator[tuple]:
        """Rows [start, stop) as (round, payer, payee, amount, reason) tuples
        of built-in ints and floats."""
        return zip(*(column[start:stop].tolist() for column in self[:5]))

    def entries(self) -> list[LedgerEntry]:
        owners = self.owners
        return [LedgerEntry(round_, owners[payer], owners[payee], amount, REASONS[reason])
                for round_, payer, payee, amount, reason in self.lists()]


def csv_rows(rows: LedgerRows) -> Iterator[str]:
    """ledger.csv lines of `rows`, no header. No field needs CSV quoting: ids
    and rounds are ints, amounts float reprs (`float.__repr__`), kinds and
    reasons plain words. Rows are turned into Python values 4,096 at a time,
    so formatting holds few of them at once."""
    fields, r = rows.fields, float.__repr__
    for start in range(0, len(rows.amounts), 4096):
        for round_, payer, payee, amount, reason in rows.lists(start, start + 4096):
            yield f"{round_},{fields[payer]},{fields[payee]},{r(amount)},{REASONS[reason]}\n"


class Ledger:
    """Append-only account book. Amounts are finite and positive; entries are
    two-sided.

    Each owner has an int code, given at `open_account` or on first use
    (`code`); `owners` and `fields` map a code back to the owner and to its
    "kind,id" CSV text. Balances, opening balances and the net amount of
    drained rows are float64 arrays by code. Postings are held as blocks of
    array columns (see `LedgerRows`); `post` appends one row and
    `post_block` many, with the same checks. `entries` is a view of the held rows as LedgerEntry
    rows, built when read; assigning it replaces them. `drain` hands the
    held rows out and keeps only their net amount per owner, which `audit`
    adds back.
    """

    def __init__(self) -> None:
        self._codes: dict[OwnerRef, int] = {}
        self.owners: list[OwnerRef] = []
        self.fields: list[str] = []
        # by code, with room to grow past len(owners)
        self._balances = np.zeros(0)
        self._initial = np.zeros(0)
        self._drained = np.zeros(0)
        self._clear()

    def _clear(self) -> None:
        self._blocks: list[tuple[np.ndarray, ...]] = []

    def _rows(self) -> LedgerRows:
        """The held rows, their blocks joined into one."""
        if len(self._blocks) != 1:
            columns = zip(*self._blocks) if self._blocks else [()] * 5
            self._blocks = [tuple(np.concatenate(column) if column else np.zeros(0, dtype)
                                  for column, dtype in zip(columns, _COLUMN_TYPES))]
        return LedgerRows(*self._blocks[0], self.owners, self.fields)

    @property
    def entries(self) -> list[LedgerEntry]:
        return self._rows().entries()

    @entries.setter
    def entries(self, entries) -> None:
        rows = [(e.round, self.code(e.from_owner), self.code(e.to_owner), e.amount,
                 _REASON[e.reason]) for e in entries]
        self._blocks = [tuple(np.array(column, dtype=dtype).reshape(-1) for column, dtype
                              in zip(zip(*rows) if rows else [()] * 5, _COLUMN_TYPES))]

    def code(self, owner: OwnerRef) -> int:
        """The owner's code; a new owner gets the next one, with balance 0.0."""
        code = self._codes.get(owner)
        if code is None:
            code = self._codes[owner] = len(self.owners)
            self.owners.append(owner)
            self.fields.append(f"{owner[0]},{owner[1]}")
            if code == len(self._balances):
                room = np.zeros(max(16, code))
                self._balances, self._initial, self._drained = (
                    np.concatenate((held, room))
                    for held in (self._balances, self._initial, self._drained))
        return code

    def open_account(self, owner: OwnerRef, balance: float = 0.0) -> None:
        if owner in self._codes:
            raise ValueError(f"account {owner} already open")
        if not 0 <= balance < math.inf:
            raise ValueError(f"opening balance must be finite and >= 0, got {balance!r}")
        code = self.code(owner)
        self._balances[code] = self._initial[code] = balance

    def balance(self, owner: OwnerRef) -> float:
        code = self._codes.get(owner)
        return 0.0 if code is None else self._balances.item(code)

    def post(self, round_: int, from_owner: OwnerRef, to_owner: OwnerRef,
             amount: float, reason: str) -> None:
        self.post_block(round_, [self.code(from_owner)], [self.code(to_owner)], [amount],
                        [_REASON.get(reason, -1)])

    def post_block(self, round_: int, payers: Sequence[int], payees: Sequence[int],
                   amounts: Sequence[float], reasons: Sequence[int]) -> None:
        """Post rows of payer and payee codes, amounts and reason codes in
        order, with the checks `post` makes of each: the amount finite and
        > 0, no self-transfer, a known reason, and the payer's balance, after
        the rows before, covering the amount to within FUNDS_TOL. A block
        with a failing row posts nothing and raises that row's error (the
        first failing row's). The ledger keeps the arrays it is given, so
        the caller must not change them afterwards.

        Balances take one `np.add.at` over the rows' (payer, -amount) and
        (payee, +amount) pairs in row order: the bits of posting the rows one
        by one, since x + (-a) == x - a."""
        payers, payees, amounts, reasons = (
            np.asarray(column, dtype=dtype) for column, dtype
            in zip((payers, payees, amounts, reasons), _COLUMN_TYPES[1:]))
        n = len(amounts)
        if n == 0:
            return
        bad_amount = ~((amounts > 0) & (amounts < math.inf))
        bad_reason = (reasons < 0) | (reasons >= len(REASONS))
        bad = np.flatnonzero(bad_amount | (payers == payees) | bad_reason)
        valid = int(bad[0]) if len(bad) else n
        head = slice(0, valid)
        short = self._shortfall(payers[head], payees[head], amounts[head], np.arange(valid),
                                payers[head], amounts[head])
        if short is not None:
            k, have = short
            raise InsufficientFunds(f"{self.owners[payers[k]]} balance {have:.6g} "
                                    f"< {amounts[k]:.6g}")
        if valid < n:
            if bad_amount[valid]:
                raise ValueError(
                    f"ledger amounts must be finite and > 0, got {amounts.item(valid)!r}")
            if payers[valid] == payees[valid]:
                raise ValueError("self-transfers are not allowed")
            raise ValueError(f"unknown reason code {reasons[valid]}")
        np.add.at(self._balances, np.column_stack((payers, payees)).ravel(),
                  np.column_stack((-amounts, amounts)).ravel())
        self._blocks.append((np.full(n, round_, dtype=np.int64), payers, payees, amounts,
                             reasons))

    def _shortfall(self, payers: np.ndarray, payees: np.ndarray, amounts: np.ndarray,
                   at: np.ndarray, debtors: np.ndarray, needs: np.ndarray
                   ) -> Optional[tuple[int, float]]:
        """The first check k, with that balance, at which `debtors[k]`'s
        balance after rows [0, at[k]) of a block (payers, payees, amounts)
        plus FUNDS_TOL is below `needs[k]`; None if there is none. `at`
        ascends.

        A debtor whose balance, less all its debits in the block and less its
        largest need, stays above a margin far wider than any rounding of the
        fold can cover every check. Only the other debtors' rows are folded,
        one by one in row order, as posting them would."""
        if not len(needs):
            return None
        n = len(self.owners)
        start = self._balances[:n]
        debits = np.bincount(payers, weights=amounts, minlength=n)
        credits = np.bincount(payees, weights=amounts, minlength=n)
        most = np.zeros(n)
        np.maximum.at(most, debtors, needs)
        margin = 1e-9 * (np.abs(start) + debits + credits + most)
        risky = np.zeros(n, dtype=bool)
        risky[debtors] = True
        risky &= ~(start - debits - most + FUNDS_TOL >= margin)
        checks = np.flatnonzero(risky[debtors])
        if not len(checks):
            return None
        rows = np.flatnonzero(risky[payers] | risky[payees])
        held = {code: self._balances.item(code) for code in np.flatnonzero(risky).tolist()}
        row_at, row_from, row_to, row_amount = (
            column.tolist() for column in (rows, payers[rows], payees[rows], amounts[rows]))
        i, n_rows = 0, len(row_at)
        for k, pos, debtor, need in zip(checks.tolist(), at[checks].tolist(),
                                        debtors[checks].tolist(), needs[checks].tolist()):
            while i < n_rows and row_at[i] < pos:
                if row_from[i] in held:
                    held[row_from[i]] -= row_amount[i]
                if row_to[i] in held:
                    held[row_to[i]] += row_amount[i]
                i += 1
            have = held[debtor]
            if have + FUNDS_TOL < need:
                return k, have
        return None

    def drain(self) -> LedgerRows:
        """The rows posted since the last drain, and no longer held.
        Balances stay, and each owner's net drained amount is kept for
        `audit`."""
        rows = self._rows()
        self._drained[:len(self.owners)] += self._net(rows)
        self._clear()
        return rows

    def _net(self, rows: LedgerRows) -> np.ndarray:
        """Each owner's credits less its debits over `rows`, by code."""
        n = len(self.owners)
        return np.bincount(rows.payees, rows.amounts, n) - np.bincount(rows.payers, rows.amounts, n)

    def audit(self, tol: float = 1e-9) -> None:
        """Check conservation, then recompute balances from the opening
        balances and every posted amount, drained or held, and check them and
        their positivity.

        Conservation: balances sum to the opening balances, to within `tol`
        relative to that total (each posting may round both balances).
        """
        n = len(self.owners)
        balances = self._balances[:n]
        opening = math.fsum(self._initial[:n].tolist())
        assert abs(math.fsum(balances.tolist()) - opening) <= tol * max(1.0, opening), \
            "money not conserved: balances do not sum to the opening balances"
        recomputed = self._initial[:n] + self._drained[:n] + self._net(self._rows())
        for owner, bal, want in zip(self.owners, balances.tolist(), recomputed.tolist()):
            assert abs(bal - want) <= tol, f"balance drift on {owner}"
            assert bal >= -tol, f"negative balance on {owner}"

    def csv_lines(self) -> Iterator[str]:
        """ledger.csv lines of the held rows, header first."""
        yield LEDGER_CSV_HEAD
        yield from csv_rows(self._rows())

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


@dataclass
class Advertiser:
    """An advertiser's terms; its budget is its ledger account."""

    id: int
    deals: list[AdDealConfig] = field(default_factory=list)
    personal_targeting: bool = False
    personal_price: float = 0.0
    seeding_allowance: dict[int, float] = field(default_factory=dict)


def _fractions(values: np.ndarray) -> np.ndarray:
    """Each term's fraction of its row's attention numerator: the row's
    values folded by `left_sum` (a zero value adds nothing). 0.0 where the
    value or the numerator is not positive."""
    total = left_sum(values.T)
    keep = (values > 0) & (total > 0)[:, None]
    return np.divide(values, total[:, None], out=np.zeros_like(values), where=keep)


def _ad_payments(round_: int, feeds: Feeds, entries: np.ndarray, items: Sequence,
                 fabric, advertisers: Mapping[int, Advertiser], ledger: Ledger
                 ) -> tuple[list[tuple[int, int, int, float]], list[tuple[int, dict]]]:
    """The ad payments of the table's advertiser entries `entries` (`items`
    their contents), in table order: (entry, payer code, payee code, amount)
    for each one made, and (entry, ad_skipped event) for each one skipped.
    Each advertiser pays the targeted communities it has a deal with, by
    community id, then the opted-in citizen; a payment that rounds to 0.0
    is not made. Advertisers pay only here, so whether one can cover a
    payment is its balance less its own payments made before."""
    made, skipped = [], []
    left: dict[OwnerRef, float] = {}
    deals: dict[int, list[AdDealConfig]] = {}
    for entry, citizen, share, item in zip(entries.tolist(), feeds.citizen[entries].tolist(),
                                           feeds.share[entries].tolist(), items):
        adv = advertisers.get(item.creator)
        if adv is None:
            continue
        owner = ("advertiser", adv.id)
        if adv.id not in deals:
            deals[adv.id] = sorted(adv.deals, key=lambda d: d.community)
        payments = []
        for deal in deals[adv.id]:
            if not deal.accepted or deal.community not in item.target_communities:
                continue
            comm = fabric.communities.get(deal.community)
            if comm is None or citizen not in comm.members:
                continue
            payments.append((("community", deal.community), deal.price_per_impression * share))
        p = fabric.citizens[citizen]
        if adv.personal_targeting and p.accepts_personal_ads and adv.personal_price > 0:
            payments.append((("citizen", citizen), adv.personal_price * share))
        for payee, amount in payments:
            if not amount > 0:      # rounds to 0.0: nothing to pay
                continue
            have = left[owner] if owner in left else ledger.balance(owner)
            if have + FUNDS_TOL < amount:
                skipped.append((entry, {"round": round_, "kind": "ad_skipped", "owner": owner}))
            else:
                left[owner] = have - amount
                made.append((entry, ledger.code(owner), ledger.code(payee), amount))
    return made, skipped


def settle_round(round_: int, feeds: Feeds, fabric, catalog,
                 prices: Mapping[OwnerRef, float],
                 advertisers: Mapping[int, Advertiser],
                 params: EconParams, ledger: Ledger) -> list[dict]:
    """Charge sponsors for the round's feed table, in its order; pay creators.

    Citizen-and-community sponsored impressions split three ways straight
    from the sponsor: platform fee (PlatformFee; Subscription when the
    sponsor is a citizen), creator share (CreatorReward, kept by a creator
    sponsoring its own impression), and any remainder into a creator pool
    (ImpressionSponsorship): the sponsoring community's, or for a citizen
    sponsor the pool of the content's lowest target community.
    Advertiser-created content settles only through deal payments
    (AdImpression): advertisers pay the targeted community, and opted-in
    citizens directly, per unit of attention. A sponsor's price per
    lambda-weighted impression is `prices[owner]`, else
    `params.default_price_per_lambda_impression`.

    Each entry's charge per sponsor is price * share * the sponsor's
    fraction of the entry's attention numerator: `_fractions` of the
    entry's `feeds.terms`, the citizen's own term first and then every
    community's by id (an all-zero numerator, a uniform fallback or an
    exploration slot, charges no one). The table is priced in array passes
    over blocks of entries, and each block is posted at once, in entry,
    term and fee-reward-remainder order. A sponsor whose balance, after the
    postings before, cannot cover a charge ends its block: the postings
    before it are made, and its lambda is set to 0.0 in the fabric for the
    rest of the run. The next block starts at that charge: the citizen
    being settled keeps its terms, less the clamped sponsor's charges, and
    a clamped community's term is 0.0 for later citizens. This gives the
    rows, bits and events of settling entry by entry with the terms read
    off the fabric at each citizen's first entry.

    Returns the event log in table order (lambda clamps, skipped ad
    payments).
    """
    share = feeds.share
    ids, item_at = np.unique(feeds.content, return_inverse=True)
    items = [catalog[m] for m in ids.tolist()]
    by_ad = np.array([item.creator_kind == "advertiser" for item in items], dtype=bool)
    is_ad = by_ad[item_at]
    ad_entries = np.flatnonzero((share > 0) & is_ad)
    sponsored = np.flatnonzero((share > 0) & ~is_ad)

    made, events = _ad_payments(round_, feeds, ad_entries,
                                [items[i] for i in item_at[ad_entries].tolist()],
                                fabric, advertisers, ledger)
    ad_at = np.array([row[0] for row in made], dtype=np.intp)
    ad_rows = [np.array([row[i] for row in made], dtype=dtype).reshape(-1)
               for i, dtype in ((1, np.intp), (2, np.intp), (3, float))]
    ad_rows.append(np.full(len(made), _REASON["AdImpression"], dtype=np.intp))

    # Tables by citizen, content and term, gathered for each block: prices
    # (NaN for citizens who are not subscribers: never charged) and payer and
    # payee codes.
    communities = sorted(fabric.communities)
    people, person_at = np.unique(feeds.citizen[sponsored], return_inverse=True)
    entry_item = item_at[sponsored]
    default = params.default_price_per_lambda_impression
    subscribed = [fabric.citizens[p].subscriber for p in people.tolist()]
    own_price = np.array([prices.get(("citizen", p), default) if paying else math.nan
                          for p, paying in zip(people.tolist(), subscribed)])
    own_code = np.array([ledger.code(("citizen", p)) if paying else -1
                         for p, paying in zip(people.tolist(), subscribed)], dtype=np.intp)
    term_price = np.array([math.nan] + [prices.get(("community", c), default)
                                        for c in communities])
    term_code = np.array([-1] + [ledger.code(("community", c)) for c in communities],
                         dtype=np.intp)
    term_pool = np.array([-1] + [ledger.code(creator_pool(c)) for c in communities],
                         dtype=np.intp)
    # each content's creator, the creator's code, and the pool of its lowest
    # target community
    creator, creator_code, lowest_pool = np.array(
        [(-1, -1, -1) if item.creator_kind == "advertiser" else
         (item.creator, ledger.code(("citizen", item.creator)),
          ledger.code(creator_pool(min(item.target_communities)))) for item in items],
        dtype=np.intp).reshape(-1, 3).T
    platform = ledger.code(PLATFORM)
    fee_reason = np.array([_REASON["Subscription"]] + [_REASON["PlatformFee"]] * len(communities))
    share_reasons = _REASON["CreatorReward"], _REASON["ImpressionSponsorship"]

    first, first_term = 0, 0     # where the block starts: sponsored entry, term
    clamps = []                  # (citizen's index in `people`, term) of each clamp
    ad_done = 0                  # ad postings made
    while True:
        # A block spans at most _BLOCK_ENTRIES sponsored entries, which bounds
        # its arrays; settling is where a crowd run's memory peaks.
        stop = min(first + _BLOCK_ENTRIES, len(sponsored))
        who, what = person_at[first:stop], entry_item[first:stop]
        terms = feeds.terms[sponsored[first:stop]]
        for person, term in clamps:     # a clamped community weighs 0.0 for later citizens
            if term:
                terms[who > person, term] = 0.0
        fractions = _fractions(terms)
        fractions[:1, :first_term] = 0.0
        for person, term in clamps:     # and charges nothing more in the clamp's citizen
            fractions[who == person, term] = 0.0
        e, t = np.nonzero(fractions > 0)
        charge = np.where(t == 0, own_price[who[e]], term_price[t]) \
            * share[sponsored[first + e]] * fractions[e, t]
        paid = charge > 0
        e, t, amount = e[paid], t[paid], charge[paid]
        person, item = who[e], what[e]
        payer = np.where(t == 0, own_code[person], term_code[t])
        fee = params.platform_fee * amount
        reward = params.creator_share * amount
        amounts = np.column_stack((fee, reward, amount - fee - reward))
        payees = np.column_stack((np.full(len(t), platform), creator_code[item],
                                  np.where(t == 0, lowest_pool[item], term_pool[t])))
        reasons = np.column_stack((fee_reason[t], np.full(len(t), share_reasons[0]),
                                   np.full(len(t), share_reasons[1])))
        made_here = amounts > 1e-15
        # creators sponsoring their own impressions keep the share
        made_here[:, 1] &= (t != 0) | (creator[item] != people[person])
        counts = made_here.sum(axis=1)
        entry = sponsored[first + e]
        # the block's rows: the charges' postings and the ad payments up to
        # the next block's first entry, merged in entry order (no entry has
        # both)
        ads = slice(ad_done, ad_done + int(np.searchsorted(
            ad_at[ad_done:], sponsored[stop] if stop < len(sponsored) else len(share))))
        rows = (np.repeat(payer, counts), payees[made_here], amounts[made_here],
                reasons[made_here])
        del terms, fractions, charge, fee, reward, amounts, payees, reasons, made_here
        if ads.stop > ads.start:
            order = np.argsort(np.concatenate((np.repeat(entry, counts), ad_at[ads])),
                               kind="stable")
            rows = [np.concatenate((ours, theirs[ads]))[order]
                    for ours, theirs in zip(rows, ad_rows)]
        # each charge is checked before its own postings
        check_at = np.cumsum(counts) - counts + np.searchsorted(ad_at[ads], entry)
        short = ledger._shortfall(rows[0], rows[1], rows[2], check_at, payer, amount)
        if short is None:
            ledger.post_block(round_, *rows)
            if stop == len(sponsored):
                break
            first, first_term, ad_done = stop, 0, ads.stop
            continue
        k = short[0]
        ledger.post_block(round_, *(column[:check_at[k]] for column in rows))
        p, term = int(people[person[k]]), int(t[k])
        owner = ("citizen", p) if term == 0 else ("community", communities[term - 1])
        (fabric.citizens if term == 0 else fabric.communities)[owner[1]].lambda_ = 0.0
        events.append((int(entry[k]), {"round": round_, "kind": "lambda_clamped", "owner": owner}))
        clamps.append((int(person[k]), term))
        ad_done += int(np.searchsorted(ad_at[ads], entry[k]))
        first, first_term = first + int(e[k]), term + 1
    return [event for _, event in sorted(events, key=lambda pair: pair[0])]


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
    contents = scores.contents.tolist()
    for cid in sorted(fabric.communities):
        members = fabric.communities[cid].members
        for content_id, psi in zip(contents, scores.column(("community", cid)).tolist()):
            if psi <= 0:
                continue
            content = catalog.get(content_id)
            if content is None or content.creator_kind != "citizen" \
                    or content.creator not in members:
                continue
            fabric.update_standing(content.creator, cid, reward_rate * psi)


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
    if not (0 < amount < math.inf and 0 < price < math.inf):   # also rejects NaN
        raise ValueError(f"amount and price must be > 0 and finite, got {amount!r}, {price!r}")
    if ledger.balance(("advertiser", advertiser.id)) + FUNDS_TOL < price:
        raise InsufficientFunds(
            f"advertiser {advertiser.id} balance cannot cover {price:.6g}")
    ledger.post(round_, ("advertiser", advertiser.id), ("community", community),
                price, "StandingPurchase")
    advertiser.seeding_allowance[community] = \
        advertiser.seeding_allowance.get(community, 0.0) + amount
