"""Attention allocation and feed construction.

A citizen's attention over a candidate pool follows the weighted coherence
scores of the citizen and of the communities they belong to:

    numerator(m) = lambda(p) * psi(m; p) + sum_c devotion(c; p) * lambda(c) * psi(m; c)

normalized over the pool. The weights are the round's `term_weights`, one
row per citizen, built from the round's `devotion_matrix()`; psi is read off
the round's `ScoreSet` through `served`, which lays the live seeding
overrides over the community rows. `_terms` builds the numerator's terms
once, and each feed entry keeps its own in `Feeds.terms`, from which
settlement charges each term's owner. Feeds take the top-k of that
distribution and keep a small epsilon of attention for seeded random
exploration slots. Citizens with the same communities (and personal-ads
flag) share a candidate pool, and `rank_feeds` ranks each such `Group` in
array passes over its (citizens x pool) shares; `exposure_weights` and
`build_feed` are its one-citizen views. A round's feeds are one table,
`Feeds`. Each entry's social provenance (where it bridges, where it
divides, and what balances it) is read off the round's scores only when its
feeds.jsonl line is written (`feed_lines`).
"""

from __future__ import annotations

import copy
import json
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._rng import derive_rng, derive_rngs
from ._sum import left_sum
from .config import RankingParams
from .errors import InsufficientStanding, Overflow
from .score import LABEL_BRIDGING, LABEL_DIVISIVE, LABELS, ScoreSet, Scope


class Feeds(NamedTuple):
    """One round's feeds as parallel columns, one row per entry.

    Citizens ascend, and each citizen's feed is in rank order: `rank` runs
    0, 1, ... within it. A round serves each (citizen, content) at most once.
    `terms` holds each entry's attention numerator terms, laid out as
    `term_weights` columns: the citizen's own first, then every community's
    by id (0.0 where the citizen is not a member).
    """

    citizen: np.ndarray   # int64
    content: np.ndarray   # int64
    share: np.ndarray     # float64, the entry's attention share
    rank: np.ndarray      # int64
    terms: np.ndarray     # float64, (entries x terms)

    @classmethod
    def of(cls, feeds: Mapping[int, Sequence[tuple[int, float, Sequence[float]]]]) -> "Feeds":
        """The table of each citizen's feed of (content, share, terms)
        entries in rank order."""
        rows = [(citizen, content, share, rank, terms) for citizen in sorted(feeds)
                for rank, (content, share, terms) in enumerate(feeds[citizen])]
        citizen, content, share, rank, terms = zip(*rows) if rows else ((),) * 4 + (
            np.zeros((0, 1)),)
        return cls(np.array(citizen, dtype=np.int64), np.array(content, dtype=np.int64),
                   np.array(share, dtype=float), np.array(rank, dtype=np.int64),
                   np.array(terms, dtype=float))


class PsiOverrides:
    """Staked initial-prominence overrides, keyed (content, community).

    While live, the override replaces the organic community-scope psi; it
    expires after `seed_rounds` rounds and organic scores take over.
    `expire` drops the expired ones, so only overrides that can still be
    live are held.
    """

    def __init__(self) -> None:
        self._live: dict[int, dict[int, tuple[float, int]]] = {}   # community -> content

    def expire(self, current_round: int) -> None:
        """Drop every override that is not live in `current_round` or later."""
        for community, held in list(self._live.items()):
            kept = {m: v for m, v in held.items() if current_round < v[1]}
            if kept:
                self._live[community] = kept
            else:
                del self._live[community]

    def set(self, content: int, community: int, psi: float, expires_round: int) -> None:
        self._live.setdefault(community, {})[content] = (psi, expires_round)

    def live(self, community: int, current_round: int) -> dict[int, float]:
        """The community's overrides live in `current_round`, by content."""
        return {m: psi for m, (psi, expires) in self._live.get(community, {}).items()
                if current_round < expires}


def served(scores: ScoreSet, overrides: PsiOverrides, round_: int) -> ScoreSet:
    """The round's scores as ranking and settlement read them: a shallow copy
    of `scores` whose psi has the overrides live in `round_` laid over the
    community rows (every community `score_round` saw has one). `scores`
    itself keeps its organic psi."""
    view = copy.copy(scores)
    view.psi = scores.psi.copy()
    for (kind, community), row in scores.rows.items():
        if kind == "community":
            for content, psi in overrides.live(community, round_).items():
                view.psi[row, scores.columns[content]] = psi
    return view


class Group(NamedTuple):
    """Citizens ranked over one candidate pool: those in the same communities
    (and, in a run, with the same personal-ads flag)."""

    citizens: np.ndarray         # int64 ids, ascending
    pool: np.ndarray             # int64 content ids, ascending
    reacted: np.ndarray          # (citizens x pool) bool: reacted to, so not offered


def term_weights(fabric, devotion: np.ndarray) -> np.ndarray:
    """The attention numerator's weights, one row per citizen in id order
    (`term_rows` finds them): the citizen's own lambda first, then
    devotion(c) * lambda(c) for each community c by id off `devotion`, the
    fabric's `devotion_matrix()` (0.0 where the citizen is not a member)."""
    own = np.array([fabric.citizens[p].lambda_ for p in sorted(fabric.citizens)], dtype=float)
    community = np.array([fabric.communities[c].lambda_ for c in sorted(fabric.communities)],
                         dtype=float)
    return np.column_stack([own, devotion * community])


def term_rows(fabric, citizens) -> np.ndarray:
    """The rows of `citizens` in the fabric's `term_weights`."""
    return np.searchsorted(np.array(sorted(fabric.citizens), dtype=np.int64), citizens)


def _offered(group: Group) -> np.ndarray:
    """How many pool contents each citizen of the group has not reacted to."""
    return len(group.pool) - group.reacted.sum(axis=1)


def _terms(psi_view: ScoreSet, fabric, weights: np.ndarray, group: Group) -> np.ndarray:
    """The attention numerator's terms over the group pool, (citizens x pool
    x terms): each citizen's `term_weights` row (`weights`) times the psi of
    its own scope, then of every community by id, 0.0 for a scope without a
    row in `psi_view`."""
    at = np.fromiter(map(psi_view.columns.__getitem__, group.pool.tolist()), np.intp,
                     len(group.pool))
    scopes = [("citizen", p) for p in group.citizens.tolist()] + \
        [("community", c) for c in sorted(fabric.communities)]
    rows = np.array([psi_view.rows.get(scope, -1) for scope in scopes], dtype=np.intp)
    psi = np.zeros((len(rows), len(at)))
    psi[rows >= 0] = psi_view.psi[rows[rows >= 0][:, None], at]
    n = len(group.citizens)
    gathered = np.empty((n, len(at), weights.shape[1]))
    gathered[..., 0] = psi[:n]
    gathered[..., 1:] = psi[n:].T
    return weights[:, None, :] * gathered


def _shares(terms: np.ndarray, group: Group) -> np.ndarray:
    """Each citizen's attention share over the group pool from its `_terms`,
    0.0 where it has reacted.

    The numerators and each row's total are left folds, as `left_sum` adds
    them: a non-member's term is 0.0 * psi = +0.0 and a reacted cell +0.0,
    which change no non-negative partial sum. A row whose total is not
    positive is spread uniformly over its unreacted contents, so a cold
    system still serves content; one whose total overflowed raises Overflow.
    """
    with np.errstate(over="ignore"):    # an overflowed total raises below
        acc = left_sum(np.moveaxis(terms, 2, 0))
        acc[group.reacted] = 0.0
        total = left_sum(acc.T)
    over = total == np.inf
    if over.any():
        raise Overflow(f"attention total of citizen {group.citizens[over][0]} overflowed")
    cold = total <= 0.0
    acc /= np.where(cold, 1.0, total)[:, None]
    acc[cold] = (1.0 / np.maximum(_offered(group)[cold], 1))[:, None]
    acc[group.reacted] = 0.0
    return acc


def _feeds(group: Group, shares: np.ndarray, terms: np.ndarray, params: RankingParams,
           rngs: Mapping) -> tuple[np.ndarray, ...]:
    """The group's feed entries as (citizen, content, share, terms) columns,
    in no particular order; `terms` are the group's `_terms`, and each
    entry's are cut from them.

    Each row is ranked by (-share, content id), reacted contents last. Its
    top k carry (1 - epsilon) of attention in proportion to their shares
    over their left-fold total; when the row has more unreacted contents
    than k, epsilon is spread uniformly over up to k contents drawn from
    the rest with the citizen's generator in `rngs`. Shares always sum to 1.
    """
    k = params.feed_size
    offered = _offered(group)
    order = np.argsort(np.where(group.reacted, np.inf, -shares), axis=1, kind="stable")
    top = np.take_along_axis(shares, order[:, :k], axis=1)
    n_top = np.minimum(offered, k)
    top_total = left_sum(top.T)
    keep = 1.0 - np.where(offered > k, params.epsilon, 0.0)
    top = keep[:, None] * top / np.where(top_total > 0, top_total, 1.0)[:, None]
    flat = (top_total <= 0) & (n_top > 0)
    top[flat] = (keep[flat] / n_top[flat])[:, None]
    held = np.arange(top.shape[1]) < n_top[:, None]
    rows = [np.broadcast_to(np.arange(len(order))[:, None], top.shape)[held]]
    columns, shares = [order[:, :k][held]], [top[held]]
    explorers = np.flatnonzero(offered > k) if params.epsilon > 0.0 else np.zeros(0, np.intp)
    rest = offered[explorers] - k
    slots = np.minimum(k, rest)
    # each explorer's picks index the rest of its ranking, order[i, k:]
    columns += [order[i, k + rngs[p].choice(n_rest, size=n, replace=False)]
                for i, p, n_rest, n in zip(explorers.tolist(), group.citizens[explorers].tolist(),
                                           rest.tolist(), slots.tolist())]
    rows.append(np.repeat(explorers, slots))
    shares.append(np.repeat(params.epsilon / slots, slots))
    rows, columns = np.concatenate(rows), np.concatenate(columns)
    return group.citizens[rows], group.pool[columns], np.concatenate(shares), terms[rows, columns]


def rank_feeds(groups: Sequence[Group], weights: np.ndarray, fabric, psi_view: ScoreSet,
               params: RankingParams, seed: int, round_: int) -> Feeds:
    """The round's feed table: each citizen's feed over its group's pool,
    from the round's `term_weights` and psi (`psi_view`, the round's
    ScoreSet or its `served` copy; every pool content must be one of its
    `columns`). A citizen with nothing left to offer gets no feed.

    Each group is ranked in array passes over its (citizens x pool) shares.
    Exploration draws come from the citizens' `derive_rng(seed, "explore",
    round_, citizen)` streams, derived in one batch for the round. Each feed
    is ordered by (-share, content id).
    """
    groups = [group for group in groups if len(group.pool)]
    explorers = [p for group in groups if params.epsilon > 0.0
                 for p in group.citizens[_offered(group) > params.feed_size].tolist()]
    rngs = dict(zip(explorers, derive_rngs(seed, explorers, "explore", round_)))
    parts = []
    for group in groups:
        terms = _terms(psi_view, fabric, weights[term_rows(fabric, group.citizens)], group)
        parts.append(_feeds(group, _shares(terms, group), terms, params, rngs))
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
             np.zeros((0, weights.shape[1])))
    citizen, content, share, terms = (np.concatenate([blank] + [part[i] for part in parts])
                                      for i, blank in enumerate(empty))
    order = np.lexsort((content, -share, citizen))
    citizen, content, share = citizen[order], content[order], share[order]
    at = np.arange(len(citizen))
    first = np.ones(len(citizen), dtype=bool)
    first[1:] = citizen[1:] != citizen[:-1]
    return Feeds(citizen, content, share, at - np.maximum.accumulate(np.where(first, at, 0)),
                 terms[order])


def exposure_weights(citizen: int, fabric, psi_view: ScoreSet,
                     pool: Sequence[int]) -> dict[int, float]:
    """Attention share per pool content for one citizen: `rank_feeds`'
    shares, for a one-citizen group over `pool`. Nothing in the program
    calls it; perfbench's tracer patches it by name.

    `psi_view` is the round's ScoreSet, or its `served` copy; a scope
    without a row scores zero. Every pool content must be one of its
    `columns`.
    """
    if not pool:
        raise ValueError("candidate pool must be non-empty")
    group = Group(np.array([citizen], dtype=np.int64), np.array(pool, dtype=np.int64),
                  np.zeros((1, len(pool)), dtype=bool))
    weights = term_weights(fabric, fabric.devotion_matrix())[term_rows(fabric, group.citizens)]
    return dict(zip(pool, _shares(_terms(psi_view, fabric, weights, group), group)[0].tolist()))


def build_feed(citizen: int, weights: Mapping[int, float], *, params: RankingParams,
               seed: int = 0, round_: int = 0) -> list[tuple[int, float]]:
    """Feed for one citizen over the shares `weights`, as (content, share)
    pairs in rank order: `rank_feeds`' feed for a one-citizen group. Nothing
    in the program calls it; perfbench's tracer patches it by name.

    The top-k carry (1 - epsilon) of attention proportionally to their
    renormalized weights; epsilon is spread uniformly over up to k contents
    sampled from the rest of the pool. Shares always sum to 1. Entries are
    ordered by share descending, ties by content id.
    """
    if not weights:
        return []
    pool = sorted(weights)
    group = Group(np.array([citizen], dtype=np.int64), np.array(pool, dtype=np.int64),
                  np.zeros((1, len(pool)), dtype=bool))
    shares = np.array([[weights[m] for m in pool]], dtype=float)
    rngs = {citizen: derive_rng(seed, "explore", round_, citizen)}
    _, content, share, _ = _feeds(group, shares, np.zeros((1, len(pool), 0)), params, rngs)
    order = np.lexsort((content, -share))
    return list(zip(content[order].tolist(), share[order].tolist()))


def _tag(scores: ScoreSet, content: int, scope: Scope, code: int) -> Optional[str]:
    """The content's provenance tag in `scope` as JSON, given its label code;
    None unless its card is Bridging or Divisive. Only a Divisive tag peeks
    at the balancing set."""
    label = LABELS[code]
    if label == LABEL_BRIDGING:
        peek = ""
    elif label == LABEL_DIVISIVE:
        peek = ", ".join(map(str, scores.balancing_for(content, scope)))
    else:
        return None
    return (f'{{"balancing_peek": [{peek}], "kind": "{label}", '
            f'"scope_id": {scope[1]}, "scope_kind": "{scope[0]}"}}')


def feed_lines(round_: int, feeds: Feeds, scores: ScoreSet, fabric,
               signatures: Mapping[int, tuple[int, ...]]) -> Iterator[str]:
    """feeds.jsonl lines of the round's table: one JSON record per entry.

    An entry's provenance holds a tag for each of the citizen's communities
    in id order (its entry in `signatures`, the fabric's `signatures()`),
    then for the citizen's own scope, read off `scores` (the round's) where
    the content is Bridging or Divisive. The label codes of every (entry,
    citizen scope) and (content, community) pair are gathered at once; the
    community tags of a content are the same for every citizen in the same
    communities, so each such run is made once per call.

    Each line is byte-equal to `json.dumps(record, sort_keys=True) + "\n"`.
    Floats are written with `float.__repr__`, json's own float form, which
    also prints a numpy scalar as a plain number; ids and positions are ints,
    and the kind and scope-kind words need no escaping.
    """
    tail = f', "round": {round_}}}\n'
    contents, content_at = np.unique(feeds.content, return_inverse=True)
    columns = np.array([scores.columns.get(m, -1) for m in contents.tolist()], dtype=np.intp)
    people, person_at = np.unique(feeds.citizen, return_inverse=True)
    own_rows = np.array([scores.rows.get(("citizen", p), -1) for p in people.tolist()],
                        dtype=np.intp)
    own_codes = scores.label_codes(own_rows[person_at], columns[content_at])
    communities = sorted(fabric.communities)
    slot = {c: k for k, c in enumerate(communities)}
    community_rows = np.array([scores.rows.get(("community", c), -1) for c in communities],
                              dtype=np.intp)
    community_codes = scores.label_codes(community_rows[:, None], columns[None, :]).tolist()
    community_tags: dict[tuple[int, tuple[int, ...]], str] = {}
    last = None
    for citizen, content, share, rank, at, code in zip(
            *(column.tolist() for column in feeds[:4]), content_at.tolist(),
            own_codes.tolist()):
        if citizen != last:
            last = citizen
            head = f'{{"citizen": {citizen}, "content": '
            mine = tuple(slot[c] for c in signatures[citizen])
        text = community_tags.get((at, mine))
        if text is None:
            tags = (_tag(scores, content, ("community", communities[k]), community_codes[k][at])
                    for k in mine)
            text = community_tags[at, mine] = ", ".join(t for t in tags if t is not None)
        if code:
            tag = _tag(scores, content, ("citizen", citizen), code)
            if tag is not None:
                text = f"{text}, {tag}" if text else tag
        yield (f'{head}{content}, "exposure_share": {float.__repr__(share)}, '
               f'"provenance": [{text}], "rank_position": {rank}{tail}')


def feed_to_records(round_: int, feeds: Feeds, scores: ScoreSet, fabric) -> list[dict]:
    """The records of `feed_lines`, parsed back into dicts. Nothing in the
    program calls it; perfbench's tracer patches it by name."""
    return [json.loads(line)
            for line in feed_lines(round_, feeds, scores, fabric, fabric.signatures())]


def seed_content(overrides: PsiOverrides, fabric, content, community: int,
                 stake: float, params: RankingParams, current_round: int,
                 allowance: dict[int, float] | None = None) -> float:
    """Spend the content creator's standing (or purchased advertiser
    allowance) for initial prominence.

    Returns the psi override value (stake * stake_scale); a zero stake is a
    no-op. Citizen creators spend raw standing in the community; advertiser
    content draws on `allowance`, the advertiser's own seeding allowance by
    community (bought via the standing market), which is debited in place.
    """
    if not 0 <= stake < np.inf:     # also rejects NaN
        raise ValueError(f"stake must be >= 0 and finite, got {stake!r}")
    if stake == 0.0:
        return 0.0
    creator = content.creator
    if content.creator_kind == "advertiser":
        have = allowance.get(community, 0.0) if allowance is not None else 0.0
        if have < stake:
            raise InsufficientStanding(
                f"advertiser {creator} allowance {have:.6g} in community {community} < stake {stake:.6g}")
        allowance[community] = have - stake
    else:
        citizen = fabric.citizens.get(creator)
        if citizen is None or community not in citizen.memberships:
            raise InsufficientStanding(
                f"creator {creator} is not a member of community {community}")
        fabric.update_standing(creator, community, -stake)
    psi = stake * params.stake_scale
    overrides.set(content.id, community, psi, current_round + params.seed_rounds)
    return psi
