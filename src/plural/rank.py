"""Attention allocation and feed construction.

A citizen's attention over a candidate pool follows the weighted coherence
scores of the citizen and of the communities they belong to:

    numerator(m) = lambda(p) * psi(m; p) + sum_c devotion(c; p) * lambda(c) * psi(m; c)

normalized over the pool. psi is read off the round's `ScoreSet`, one row
per scope, through `served`, which lays the live seeding overrides over the
community rows. Feeds take the top-k of that distribution and keep a small
epsilon of attention for seeded random exploration slots. A round's feeds
are one table, `Feeds`. Each entry's social provenance (where it bridges,
where it divides, and what balances it) is read off the round's scores only
when its feeds.jsonl line is written (`feed_lines`).
"""

from __future__ import annotations

import copy
import json
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._rng import derive_rng
from ._sum import left_sum
from .config import RankingParams
from .errors import InsufficientStanding
from .score import LABEL_BRIDGING, LABEL_DIVISIVE, LABELS, ScoreSet, Scope


class Feeds(NamedTuple):
    """One round's feeds as parallel columns, one row per entry.

    Citizens ascend, and each citizen's feed is in rank order: `rank` runs
    0, 1, ... within it. A round serves each (citizen, content) at most once.
    """

    citizen: np.ndarray   # int64
    content: np.ndarray   # int64
    share: np.ndarray     # float64, the entry's attention share
    rank: np.ndarray      # int64

    @classmethod
    def of(cls, feeds: Mapping[int, Sequence[tuple[int, float]]]) -> "Feeds":
        """The table of each citizen's (content, share) feed, as `build_feed`
        returns it."""
        rows = [(citizen, content, share, rank) for citizen in sorted(feeds)
                for rank, (content, share) in enumerate(feeds[citizen])]
        citizen, content, share, rank = zip(*rows) if rows else ((),) * 4
        return cls(np.array(citizen, dtype=np.int64), np.array(content, dtype=np.int64),
                   np.array(share, dtype=float), np.array(rank, dtype=np.int64))


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


def attention_terms(citizen: int, fabric) -> list[tuple[Scope, float]]:
    """The attention numerator's coefficients for one citizen.

    numerator(m) = sum of weight * psi(m; scope) over the returned
    (scope, weight) pairs: the citizen's own scope with weight lambda(p)
    first, then each community c in id order with devotion(c; p) * lambda(c).
    Ranking sums these terms; settlement charges each term's owner.
    """
    devotions = fabric.devotions(citizen)
    return [(("citizen", citizen), fabric.citizens[citizen].lambda_)] + \
        [(("community", c), devotions[c] * fabric.communities[c].lambda_)
         for c in sorted(devotions)]


def exposure_weights(citizen: int, fabric, psi_view: ScoreSet,
                     pool: Sequence[int]) -> dict[int, float]:
    """Attention share per pool content for one citizen.

    `psi_view` is the round's ScoreSet, or its `served` copy; a scope
    without a row scores zero. Every pool content must be one of its
    `columns`. The numerators are built one term at a time over the whole
    pool: each is 0 + term_1 + term_2 + ..., added left to right in
    `attention_terms` order (citizen first, then communities by id), as
    `left_sum` adds them. When every numerator is zero the budget is spread
    uniformly so a cold system still serves content.
    """
    if not pool:
        raise ValueError("candidate pool must be non-empty")
    at = np.fromiter(map(psi_view.columns.__getitem__, pool), np.intp, len(pool))
    (scope, w), *rest = attention_terms(citizen, fabric)
    acc = 0 + w * psi_view.column(scope)[at]
    for scope, w in rest:
        acc = acc + w * psi_view.column(scope)[at]
    total = left_sum(acc.tolist())
    if total <= 0.0:
        share = 1.0 / len(pool)
        return {m: share for m in pool}
    return dict(zip(pool, (acc / total).tolist()))


def build_feed(citizen: int, weights: Mapping[int, float], *, params: RankingParams,
               seed: int = 0, round_: int = 0) -> list[tuple[int, float]]:
    """Feed for one citizen: exploitation top-k plus seeded exploration slots,
    as (content, share) pairs in rank order.

    The top-k carry (1 - epsilon) of attention proportionally to their
    renormalized weights; epsilon is spread uniformly over up to k contents
    sampled from the rest of the pool. Shares always sum to 1. Entries are
    ordered by share descending, ties by content id.
    """
    ranked = sorted(weights, key=lambda m: (-weights[m], m))
    top = ranked[:params.feed_size]
    rest = ranked[params.feed_size:]
    top_total = left_sum(weights[m] for m in top)

    shares: dict[int, float] = {}
    epsilon = params.epsilon if rest else 0.0
    if top_total > 0:
        for m in top:
            shares[m] = (1.0 - epsilon) * weights[m] / top_total
    else:
        for m in top:
            shares[m] = (1.0 - epsilon) / len(top)
    if epsilon > 0.0:
        rng = derive_rng(seed, "explore", round_, citizen)
        n_slots = min(params.feed_size, len(rest))
        picks = sorted(rng.choice(len(rest), size=n_slots, replace=False).tolist())
        for idx in picks:
            shares[rest[idx]] = epsilon / n_slots
    return sorted(shares.items(), key=lambda e: (-e[1], e[0]))


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


def feed_lines(round_: int, feeds: Feeds, scores: ScoreSet, fabric) -> Iterator[str]:
    """feeds.jsonl lines of the round's table: one JSON record per entry.

    An entry's provenance holds a tag for each of the citizen's communities
    in id order, then for the citizen's own scope, read off `scores` (the
    round's) where the content is Bridging or Divisive. The label codes of
    every (entry, citizen scope) and (content, community) pair are gathered
    at once; the community tags of a content are the same for every citizen
    in the same communities, so each such run is made once per call.

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
            *(column.tolist() for column in feeds), content_at.tolist(), own_codes.tolist()):
        if citizen != last:
            last = citizen
            head = f'{{"citizen": {citizen}, "content": '
            mine = tuple(slot[c] for c in fabric.member_communities(citizen))
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
    return [json.loads(line) for line in feed_lines(round_, feeds, scores, fabric)]


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
    if stake < 0:
        raise ValueError("stake must be >= 0")
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
