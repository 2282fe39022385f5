"""Attention allocation and feed construction.

A citizen's attention over a candidate pool follows the weighted coherence
scores of the citizen and of the communities they belong to:

    numerator(m) = lambda(p) * psi(m; p) + sum_c devotion(c; p) * lambda(c) * psi(m; c)

normalized over the pool. Feeds take the top-k of that distribution and keep
a small epsilon of attention for seeded random exploration slots. A round's
feeds are one table, `Feeds`. Each entry's social provenance (where it
bridges, where it divides, and what balances it) is read off the round's
scores only when its feeds.jsonl line is written (`feed_lines`).
"""

from __future__ import annotations

import functools
import json
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._rng import derive_rng
from ._sum import left_sum
from .config import RankingParams
from .errors import InsufficientStanding
from .score import LABEL_BRIDGING, LABEL_DIVISIVE, ScoreSet, Scope


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


class EffectivePsi:
    """Score view merging organic cards with any live seeding overrides.

    `column(scope)` is the scores' psi column with the overrides live in
    `current_round` laid over it (community scopes only). Each scope is
    merged once and kept, so build the view after the round's seeding and
    read it while the overrides stay as they are.
    """

    def __init__(self, scores: ScoreSet, overrides: PsiOverrides | None = None,
                 current_round: int = 0) -> None:
        self.scores = scores
        self.overrides = overrides
        self.current_round = current_round
        self._columns: dict[Scope, Mapping[int, float]] = {}

    def column(self, scope: Scope) -> Mapping[int, float]:
        col = self._columns.get(scope)
        if col is None:
            col = self.scores.column(scope)
            if self.overrides is not None and scope[0] == "community":
                live = self.overrides.live(scope[1], self.current_round)
                if live:
                    col = {**col, **live}
            self._columns[scope] = col
        return col

    def psi(self, content: int, scope: Scope) -> float:
        return self.column(scope).get(content, 0.0)


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


def exposure_weights(citizen: int, fabric, psi_view, pool: Sequence[int]) -> dict[int, float]:
    """Attention share per pool content for one citizen.

    `psi_view` needs a .column(scope) method returning {content: psi}
    (ScoreSet or EffectivePsi); missing scores count as zero. The numerators
    are built one term at a time over the whole pool: each is
    0 + term_1 + term_2 + ..., added left to right in `attention_terms`
    order (citizen first, then communities by id), as `left_sum` adds them.
    When every numerator is zero the budget is spread uniformly so a cold
    system still serves content.
    """
    if not pool:
        raise ValueError("candidate pool must be non-empty")
    (scope, w), *rest = attention_terms(citizen, fabric)
    psi = psi_view.column(scope)
    acc = [0 + w * psi.get(m, 0.0) for m in pool]
    for scope, w in rest:
        psi = psi_view.column(scope)
        acc = [a + w * psi.get(m, 0.0) for a, m in zip(acc, pool)]
    numerators = dict(zip(pool, acc))
    total = left_sum(numerators.values())
    if total <= 0.0:
        share = 1.0 / len(pool)
        return {m: share for m in pool}
    return {m: v / total for m, v in numerators.items()}


def build_feed(citizen: int, fabric, weights: Mapping[int, float], scores: ScoreSet,
               params: RankingParams, seed: int = 0, round_: int = 0) -> list[tuple[int, float]]:
    """Feed for one citizen: exploitation top-k plus seeded exploration slots,
    as (content, share) pairs in rank order.

    The top-k carry (1 - epsilon) of attention proportionally to their
    renormalized weights; epsilon is spread uniformly over up to k contents
    sampled from the rest of the pool. Shares always sum to 1. Entries are
    ordered by share descending, ties by content id. `fabric` and `scores`
    go unread; they keep `params` fifth, where perfbench's tracer reads it.
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


def _tag(scores: ScoreSet, content: int, scope: Scope) -> Optional[str]:
    """The content's provenance tag in `scope` as JSON, None unless its card is
    Bridging or Divisive; only a Divisive tag peeks at the balancing set."""
    label = scores.label(content, scope)
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
    round's) where the content is Bridging or Divisive. Community tags are
    the same for every citizen, so each is made once per call.

    Each line is byte-equal to `json.dumps(record, sort_keys=True) + "\n"`.
    Floats are written with `float.__repr__`, json's own float form, which
    also prints a numpy scalar as a plain number; ids and positions are ints,
    and the kind and scope-kind words need no escaping.
    """
    tail = f', "round": {round_}}}\n'
    community_tag = functools.cache(lambda content, c: _tag(scores, content, ("community", c)))
    last = None
    for citizen, content, share, rank in zip(*(column.tolist() for column in feeds)):
        if citizen != last:
            last = citizen
            head = f'{{"citizen": {citizen}, "content": '
            communities = fabric.member_communities(citizen)
        tags = [community_tag(content, c) for c in communities]
        tags.append(_tag(scores, content, ("citizen", citizen)))
        yield (f'{head}{content}, "exposure_share": {float.__repr__(share)}, '
               f'"provenance": [{", ".join(t for t in tags if t is not None)}], '
               f'"rank_position": {rank}{tail}')


def feed_to_records(round_: int, feeds: Feeds, scores: ScoreSet, fabric) -> list[dict]:
    """The records of `feed_lines`, parsed back into dicts."""
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
