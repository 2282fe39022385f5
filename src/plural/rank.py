"""Attention allocation and feed construction.

A citizen's attention over a candidate pool follows the weighted coherence
scores of the citizen and of the communities they belong to:

    numerator(m) = lambda(p) * psi(m; p) + sum_c devotion(c; p) * lambda(c) * psi(m; c)

normalized over the pool. Feeds take the top-k of that distribution, keep a
small epsilon of attention for seeded random exploration slots, and label
every entry with its social provenance (where it bridges, where it divides,
and what balances it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from ._rng import derive_rng
from .config import RankingParams
from .errors import InsufficientStanding
from .score import LABEL_BRIDGING, LABEL_DIVISIVE, ScoreSet, Scope


@dataclass(slots=True)
class ProvenanceTag:
    """Why this content is in the feed, per scope it is notable in."""

    scope: Scope
    kind: str                                   # Bridging | Divisive
    balancing_peek: tuple[int, ...] = ()        # non-empty only for Divisive


@dataclass(slots=True)
class FeedEntry:
    content: int
    exposure_share: float
    provenance: list[ProvenanceTag] = field(default_factory=list)
    rank_position: int = 0


class PsiOverrides:
    """Staked initial-prominence overrides, keyed (content, community).

    While live, the override replaces the organic community-scope psi; it
    expires after `seed_rounds` rounds and organic scores take over.
    """

    def __init__(self) -> None:
        self._live: dict[int, dict[int, tuple[float, int]]] = {}   # community -> content

    def set(self, content: int, community: int, psi: float, expires_round: int) -> None:
        self._live.setdefault(community, {})[content] = (psi, expires_round)

    def get(self, content: int, community: int, current_round: int) -> Optional[float]:
        return self.live(community, current_round).get(content)

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
    order (citizen first, then communities by id), as `sum` adds them.
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
    total = sum(numerators.values())
    if total <= 0.0:
        share = 1.0 / len(pool)
        return {m: share for m in pool}
    return {m: v / total for m, v in numerators.items()}


def _provenance_for(citizen: int, communities: Sequence[int], content: int,
                    scores: ScoreSet) -> list[ProvenanceTag]:
    """Tags for the citizen's communities in id order, then the citizen's own
    scope. Community tags are the same for every citizen, so each
    (content, community) tag is made once per pass and kept in `scores.memo`."""
    tags: list[ProvenanceTag] = []
    memo = scores.memo
    for c in communities:
        key = ("provenance", content, c)
        if key not in memo:
            memo[key] = _tag(scores, content, ("community", c))
        tag = memo[key]
        if tag is not None:
            tags.append(tag)
    tag = _tag(scores, content, ("citizen", citizen))
    if tag is not None:
        tags.append(tag)
    return tags


def _tag(scores: ScoreSet, content: int, scope: Scope) -> Optional[ProvenanceTag]:
    label = scores.label(content, scope)
    if label == LABEL_BRIDGING:
        return ProvenanceTag(scope, label)
    if label == LABEL_DIVISIVE:
        return ProvenanceTag(scope, label, tuple(scores.balancing_for(content, scope)))
    return None


def build_feed(citizen: int, fabric, weights: Mapping[int, float], scores: ScoreSet,
               params: RankingParams, seed: int = 0, round_: int = 0) -> list[FeedEntry]:
    """Feed for one citizen: exploitation top-k plus seeded exploration slots.

    The top-k carry (1 - epsilon) of attention proportionally to their
    renormalized weights; epsilon is spread uniformly over up to k contents
    sampled from the rest of the pool. Shares always sum to 1. Entries are
    ordered by share descending, ties by content id.
    """
    ranked = sorted(weights, key=lambda m: (-weights[m], m))
    top = ranked[:params.feed_size]
    rest = ranked[params.feed_size:]
    top_total = sum(weights[m] for m in top)

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

    communities = fabric.member_communities(citizen)
    entries = [FeedEntry(content=m, exposure_share=s,
                         provenance=_provenance_for(citizen, communities, m, scores))
               for m, s in shares.items()]
    entries.sort(key=lambda e: (-e.exposure_share, e.content))
    for i, e in enumerate(entries):
        e.rank_position = i
    return entries


def feed_lines(round_: int, citizen: int, feed: Sequence[FeedEntry]) -> Iterator[str]:
    """feeds.jsonl lines: one JSON record per (round, citizen, rank_position).

    Each line is byte-equal to `json.dumps(record, sort_keys=True) + "\n"`.
    Floats are written with `float.__repr__`, json's own float form, which
    also prints a numpy scalar as a plain number; ids and positions are ints,
    and the kind and scope-kind words need no escaping.
    """
    head = f'{{"citizen": {citizen}, "content": '
    tail = f', "round": {round_}}}\n'
    for e in feed:
        tags = ", ".join(
            f'{{"balancing_peek": [{", ".join(map(str, t.balancing_peek))}], '
            f'"kind": "{t.kind}", "scope_id": {t.scope[1]}, "scope_kind": "{t.scope[0]}"}}'
            for t in e.provenance)
        yield (f'{head}{e.content}, "exposure_share": {float.__repr__(e.exposure_share)}, '
               f'"provenance": [{tags}], "rank_position": {e.rank_position}{tail}')


def feed_to_records(round_: int, citizen: int, feed: Sequence[FeedEntry]) -> list[dict]:
    """The records of `feed_lines`, parsed back into dicts."""
    return [json.loads(line) for line in feed_lines(round_, citizen, feed)]


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
