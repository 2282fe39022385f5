"""Ranking citizen by citizen: the oracle `rank.rank_feeds` must equal.

This is the walk the batched rank replaced. For each citizen in id order it
reads the attention terms off the fabric, builds the shares over the
citizen's unreacted pool with one dict, sorts the feed with Python's
`sorted` and draws its exploration slots from the citizen's own
`derive_rng` stream. The batched rank must give the same `Feeds` columns,
each entry's attention terms (`entry_terms`) among them.
"""

import numpy as np

from plural._rng import derive_rng
from plural._sum import left_sum
from plural.rank import Feeds


def attention_terms(citizen, fabric):
    """The attention numerator's (scope, weight) pairs for one citizen: its
    own scope with lambda(p) first, then each community c in id order with
    devotion(c; p) * lambda(c)."""
    devotions = fabric.devotions(citizen)
    return [(("citizen", citizen), fabric.citizens[citizen].lambda_)] + \
        [(("community", c), devotions[c] * fabric.communities[c].lambda_)
         for c in sorted(devotions)]


def entry_terms(citizen, fabric, psi_view, content):
    """The attention numerator's terms for the citizen's entry of `content`,
    as `Feeds.terms` lays them out: the citizen's own, then every
    community's in id order, 0.0 for a community it is not in."""
    at = psi_view.columns[content]
    terms = {scope: w * psi_view.column(scope)[at] for scope, w in attention_terms(citizen, fabric)}
    return [terms[("citizen", citizen)]] + \
        [terms.get(("community", c), 0.0) for c in sorted(fabric.communities)]


def feeds_table(feeds, fabric, psi_view):
    """`Feeds.of` each citizen's (content, share) feed, each entry with its
    `entry_terms`."""
    return Feeds.of({citizen: [(m, share, entry_terms(citizen, fabric, psi_view, m))
                               for m, share in feed] for citizen, feed in feeds.items()})


def exposure_weights(citizen, fabric, psi_view, pool):
    """Attention share per pool content: the numerators built one term at a
    time over the pool, their total a left fold, uniform when it is not
    positive."""
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


def build_feed(citizen, weights, params, seed, round_):
    """Top-k by (-weight, id) carrying (1 - epsilon), plus up to k seeded
    exploration slots from the rest sharing epsilon; ordered by (-share, id)."""
    ranked = sorted(weights, key=lambda m: (-weights[m], m))
    top = ranked[:params.feed_size]
    rest = ranked[params.feed_size:]
    top_total = left_sum(weights[m] for m in top)

    shares = {}
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


def rank_walk(groups, fabric, psi_view, params, seed, round_):
    """The round's `Feeds` of `groups` (as `rank.rank_feeds` takes them), one
    citizen at a time over the group pool contents it has not reacted to."""
    feeds = {}
    for group in groups:
        for citizen, reacted in zip(group.citizens.tolist(), group.reacted):
            pool = group.pool[~reacted].tolist()
            if not pool:
                continue
            weights = exposure_weights(citizen, fabric, psi_view, pool)
            feeds[citizen] = build_feed(citizen, weights, params, seed, round_)
    return feeds_table(feeds, fabric, psi_view)
