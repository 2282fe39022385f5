"""The artifact writers build each line with an f-string. Every line must
equal, byte for byte, what the general-purpose encoders they replaced wrote:
a record dict per feed entry through `json.dumps(sort_keys=True)`, with its
provenance read off the cards, and `csv.writer` over float reprs for the
ledger and the scorecards. Those encoders are kept here as oracles. A numpy
scalar is written as the plain number it holds, never as `np.float64(...)`."""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plural.econ import LEDGER_CSV_HEADER, REASONS, Ledger, LedgerEntry
from plural.fabric import SocialFabric
from plural.rank import Feeds, feed_lines, feed_to_records
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER,
                          SCORECARD_CSV_HEADER, ScoreCard, ScoreSet)

# The smallest subnormal, a tiny normal, a sum with a 17-digit repr, an
# integral float, a large float that repr prints in exponent form, and a
# numpy scalar (whose %r is `np.float64(...)`).
EDGE_FLOATS = [5e-324, 1e-16, 0.1 + 0.2, 1.0, 1e22, np.float64(0.1 + 0.2)]


# -- oracles: the encoders the writers replaced ----------------------------------

def provenance_oracle(scores, fabric, citizen, content):
    """A tag per Bridging or Divisive card of the content, over the citizen's
    communities in id order and then its own scope; only Divisive tags peek
    at the balancing set."""
    scopes = [("community", c) for c in sorted(fabric.citizens[citizen].memberships)]
    tags = []
    for scope in scopes + [("citizen", citizen)]:
        card = scores.cards.get((content, scope))
        if card is None or card.label not in (LABEL_BRIDGING, LABEL_DIVISIVE):
            continue
        peek = scores.balancing.get((content, scope), []) if card.label == LABEL_DIVISIVE else []
        tags.append({"scope_kind": scope[0], "scope_id": scope[1], "kind": card.label,
                     "balancing_peek": list(peek)})
    return tags


def records_oracle(round_, feeds, scores, fabric):
    return [{
        "round": round_,
        "citizen": citizen,
        "rank_position": rank,
        "content": content,
        "exposure_share": share,
        "provenance": provenance_oracle(scores, fabric, citizen, content),
    } for citizen, content, share, rank in zip(feeds.citizen.tolist(), feeds.content.tolist(),
                                              feeds.share.tolist(), feeds.rank.tolist())]


def feed_text_oracle(round_, feeds, scores, fabric):
    return "".join(json.dumps(rec, sort_keys=True) + "\n"
                   for rec in records_oracle(round_, feeds, scores, fabric))


def ledger_csv_oracle(ledger):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(LEDGER_CSV_HEADER)
    for e in ledger.entries:
        w.writerow([e.round, e.from_owner[0], e.from_owner[1],
                    e.to_owner[0], e.to_owner[1], repr(float(e.amount)), e.reason])
    return buf.getvalue()


def scores_csv_oracle(scores):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCORECARD_CSV_HEADER)
    for (content, scope) in sorted(scores.cards):
        c = scores.cards[(content, scope)]
        w.writerow([c.content, c.scope[0], c.scope[1],
                    *(repr(float(x)) for x in (c.iota, c.beta, c.delta, c.psi)),
                    c.label, ";".join(str(g) for g in sorted(c.characteristic_blocs))])
    return buf.getvalue()


# -- strategies -------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), finite, finite.map(np.float64))
ids = st.integers(0, 10 ** 9)
scopes = st.tuples(st.sampled_from(["citizen", "community"]), ids)
labels = st.sampled_from([LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER])
owners = st.tuples(st.sampled_from(["platform", "community", "citizen", "advertiser",
                                    "creator_pool"]), ids)
ledger_entries = st.builds(LedgerEntry, round=st.integers(0, 10 ** 6), from_owner=owners,
                           to_owner=owners, amount=floats, reason=st.sampled_from(REASONS))
cards = st.builds(ScoreCard, content=ids, scope=scopes, iota=floats, beta=floats,
                  delta=floats, psi=floats,
                  characteristic_blocs=st.frozensets(st.integers(0, 6), max_size=4),
                  label=labels)


@st.composite
def feed_worlds(draw):
    """A fabric, cards and balancing sets over some of its scopes, and a feed
    table of its citizens."""
    fabric = SocialFabric()
    citizens = [fabric.add_citizen() for _ in range(draw(st.integers(1, 4)))]
    communities = [fabric.add_community() for _ in range(draw(st.integers(0, 3)))]
    for p in citizens:
        for c in draw(st.sets(st.sampled_from(communities))) if communities else ():
            fabric.add_membership(p, c, 1.0, 1.0)
    contents = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    cards_, balancing = [], {}
    for m in contents:
        for scope in [("citizen", p) for p in citizens] + \
                [("community", c) for c in communities]:
            if draw(st.booleans()):
                cards_.append(ScoreCard(content=m, scope=scope, iota=0.0, beta=0.0,
                                        delta=0.0, psi=0.0, label=draw(labels)))
                if draw(st.booleans()):
                    balancing[(m, scope)] = draw(st.lists(ids, max_size=4))
    scores = ScoreSet.of(cards_)
    scores.balancing.update(balancing)
    # feed_lines reads no terms
    feed = st.lists(st.tuples(st.sampled_from(contents), floats, st.just(())), max_size=4,
                    unique_by=lambda e: e[0])
    feeds = Feeds.of({p: draw(feed) for p in draw(st.sets(st.sampled_from(citizens)))})
    return fabric, scores, feeds


def ledger_of(entries_):
    ledger = Ledger()
    ledger.entries = list(entries_)
    return ledger


# -- properties -------------------------------------------------------------------

@given(st.integers(0, 10 ** 6), feed_worlds())
@settings(max_examples=200, deadline=None)
def test_feed_lines_equal_json_dumps(round_, world):
    fabric, scores, feeds = world
    assert "".join(feed_lines(round_, feeds, scores, fabric)) == \
        feed_text_oracle(round_, feeds, scores, fabric)
    assert feed_to_records(round_, feeds, scores, fabric) == \
        records_oracle(round_, feeds, scores, fabric)


@given(st.lists(ledger_entries, max_size=12))
@settings(max_examples=200, deadline=None)
def test_ledger_csv_lines_equal_csv_writer(entries_):
    ledger = ledger_of(entries_)
    assert "".join(ledger.csv_lines()) == ledger_csv_oracle(ledger)
    assert ledger.to_csv() == ledger_csv_oracle(ledger)


@given(st.lists(cards, max_size=12))
@settings(max_examples=200, deadline=None)
def test_scorecard_csv_lines_equal_csv_writer(cards_):
    scores = ScoreSet.of(cards_)
    assert "".join(scores.csv_lines()) == scores_csv_oracle(scores)
    assert scores.to_csv() == scores_csv_oracle(scores)


# -- the required shapes, each written at least once --------------------------------

def test_feed_shapes_and_edge_floats():
    fabric = SocialFabric()
    citizens = [fabric.add_citizen() for _ in range(8)]
    for c in range(3):
        fabric.add_community()
    fabric.add_membership(7, 0, 1.0, 1.0)
    fabric.add_membership(7, 2, 1.0, 1.0)
    cards_, balancing = [], {}

    def card(content, scope, label, peek):
        cards_.append(ScoreCard(content=content, scope=scope, iota=0.0, beta=0.0, delta=0.0,
                                psi=0.0, label=label))
        balancing[(content, scope)] = peek

    for i in range(len(EDGE_FLOATS)):
        if i % 3:                                     # no tag on i % 3 == 0
            card(i, ("community", 2), LABEL_BRIDGING, [5])   # a Bridging tag never peeks
        if i % 3 == 2:
            card(i, ("citizen", 7), LABEL_DIVISIVE, [3])
            card(i, ("community", 0), LABEL_DIVISIVE, [4, 11, 9])
        card(i, ("community", 1), LABEL_DIVISIVE, [6])      # not one of 7's communities
    scores = ScoreSet.of(cards_)
    scores.balancing.update(balancing)
    feeds = Feeds.of({citizens[7]: [(m, share, ()) for m, share in enumerate(EDGE_FLOATS)]})
    text = "".join(feed_lines(3, feeds, scores, fabric))
    assert text == feed_text_oracle(3, feeds, scores, fabric)
    assert '"exposure_share": 1e+22,' in text and "np.float64" not in text
    assert '"provenance": [], ' in text
    assert '"balancing_peek": [4, 11, 9], "kind": "Divisive"' in text
    assert '"balancing_peek": [], "kind": "Bridging"' in text and "[5]" not in text
    assert '"scope_id": 1, "scope_kind": "community"' not in text


def test_ledger_reasons_and_edge_floats():
    ledger = ledger_of(LedgerEntry(r, ("community", r), ("citizen", 3 * r), x, reason)
                       for r, reason in enumerate(REASONS)
                       for x in EDGE_FLOATS)
    assert ledger.to_csv() == ledger_csv_oracle(ledger)
    assert "np.float64" not in ledger.to_csv()
    assert {line.rsplit(",", 1)[1] for line in ledger.to_csv().splitlines()[1:]} \
        == set(REASONS)


def test_scorecard_scopes_blocs_and_edge_floats():
    blocs = [frozenset(), frozenset({0, 2, 5})]
    scores = ScoreSet.of(ScoreCard(content=i, scope=(kind, i), iota=x, beta=x, delta=x,
                                   psi=x, characteristic_blocs=blocs[i % 2],
                                   label=LABEL_DIVISIVE if i % 2 else LABEL_NEITHER)
                         for i, x in enumerate(EDGE_FLOATS)
                         for kind in ("citizen", "community"))
    text = scores.to_csv()
    assert text == scores_csv_oracle(scores)
    assert "np.float64" not in text
    assert ",Divisive,0;2;5\n" in text and ",Neither,\n" in text
