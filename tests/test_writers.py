"""The artifact writers build each line with an f-string. Every line must
equal, byte for byte, what the general-purpose encoders they replaced wrote:
a record dict per feed entry through `json.dumps(sort_keys=True)`, and
`csv.writer` over repr'd floats for the ledger and the scorecards. Those
encoders are kept here as oracles."""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plural.econ import LEDGER_CSV_HEADER, REASONS, Ledger, LedgerEntry
from plural.rank import FeedEntry, ProvenanceTag, feed_lines, feed_to_records
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER,
                          SCORECARD_CSV_HEADER, ScoreCard, ScoreSet)

# The smallest subnormal, a tiny normal, a sum with a 17-digit repr, an
# integral float, a large float that repr prints in exponent form, and a
# numpy scalar (whose %r is `np.float64(...)`).
EDGE_FLOATS = [5e-324, 1e-16, 0.1 + 0.2, 1.0, 1e22, np.float64(0.1 + 0.2)]


# -- oracles: the encoders the writers replaced ----------------------------------

def records_oracle(round_, citizen, feed):
    return [{
        "round": round_,
        "citizen": citizen,
        "rank_position": e.rank_position,
        "content": e.content,
        "exposure_share": e.exposure_share,
        "provenance": [{
            "scope_kind": t.scope[0],
            "scope_id": t.scope[1],
            "kind": t.kind,
            "balancing_peek": list(t.balancing_peek),
        } for t in e.provenance],
    } for e in feed]


def feed_text_oracle(round_, citizen, feed):
    return "".join(json.dumps(rec, sort_keys=True) + "\n"
                   for rec in records_oracle(round_, citizen, feed))


def ledger_csv_oracle(ledger):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(LEDGER_CSV_HEADER)
    for e in ledger.entries:
        w.writerow([e.round, e.from_owner[0], e.from_owner[1],
                    e.to_owner[0], e.to_owner[1], repr(e.amount), e.reason])
    return buf.getvalue()


def scores_csv_oracle(scores):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCORECARD_CSV_HEADER)
    for (content, scope) in sorted(scores.cards):
        c = scores.cards[(content, scope)]
        w.writerow([c.content, c.scope[0], c.scope[1],
                    repr(c.iota), repr(c.beta), repr(c.delta), repr(c.psi),
                    c.label, ";".join(str(g) for g in sorted(c.characteristic_blocs))])
    return buf.getvalue()


# -- strategies -------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), finite, finite.map(np.float64))
ids = st.integers(0, 10 ** 9)
scopes = st.tuples(st.sampled_from(["citizen", "community"]), ids)
tags = st.builds(ProvenanceTag, scope=scopes,
                 kind=st.sampled_from([LABEL_BRIDGING, LABEL_DIVISIVE]),
                 balancing_peek=st.lists(ids, max_size=4).map(tuple))
entries = st.builds(FeedEntry, content=ids, exposure_share=floats,
                    provenance=st.lists(tags, max_size=3), rank_position=st.integers(0, 100))
owners = st.tuples(st.sampled_from(["platform", "community", "citizen", "advertiser",
                                    "creator_pool"]), ids)
ledger_entries = st.builds(LedgerEntry, round=st.integers(0, 10 ** 6), from_owner=owners,
                           to_owner=owners, amount=floats, reason=st.sampled_from(REASONS))
cards = st.builds(ScoreCard, content=ids, scope=scopes, iota=floats, beta=floats,
                  delta=floats, psi=floats,
                  characteristic_blocs=st.frozensets(st.integers(0, 6), max_size=4),
                  label=st.sampled_from([LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER]))


def ledger_of(entries_):
    ledger = Ledger()
    ledger.entries = list(entries_)
    return ledger


def scores_of(cards_):
    scores = ScoreSet()
    for card in cards_:
        scores.add(card)
    return scores


# -- properties -------------------------------------------------------------------

@given(st.integers(0, 10 ** 6), ids, st.lists(entries, max_size=6))
@settings(max_examples=200, deadline=None)
def test_feed_lines_equal_json_dumps(round_, citizen, feed):
    assert "".join(feed_lines(round_, citizen, feed)) == \
        feed_text_oracle(round_, citizen, feed)
    assert feed_to_records(round_, citizen, feed) == records_oracle(round_, citizen, feed)


@given(st.lists(ledger_entries, max_size=12))
@settings(max_examples=200, deadline=None)
def test_ledger_csv_lines_equal_csv_writer(entries_):
    ledger = ledger_of(entries_)
    assert "".join(ledger.csv_lines()) == ledger_csv_oracle(ledger)
    assert ledger.to_csv() == ledger_csv_oracle(ledger)


@given(st.lists(cards, max_size=12))
@settings(max_examples=200, deadline=None)
def test_scorecard_csv_lines_equal_csv_writer(cards_):
    scores = scores_of(cards_)
    assert "".join(scores.csv_lines()) == scores_csv_oracle(scores)
    assert scores.to_csv() == scores_csv_oracle(scores)


# -- the required shapes, each written at least once --------------------------------

def test_feed_shapes_and_edge_floats():
    bridging = ProvenanceTag(("community", 2), LABEL_BRIDGING)
    divisive = ProvenanceTag(("citizen", 7), LABEL_DIVISIVE, (3,))
    peeked = ProvenanceTag(("community", 0), LABEL_DIVISIVE, (4, 11, 9))
    provenances = [[], [bridging], [bridging, divisive, peeked]]
    feed = [FeedEntry(content=i, exposure_share=x, provenance=provenances[i % 3],
                      rank_position=i)
            for i, x in enumerate(EDGE_FLOATS)]
    text = "".join(feed_lines(3, 7, feed))
    assert text == feed_text_oracle(3, 7, feed)
    assert '"exposure_share": 1e+22,' in text and "np.float64" not in text
    assert '"provenance": [], ' in text
    assert '"balancing_peek": [4, 11, 9], "kind": "Divisive"' in text


def test_ledger_reasons_and_edge_floats():
    ledger = ledger_of(LedgerEntry(r, ("community", r), ("citizen", 3 * r), x, reason)
                       for r, reason in enumerate(REASONS)
                       for x in EDGE_FLOATS)
    assert ledger.to_csv() == ledger_csv_oracle(ledger)
    assert {line.rsplit(",", 1)[1] for line in ledger.to_csv().splitlines()[1:]} \
        == set(REASONS)


def test_scorecard_scopes_blocs_and_edge_floats():
    blocs = [frozenset(), frozenset({0, 2, 5})]
    scores = scores_of(ScoreCard(content=i, scope=(kind, i), iota=x, beta=x, delta=x,
                                 psi=x, characteristic_blocs=blocs[i % 2],
                                 label=LABEL_DIVISIVE if i % 2 else LABEL_NEITHER)
                       for i, x in enumerate(EDGE_FLOATS)
                       for kind in ("citizen", "community"))
    text = scores.to_csv()
    assert text == scores_csv_oracle(scores)
    assert ",Divisive,0;2;5\n" in text and ",Neither,\n" in text
