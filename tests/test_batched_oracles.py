"""The batched passes against the per-item formulas they replaced.

Scoring builds every profile of a scope from one (contents x blocs) array of
bloc rates, and the belief phase aggregates every content's common belief
from one (contents x members) block. The scalar code those passes replaced
is kept here, verbatim, as the oracle: each batched row must equal it with
`==`, so the golden artifacts cannot move. Inputs cover consensus rows, zero
rates, zero weights, unsmoothed (alpha = 0) rates, single-level communities
and blocks handed over in Fortran order.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plural.config import ScoringParams
from plural.score import (LABEL_BRIDGING, LABEL_DIVISIVE, LABEL_NEITHER, ScoreSet,
                          _bloc_weights, _profile, _spreads, _with_psi,
                          consensus_products)
from plural.sim import _aggregate_rows, _bloc_positions


# -- oracles: the scalar formulas as they stood before batching ---------------------

def old_consensus_product(rates, weights):
    if np.all(rates == rates[0]):
        return float(rates[0])
    if np.any(rates[weights > 0] <= 0.0):
        return 0.0
    return float(np.exp(np.sum(weights * np.log(np.where(rates > 0, rates, 1.0)))))


def old_spread(rates):
    return (float(rates.max() - rates.min()),
            frozenset(int(g) for g in np.nonzero(rates >= 0.5)[0]))


def old_assign_label(beta, delta, characteristic, n_blocs, label_floor):
    if beta >= delta and beta >= label_floor:
        return LABEL_BRIDGING
    if delta > beta and delta >= label_floor and 0 < len(characteristic) < n_blocs:
        return LABEL_DIVISIVE
    return LABEL_NEITHER


def old_profile(rates, sizes, params, beta_override=None):
    """(beta, delta, label, characteristic, low_confidence, strength)."""
    weighting = "uniform" if params.backend == "gac_uniform" else "penrose"
    if len(sizes) >= 2:
        beta = old_consensus_product(rates, _bloc_weights(sizes, weighting)) \
            if beta_override is None else beta_override
        delta, characteristic = old_spread(rates)
        low_confidence = False
    else:
        beta = float(rates[0]) if len(sizes) else 0.5
        delta, characteristic = 0.0, frozenset()
        low_confidence = True
    label = old_assign_label(beta, delta, characteristic, max(len(sizes), 1),
                             params.label_floor)
    return beta, delta, label, characteristic, low_confidence, max(beta, delta)


def old_bloc_aggregate(means, sizes):
    means = np.asarray(means, dtype=float)
    return old_consensus_product(means, _bloc_weights(sizes, "penrose"))


def old_aggregate_values(values, weights, bloc_idx):
    if np.all(values == values[0]):
        return float(values[0])
    if bloc_idx is not None and len(bloc_idx) >= 2:
        means, sizes = [], []
        for idx in bloc_idx:
            if idx.size == 0:
                continue
            w = weights[idx]
            means.append(float(np.sum(w * values[idx]) / np.sum(w)))
            sizes.append(int(idx.size))
        return old_bloc_aggregate(means, sizes)
    return old_consensus_product(values, weights / weights.sum())


def profile_rows(rates, sizes, params, beta_override=None):
    """The rows `_profile` files for `rates` into a one-profile ScoreSet, read
    back through its cards as old_profile tuples. iota is 1.0, so psi is the
    strength max(beta, delta)."""
    n = rates.shape[0]
    scores = ScoreSet(range(n), [("community", 0)], [0], 1)
    _profile(scores, 0, list(range(n)), rates, sizes, params, beta_override)
    scores.iota[0] = 1.0
    cards = [_with_psi(scores, False).get(j, ("community", 0)) for j in range(n)]
    return [(c.beta, c.delta, c.label, c.characteristic_blocs, c.low_confidence, c.psi)
            for c in cards]


# -- strategies -------------------------------------------------------------------

alphas = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def smoothed_rate(draw, alpha):
    """A rate as the scoring pass makes one: (pos + a) / (pos + neg + 2a),
    0.5 with no votes and no smoothing."""
    pos, neg = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    denom = pos + neg + 2.0 * alpha
    return (pos + alpha) / denom if denom > 0 else 0.5


@st.composite
def rate_blocks(draw, min_cols=1, max_cols=7):
    """(contents x blocs) rates: smoothed rates, raw floats in [0, 1], exact
    zeros and ones, with some rows in consensus."""
    alpha = draw(alphas)
    m = draw(st.integers(1, 8))
    k = draw(st.integers(min_cols, max_cols))
    cell = st.one_of(smoothed_rate(alpha), st.sampled_from([0.0, 0.5, 1.0]),
                     st.floats(0.0, 1.0, allow_nan=False))
    rows = []
    for _ in range(m):
        if draw(st.booleans()):
            rows.append([draw(cell)] * k)
        else:
            rows.append([draw(cell) for _ in range(k)])
    return np.array(rows, dtype=float).reshape(m, k)


def layouts(block):
    """The block as handed over in C order, Fortran order and as a strided view."""
    wide = np.zeros((block.shape[0], 2 * block.shape[1]))
    wide[:, ::2] = block
    return [block, np.asfortranarray(block), wide[:, ::2]]


# -- consensus product, spread and profile ---------------------------------------

@given(rate_blocks(), st.data())
@settings(max_examples=300, deadline=None)
def test_consensus_rows_equal_scalar(rates, data):
    k = rates.shape[1]
    weights = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=k, max_size=k)))
    assume(weights.sum() > 0)
    weights = weights / weights.sum()
    want = [old_consensus_product(row, weights) for row in rates]
    for block in layouts(rates):
        assert consensus_products(block, weights).tolist() == want


@given(rate_blocks())
@settings(max_examples=200, deadline=None)
def test_spread_rows_equal_scalar(rates):
    want = [old_spread(row) for row in rates]
    for block in layouts(rates):
        delta, characteristic = _spreads(block)
        assert list(zip(delta.tolist(), characteristic)) == want


@given(rate_blocks(max_cols=7), st.sampled_from(["gac_penrose", "gac_uniform"]),
       st.sampled_from([0.0, 0.1, 0.3]), st.data())
@settings(max_examples=300, deadline=None)
def test_profile_rows_equal_scalar(rates, backend, floor, data):
    k = rates.shape[1]
    sizes = data.draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    params = ScoringParams(backend=backend, label_floor=floor)
    overrides = data.draw(st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)),
                                   min_size=len(rates), max_size=len(rates)))
    for override in (None, overrides):
        per_row = override or [None] * len(rates)
        want = [old_profile(row, sizes, params, o) for row, o in zip(rates, per_row)]
        for block in layouts(rates):
            assert profile_rows(block, sizes, params, override) == want


def test_profile_without_blocs():
    # no members: no rates, beta at the 0.5 prior, low confidence
    params = ScoringParams()
    want = old_profile(np.zeros(0), [], params)
    assert profile_rows(np.zeros((3, 0)), [], params) == [want] * 3


# -- common belief ------------------------------------------------------------------

@st.composite
def belief_cases(draw):
    """(contents x members) beliefs, standings, and the bloc structure: none,
    one bloc (single-level), or 2-5 blocs of up to 20 members, which may
    leave members out or be empty."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from([0.0, 1.0, 0.25]), st.floats(0.0, 1.0))
    rows = []
    for _ in range(m):
        if draw(st.booleans()):
            rows.append([draw(cell)] * n)
        else:
            rows.append([draw(cell) for _ in range(n)])
    values = np.array(rows, dtype=float).reshape(m, n)
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)))
    members = list(range(n))
    kind = draw(st.sampled_from(["none", "single", "blocs"]))
    if kind == "none":
        structure = None
    elif kind == "single":
        structure = [set(members)]
    else:
        n_blocs = draw(st.integers(2, 5))
        owner = draw(st.lists(st.integers(-1, n_blocs - 1), min_size=n, max_size=n))
        structure = [{p for p in members if owner[p] == g} for g in range(n_blocs)]
        assume(any(structure))
    return values, weights, structure


@given(belief_cases())
@settings(max_examples=300, deadline=None)
def test_common_belief_rows_equal_scalar(case):
    values, weights, structure = case
    bloc_idx = _bloc_positions(range(len(weights)), structure)
    want = [old_aggregate_values(row, weights, bloc_idx) for row in values]
    for block in layouts(values):
        assert _aggregate_rows(block, weights, bloc_idx).tolist() == want


def test_common_belief_block_in_fortran_order_over_wide_blocs():
    # Blocs of 40 members: each bloc mean is a pairwise sum over more than
    # eight terms, which a strided row reduction would add in another order.
    rng = np.random.default_rng(0)
    values = rng.random((30, 80))
    weights = rng.random(80) + 0.1
    bloc_idx = [np.arange(0, 80, 2), np.arange(1, 80, 2)]
    want = [old_aggregate_values(row, weights, bloc_idx) for row in values]
    gathered = values[:, np.arange(80)]      # a fancy-indexed block, as the loop takes one
    for block in (values, np.asfortranarray(values), gathered):
        assert _aggregate_rows(block, weights, bloc_idx).tolist() == want


@pytest.mark.parametrize("structure", [None, [{0, 1, 2, 3}]])
def test_single_level_consensus_and_zero(structure):
    values = np.array([[0.4, 0.4, 0.4, 0.4], [0.0, 0.2, 0.9, 0.5], [0.3, 0.6, 0.9, 0.1]])
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    bloc_idx = _bloc_positions([0, 1, 2, 3], structure)
    got = _aggregate_rows(values, weights, bloc_idx).tolist()
    assert got == [old_aggregate_values(row, weights, bloc_idx) for row in values]
    assert got[0] == 0.4 and got[1] == 0.0
