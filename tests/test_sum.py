"""Float totals that reach artifacts are left folds on every Python.

Python 3.12 made builtin `sum` of floats compensated. The tests below lay a
compensated `sum`, as 3.12's builtin would be, over the namespaces of rank,
econ and fabric, and check that the totals reaching artifacts are still the
left fold 0 + v1 + v2 + ... that `sum` gives before 3.12.
"""

import random

import pytest

from plural import econ, fabric, rank
from plural._sum import left_sum
from plural.config import RankingParams
from plural.fabric import SocialFabric
from plural.score import ScoreSet

from test_rank import _TablePsi

TENTHS = [0.1] * 10       # left fold 0.9999999999999999, compensated 1.0


def left_fold(values):
    total = 0
    for v in values:
        total += v
    return total


def compensated_sum(values, start=0):
    """Neumaier's summation, the algorithm of builtin `sum` on floats from 3.12."""
    total, c = float(start), 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c


@pytest.fixture
def compensated(monkeypatch):
    assert compensated_sum(TENTHS) != left_fold(TENTHS)
    for module in (rank, econ, fabric):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_left_sum_is_the_left_fold():
    rng = random.Random(3)
    for n in (0, 1, 2, 10, 300):
        values = [rng.uniform(-1.0, 1.0) * 10 ** rng.randint(-8, 8) for _ in range(n)]
        assert repr(left_sum(values)) == repr(left_fold(values))
    assert left_sum(iter(TENTHS)) == left_fold(TENTHS) == 0.9999999999999999
    assert left_sum([]) == 0 and left_sum([-0.0]) == 0.0


def _citizen_with_tenths():
    f = SocialFabric()
    p = f.add_citizen(lambda_=1.0)
    for _ in TENTHS:
        c = f.add_community(lambda_=1.0)
        f.add_membership(p, c, 0.1, 0.1)
    return f, p


def test_exposure_weights_total(compensated):
    f, p = _citizen_with_tenths()
    pool = list(range(10))
    view = _TablePsi({(m, ("citizen", p)): 0.1 for m in pool})
    got = rank.exposure_weights(p, f, view, pool)
    assert got == {m: 0.1 / left_fold(TENTHS) for m in pool}


def test_build_feed_top_total(compensated):
    f, p = _citizen_with_tenths()
    weights = {m: 0.1 for m in range(10)}
    feed = rank.build_feed(p, f, weights, ScoreSet(), RankingParams(feed_size=10))
    assert [share for _, share in feed] == [0.1 / left_fold(TENTHS)] * 10


def test_sponsor_shares(compensated):
    terms = [(("citizen", k), 1.0, {0: 0.1}) for k in range(10)]
    assert econ._shares(terms, 0) == [(("citizen", k), 0.1 / left_fold(TENTHS))
                                      for k in range(10)]


def test_devotions_and_standings(compensated):
    f, p = _citizen_with_tenths()
    assert f.devotions(p) == {c: 0.1 / left_fold(TENTHS) for c in range(10)}
    c = f.add_community(lambda_=1.0)
    for _ in TENTHS:
        f.add_membership(f.add_citizen(), c, 0.1, 1.0)
    assert f.standings(c) == {q: 0.1 / left_fold(TENTHS) for q in f.communities[c].members}
