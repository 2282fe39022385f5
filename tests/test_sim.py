"""Simulation: generative model, belief aggregation, metrics, and the loop."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plural.config import ScenarioConfig
from plural.detect import principal_subcommunities
from plural.errors import EmptyCommunity
from plural.score import ReactionMatrix
from plural.sim import (RoundMetrics, _Simulation, _aggregate_rows, _bloc_positions,
                        attention_gini, attitudes, gen_population, metrics_csv, react, run)
from plural._rng import SEED_MAX, derive_rng
from test_golden import DEMO, _load_workloads

TINY_SCENARIO = {
    "schema_version": 1,
    "seed": 3,
    "population": {
        "n_citizens": 40,
        "ideology_dim": 1,
        "blocs": [
            {"fraction": 0.25, "center": [-0.6], "sigma": 0.12},
            {"fraction": 0.25, "center": [0.6], "sigma": 0.12},
            {"fraction": 0.25, "center": [-0.6], "sigma": 0.12},
            {"fraction": 0.25, "center": [0.6], "sigma": 0.12},
        ],
    },
    "communities": [
        {"blocs": [0, 1], "lambda": 1.0, "balance": 50.0},
        {"blocs": [2, 3], "lambda": 1.0, "balance": 50.0},
    ],
    "content": {"creators_per_round": 3, "stake_mean": 0.005, "content_noise": 0.45},
    "advertisers": [],
    "scoring": {"backend": "gac_penrose", "half_life": 5.0},
    "ranking": {"feed_size": 4, "epsilon": 0.1},
    "econ": {"standing_reward_rate": 0.05},
    "sim": {"rounds": 5, "refresh_interval": 2, "attitude_temperature": 1.5,
            "engagement_scale": 2.0},
}


def tiny_config(**overrides):
    doc = copy.deepcopy(TINY_SCENARIO)
    for block, values in overrides.items():
        if isinstance(values, dict):
            doc.setdefault(block, {}).update(values)
        else:
            doc[block] = values
    return ScenarioConfig.from_dict(doc)


class TestGenPopulation:
    def test_empty_population(self):
        cfg = tiny_config(population={"n_citizens": 0})
        fabric, ideologies = gen_population(cfg, seed=1)
        assert fabric.citizens == {} and ideologies.shape == (0, 1)
        assert len(fabric.communities) == 2

    def test_deterministic(self):
        cfg = tiny_config()
        f1, a1 = gen_population(cfg, seed=9)
        f2, a2 = gen_population(cfg, seed=9)
        assert f1.to_dict() == f2.to_dict()
        assert a1.shape == (40, 1) and np.array_equal(a1, a2)

    def test_bloc_fractions_respected(self):
        cfg = tiny_config()
        fabric, _ = gen_population(cfg, seed=0)
        assert len(fabric.citizens) == 40
        assert len(fabric.communities[0].members) == 20
        assert len(fabric.communities[1].members) == 20

    def test_planted_blocs_recoverable(self):
        # separation 2.0 at sigma 0.1: reactions generated straight from attitudes
        doc = copy.deepcopy(TINY_SCENARIO)
        doc["population"]["n_citizens"] = 24
        doc["population"]["blocs"] = [
            {"fraction": 0.5, "center": [-1.0], "sigma": 0.1},
            {"fraction": 0.5, "center": [1.0], "sigma": 0.1},
        ]
        doc["communities"] = [{"blocs": [0, 1], "lambda": 1.0, "balance": 0.0}]
        cfg = ScenarioConfig.from_dict(doc)
        fabric, ideologies = gen_population(cfg, seed=4)
        rng = derive_rng(4, "test-reactions")
        rm = ReactionMatrix()
        positions = [np.array([-0.9 if m % 2 else 0.9]) for m in range(12)]
        for mid, pos in enumerate(positions):
            for p, a in zip(fabric.citizens, attitudes(ideologies, pos, 1.0).tolist()):
                rm.record_reaction(p, mid, 1 if rng.random() < a else -1, 0)
        blocs = principal_subcommunities(fabric, 0, rm.to_attitudes(), seed=2)
        planted = [set(range(12)), set(range(12, 24))]
        for truth in planted:
            best = max(len(truth & b) / len(truth | b) for b in blocs)
            assert best >= 0.9


class TestAttitude:
    """`attitudes`, every citizen's attitude to one content at once."""

    def test_zero_distance_half(self):
        assert attitudes(np.zeros((1, 3)), np.zeros(3), 1.0)[0] == pytest.approx(0.5)

    def test_far_goes_to_zero(self):
        assert attitudes(np.array([[0.0]]), np.array([50.0]), 1.0)[0] < 1e-12

    def test_symmetric_agents_equal(self):
        a1, a2 = attitudes(np.array([[1.0, 0.5], [-1.0, -0.5]]), np.zeros(2), 1.3)
        assert a1 == pytest.approx(a2)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            tiny_config(sim={"attitude_temperature": 0.0})

    @pytest.mark.parametrize("temperature", [1.0, 0.37])
    def test_scalar_equals_the_loops_vector(self, temperature):
        # a citizen's attitude scored alone is bit-equal to its entry in the
        # loop's all-citizen vector, also past the exp cap
        zs = [0.0, 0.3, 5.0, 700.0, 701.0, 1e6]
        pos = np.array([0.2, -0.1])
        rows = np.array([pos + [np.sqrt(z * temperature), 0.0] for z in zs])
        vector = attitudes(rows, pos, temperature)
        for i, z in enumerate(zs):
            assert attitudes(rows[i:i + 1], pos, temperature)[0] == vector[i], z
        capped = 1.0 / (1.0 + np.exp(700.0))
        assert vector[4] == capped > 0.0
        assert vector[5] == capped


class TestReact:
    def test_zero_exposure_never_reacts(self):
        rng = derive_rng(0, "r")
        assert all(react(0.9, 0.0, rng) == 0 for _ in range(100))

    def test_full_exposure_full_attitude(self):
        rng = derive_rng(1, "r")
        assert all(react(1.0, 1.0, rng) == 1 for _ in range(100))

    def test_monte_carlo_rate(self):
        rng = derive_rng(2, "r")
        draws = [react(0.7, 1.0, rng) for _ in range(100_000)]
        assert np.mean([d == 1 for d in draws]) == pytest.approx(0.7, abs=0.01)

    def test_engagement_scale_keeps_gate(self):
        rng = derive_rng(3, "r")
        # scaled engagement still never fires at zero exposure
        assert all(react(0.5, 0.0, rng, engagement_scale=10.0) == 0 for _ in range(50))


def common_beliefs(rows, weights, structure=None):
    """`_aggregate_rows` over rows of member beliefs, members 0..n-1 weighted
    by their standings `weights`, blocs given as member sets."""
    return _aggregate_rows(np.array(rows, dtype=float, ndmin=2), np.array(weights, dtype=float),
                           _bloc_positions(range(len(weights)), structure))


class TestAggregateBelief:
    def test_consensus_exact(self):
        beliefs, standings = [0.37] * 5, [0.2] * 5
        assert common_beliefs(beliefs, standings)[0] == 0.37
        assert common_beliefs(beliefs, standings, [{0, 1}, {2, 3, 4}])[0] == 0.37

    def test_weakest_link_zero(self):
        # a whole subcommunity at zero kills the cross-bloc geometric mean
        got = common_beliefs([0.9, 0.9, 0.0, 0.0], [0.25] * 4, [{0, 1}, {2, 3}])[0]
        assert got == pytest.approx(0.0, abs=1e-12)
        # without structure, any single zero-belief member is the weak link
        single = common_beliefs([0.9, 0.0], [0.5, 0.5])[0]
        assert single == pytest.approx(0.0, abs=1e-12)

    def test_schur_instance(self):
        # equal-size blocs, means (0.9, 0.3) vs (0.6, 0.6): sqrt(0.27) < 0.6
        split, even = common_beliefs([[0.9, 0.3], [0.6, 0.6]], [0.5, 0.5], [{0}, {1}])
        assert split == pytest.approx(np.sqrt(0.27))
        assert even == 0.6
        assert split < even

    def test_within_member_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            beliefs = rng.uniform(0, 1, n)
            raw = rng.uniform(0.2, 2.0, n)
            k = int(rng.integers(0, 3))
            structure = None
            if k and n >= 4:
                ids = list(range(n))
                rng.shuffle(ids)
                structure = [set(ids[: n // 2]), set(ids[n // 2:])]
            b = common_beliefs(beliefs, raw / raw.sum(), structure)[0]
            assert beliefs.min() - 1e-12 <= b <= beliefs.max() + 1e-12

    def test_strictly_increasing_in_member_belief(self):
        standings = [0.4, 0.6]
        low, high = common_beliefs([[0.4, 0.5], [0.45, 0.5]], standings)
        assert high > low
        low2, high2 = common_beliefs([[0.4, 0.5], [0.45, 0.5]], standings, [{0}, {1}])
        assert high2 > low2

    def test_standing_raises_influence(self):
        # finite-difference sensitivity to member 0's belief grows with standing
        def sensitivity(s0):
            eps = 1e-6
            lo, hi = common_beliefs([[0.5, 0.6], [0.5 + eps, 0.6]], [s0, 1 - s0], [{0, 1}])
            return (hi - lo) / eps

        assert sensitivity(0.7) > sensitivity(0.3) > 0

    def test_empty_rejected(self):
        # two blocs, neither holding a member: no bloc mean to combine
        with pytest.raises(EmptyCommunity):
            common_beliefs([0.2, 0.4], [0.5, 0.5], [{5}, {6}])

    def test_bloc_aggregate_weights(self):
        # blocs of 4 and 1 members in internal consensus: sqrt(4):sqrt(1) = 2:1
        got = common_beliefs([0.9] * 4 + [0.3], [0.2] * 5, [{0, 1, 2, 3}, {4}])[0]
        assert got == pytest.approx(0.9 ** (2 / 3) * 0.3 ** (1 / 3))


class TestAttentionGini:
    def test_uniform_zero(self):
        assert attention_gini([0.25] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate(self):
        for k in (2, 5, 10):
            totals = [1.0] + [0.0] * (k - 1)
            assert attention_gini(totals) == pytest.approx((k - 1) / k)

    def test_empty_and_zero(self):
        assert attention_gini([]) == 0.0
        assert attention_gini([0.0, 0.0]) == 0.0


class TestRun:
    def test_zero_rounds(self):
        res = run(tiny_config(sim={"rounds": 0}))
        assert res.metrics == []
        assert len(res.catalog) == 0
        assert len(res.reactions) == 0

    def test_same_seed_identical_outputs(self):
        cfg = tiny_config()
        a = run(cfg)
        b = run(cfg)
        ids = sorted(a.fabric.communities)
        assert metrics_csv(a.metrics, ids) == metrics_csv(b.metrics, ids)
        assert a.feed_lines == b.feed_lines
        assert a.ledger.to_csv() == b.ledger.to_csv()

    def test_seed_override_changes_run(self):
        cfg = tiny_config()
        a = run(cfg)
        b = run(cfg, seed=99)
        ids = sorted(a.fabric.communities)
        assert metrics_csv(a.metrics, ids) != metrics_csv(b.metrics, ids)

    def test_audits_and_invariants(self):
        res = run(tiny_config())
        res.fabric.audit()
        res.ledger.audit()
        assert len(res.metrics) == 5
        for m in res.metrics:
            assert 0.0 <= m.polarization_index <= 1.0
            assert 0.0 <= m.attention_gini <= 1.0
            assert 0.0 <= m.mean_common_belief_top_bridging <= 1.0
        # belief = attitude * cumulative exposure, so belief <= attitude
        assert (res.exposure > 0).any()
        assert (res.attitude * res.exposure <= res.attitude + 1e-12).all()

    def test_attention_conservation_every_round(self):
        res = run(tiny_config())
        per = {}
        for rec in map(json.loads, res.feed_lines):
            key = (rec["round"], rec["citizen"])
            per[key] = per.get(key, 0.0) + rec["exposure_share"]
        assert per, "expected feeds"
        for total in per.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_sponsorship_spends_community_balance(self):
        res = run(tiny_config())
        spent = sum(e.amount for e in res.ledger.entries
                    if e.from_owner[0] == "community")
        assert spent > 0
        assert res.ledger.balance(("platform", 0)) > 0

    @pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
    def test_seed_outside_range_rejected(self, seed):
        # -1 would otherwise run as SEED_MAX
        with pytest.raises(ValueError, match="seed must be in"):
            run(tiny_config(), seed=seed)
        run(tiny_config(), seed=SEED_MAX, rounds=1)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            run(tiny_config(), rounds=-3)


def market_doc(seed: int = 0, rounds: int = 4) -> dict:
    """The benchmark's `market` scenario: overlapping communities, with each
    citizen in two, subscribers and advertisers."""
    base = json.loads(DEMO.read_text(encoding="utf-8"))
    return _load_workloads().scenario(base, "market", seed, rounds=rounds)


def brute_community_exposure(res) -> dict[int, dict[int, float]]:
    """Each community's served attention share per content, summed over every
    feed of each of its members, feed by feed and entry by entry."""
    totals: dict[int, dict[int, float]] = {}
    for rec in map(json.loads, res.feed_lines):
        for cid in res.fabric.member_communities(rec["citizen"]):
            per = totals.setdefault(cid, {})
            per[rec["content"]] = per.get(rec["content"], 0.0) + rec["exposure_share"]
    return totals


@pytest.mark.parametrize("config,zero_entry,zero_cell", [
    (tiny_config, False, False),
    (lambda: ScenarioConfig.from_dict(market_doc()), True, False),
    # after one round, two served (community, content) cells hold only zero shares
    (lambda: ScenarioConfig.from_dict(market_doc(rounds=1)), True, True)],
    ids=["tiny", "market", "market-1-round"])
def test_run_state_invariants(config, zero_entry, zero_cell):
    cfg = config()
    simulation = _Simulation(cfg, cfg.seed, cfg.sim.rounds)
    res = simulation.run()
    n = len(res.fabric.citizens)
    assert res.ideologies.shape == (n, cfg.population.ideology_dim)
    assert res.attitude.shape == res.exposure.shape == (len(res.catalog), n)
    for arr in (res.attitude, res.exposure):
        assert ((arr >= 0.0) & (arr <= 1.0)).all()
    served = np.zeros(res.exposure.shape, dtype=bool)
    for rec in map(json.loads, res.feed_lines):
        served[rec["content"], rec["citizen"]] |= rec["exposure_share"] > 0
    assert served.any()
    assert np.array_equal(res.exposure > 0, served)
    # each community's totals and served contents, cell by cell
    brute = brute_community_exposure(res)
    communities = sorted(res.fabric.communities)
    assert simulation.community_exposure.shape == simulation.served.shape == \
        (len(communities), len(res.catalog))
    for k, cid in enumerate(communities):
        per = brute.get(cid, {})
        assert np.flatnonzero(simulation.served[k]).tolist() == sorted(per)
        want = np.zeros(len(res.catalog))
        want[list(per)] = list(per.values())
        assert simulation.community_exposure[k].tolist() == want.tolist()
    shares = [rec["exposure_share"] for rec in map(json.loads, res.feed_lines)]
    assert (0.0 in shares) == zero_entry
    assert (simulation.served & (simulation.community_exposure == 0.0)).any() == zero_cell


class _TableRecorder(_Simulation):
    """A run that keeps each round's feed table."""

    def _rank_phase(self, *args):
        table = super()._rank_phase(*args)
        self.tables.append(table)
        return table


def assert_feed_table(feeds):
    """Citizens ascend; each citizen's ranks run 0..k-1 and its shares sum
    to 1; no (citizen, content) appears twice."""
    citizen, content, share, rank = (column.tolist() for column in feeds[:4])
    assert len(citizen) == len(content) == len(share) == len(rank)
    assert citizen == sorted(citizen)
    assert len(set(zip(citizen, content))) == len(citizen)
    ranks: dict[int, list[int]] = {}
    totals: dict[int, float] = {}
    for p, r, s in zip(citizen, rank, share):
        ranks.setdefault(p, []).append(r)
        totals[p] = totals.get(p, 0.0) + s
    for p, got in ranks.items():
        assert got == list(range(len(got))), p
        assert totals[p] == pytest.approx(1.0, abs=1e-9), p


def test_feed_tables_are_well_formed():
    """Every round's feed table of small tiny and market runs."""
    entries = []

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(market=st.booleans(), seed=st.integers(0, 31), rounds=st.integers(1, 4))
    def check(market, seed, rounds):
        doc = market_doc(seed, rounds) if market else copy.deepcopy(TINY_SCENARIO)
        simulation = _TableRecorder(ScenarioConfig.from_dict(doc), seed, rounds)
        simulation.tables = []
        simulation.run()
        assert len(simulation.tables) == rounds
        for table in simulation.tables:
            assert_feed_table(table)
            entries.append(len(table.citizen))

    check()
    assert sum(entries) > 0


def test_run_values_are_builtin_floats():
    """Over small tiny and market runs, every ledger amount and balance,
    every membership's raw standing and raw devotion, and every float field
    of RoundMetrics is a built-in float. A numpy scalar read off a psi row
    where a float belongs would slip past the golden digests, since
    json.dumps(np.float64(0.1)) writes 0.1."""
    float_fields = [f.name for f in dataclasses.fields(RoundMetrics) if f.type == "float"]
    assert len(float_fields) == 4

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(market=st.booleans(), seed=st.integers(0, 31), rounds=st.integers(1, 4))
    def check(market, seed, rounds):
        doc = market_doc(seed, rounds) if market else copy.deepcopy(TINY_SCENARIO)
        res = run(ScenarioConfig.from_dict(doc), seed=seed, rounds=rounds)
        values = {"ledger amount": [e.amount for e in res.ledger.entries],
                  "balance": [res.ledger.balance(owner) for owner in res.ledger.owners],
                  "raw standing": [], "raw devotion": [], "metrics": []}
        for citizen in res.fabric.citizens.values():
            for edge in citizen.memberships.values():
                values["raw standing"].append(edge.raw_standing)
                values["raw devotion"].append(edge.raw_devotion)
        for row in res.metrics:
            values["metrics"] += [getattr(row, name) for name in float_fields]
            values["metrics"] += list(row.coherence.values())
        for what, held in values.items():
            assert held, what
            assert [type(v) for v in held if type(v) is not float] == [], what

    check()


def test_market_runs_stay_sound_on_small_budgets():
    """Small budgets make settlement clamp lambdas and skip ad payments;
    across the examples both happen, and every run keeps both audits and
    whole feeds. Only a clamp changes a lambda: after the run each citizen
    and community keeps its scenario lambda, or 0.0 if it was clamped."""
    kinds: set[str] = set()
    small = st.sampled_from([0.0, 0.01, 0.05, 0.2])

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 31), rounds=st.integers(1, 4),
           balances=st.lists(small, min_size=4, max_size=4),
           budgets=st.lists(small, min_size=2, max_size=2),
           citizen_balance=st.sampled_from([0.0, 0.001, 0.01]))
    def check(seed, rounds, balances, budgets, citizen_balance):
        doc = market_doc(seed, rounds)
        for community, balance in zip(doc["communities"], balances):
            community["balance"] = balance
        for adv, budget in zip(doc["advertisers"], budgets):
            # on top of the 0.5 its standing purchase costs at set-up
            adv["budget"] = 0.5 + budget
        doc["population"]["citizen_balance"] = citizen_balance
        cfg = ScenarioConfig.from_dict(doc)
        res = run(cfg)
        res.fabric.audit()
        res.ledger.audit()
        per: dict[tuple[int, int], float] = {}
        for rec in map(json.loads, res.feed_lines):
            key = (rec["round"], rec["citizen"])
            per[key] = per.get(key, 0.0) + rec["exposure_share"]
        assert per
        for total in per.values():
            assert total == pytest.approx(1.0, abs=1e-9)
        kinds.update(event["kind"] for event in res.events)
        clamped = {event["owner"] for event in res.events if event["kind"] == "lambda_clamped"}
        scenario = {("citizen", p): cfg.population.citizen_lambda for p in res.fabric.citizens}
        scenario.update({("community", cid): template.lambda_
                         for cid, template in enumerate(cfg.communities)})
        lambdas = {("citizen", p): c.lambda_ for p, c in res.fabric.citizens.items()}
        lambdas.update({("community", cid): c.lambda_
                        for cid, c in res.fabric.communities.items()})
        assert lambdas == {owner: 0.0 if owner in clamped else value
                           for owner, value in scenario.items()}

    check()
    assert {"lambda_clamped", "ad_skipped"} <= kinds


def test_adapt_devotion_moves_only_served_edges():
    """With devotion adapting, each round an edge (p, c) gains rate times the
    summed shares, in entry order, of p's served entries whose content
    targets c; every other edge keeps its raw devotion, and every member's
    devotions still sum to 1."""
    moved = []

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 31), rounds=st.integers(1, 4),
           rate=st.sampled_from([0.1, 1.0]))
    def check(seed, rounds, rate):
        doc = market_doc(seed, rounds)
        doc["sim"]["devotion_adapt_rate"] = rate
        raw: list[dict] = []     # every edge's raw devotion, at each sink call
        served: list = []        # the feed records handed to each sink call

        def sink(lines, ledger):
            fabric = simulation.fabric
            raw.append({(p, c): edge.raw_devotion for p, citizen in fabric.citizens.items()
                        for c, edge in citizen.memberships.items()})
            served.append([json.loads(line) for line in lines])
            for p in fabric.citizens:
                if fabric.citizens[p].memberships:
                    assert sum(fabric.devotions(p).values()) == pytest.approx(1.0, abs=1e-12)

        simulation = _Simulation(ScenarioConfig.from_dict(doc), seed, rounds, sink)
        simulation.run()
        assert len(raw) == rounds + 1
        for before, after, rows in zip(raw, raw[1:], served[1:]):
            expected = dict(before)
            spent: dict[tuple[int, int], float] = {}
            for rec in rows:
                citizen = rec["citizen"]
                for c in simulation.catalog[rec["content"]].target_communities:
                    if (citizen, c) in before:
                        spent[citizen, c] = spent.get((citizen, c), 0.0) + rec["exposure_share"]
            for edge, share in spent.items():
                expected[edge] = before[edge] + rate * share
            assert after == expected
            moved.append(after != before)

    check()
    assert any(moved)


def test_held_devotion_matrix_follows_adaptation():
    """The run's devotion matrix, built at set-up and rebuilt only when
    `_adapt_devotion` moves an edge, is the fabric's after a run whose
    devotions moved."""
    doc = market_doc(3, 3)
    doc["sim"]["devotion_adapt_rate"] = 0.1
    simulation = _Simulation(ScenarioConfig.from_dict(doc), 3, 3)
    before = simulation.devotion.copy()
    simulation.run()
    assert (simulation.devotion == simulation.fabric.devotion_matrix()).all()
    assert (simulation.devotion != before).any()
