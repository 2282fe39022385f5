"""The closed loop: create, detect, score, rank, react, settle, measure.

The generative model places citizens in ideological blocs; a citizen's
attitude to content decays logistically with squared ideological distance,
personal belief is attitude times accumulated exposure, and a scope's common
belief is a consensus-sensitive aggregate of member beliefs: standing-
weighted means inside each principal subcommunity, combined across
subcommunities by a square-root-weighted geometric mean. A single seed fixes
every draw, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from ._rng import derive_rng, derive_seed
from .config import ScenarioConfig
from .detect import principal_subcommunities
from .econ import (PLATFORM, Advertiser, Ledger, PolicyBook, reward_standing,
                   sell_standing, settle_round)
from .errors import DegenerateInput, EmptyCommunity, TooSmall
from .fabric import SocialFabric
from .rank import (EffectivePsi, FeedEntry, PsiOverrides, build_feed,
                   exposure_weights, feed_to_records, seed_content)
from .score import (ContentItem, ReactionMatrix, ScoreSet, _bloc_weights,
                    consensus_product, divisiveness, score_round)


@dataclass
class AgentState:
    """Latent state of one citizen; attitudes and beliefs live in the run's
    per-content arrays (see `RunResult.exposed`)."""

    citizen: int
    ideology: np.ndarray


@dataclass
class RoundMetrics:
    """One row of metrics.csv.

    `mean_common_belief_top_bridging` averages, over communities, the common
    belief in each community's top-10 contents by cumulative exposure in
    that community, not by bridging score; the name stays because it is the
    metrics.csv column header. `polarization_index` is the mean approval
    spread across principal subcommunities over the same contents, and
    `coherence` the mean common belief in each community's top-5 cards by psi.
    """

    round: int
    mean_common_belief_top_bridging: float
    polarization_index: float
    attention_gini: float
    platform_revenue: float
    coherence: dict[int, float] = field(default_factory=dict)


# -- generative model ----------------------------------------------------------

def gen_population(config: ScenarioConfig, seed: int) -> tuple[SocialFabric, dict[int, AgentState]]:
    """Synthetic fabric plus agent states from the scenario's bloc templates.

    Bloc sizes follow the configured fractions (largest remainder rounding);
    ideologies are per-bloc Gaussian. Every membership starts with equal raw
    standing and devotion.
    """
    pop = config.population
    n = pop.n_citizens
    rng = derive_rng(seed, "population")

    counts = [int(math.floor(b.fraction * n)) for b in pop.blocs]
    remainders = sorted(range(len(pop.blocs)),
                        key=lambda i: (-(pop.blocs[i].fraction * n - counts[i]), i))
    for i in range(n - sum(counts)):
        counts[remainders[i % len(counts)]] += 1

    fabric = SocialFabric()
    states: dict[int, AgentState] = {}
    bloc_of: list[int] = []
    for b, count in enumerate(counts):
        bloc_of.extend([b] * count)

    n_subscribers = int(round(pop.subscriber_fraction * n))
    n_ads_ok = int(round(pop.accepts_personal_ads_fraction * n))
    subscriber_ids = set(rng.choice(n, size=n_subscribers, replace=False).tolist()) if n_subscribers else set()
    ads_ok_ids = set(rng.choice(n, size=n_ads_ok, replace=False).tolist()) if n_ads_ok else set()

    for p in range(n):
        bloc = pop.blocs[bloc_of[p]]
        ideology = np.asarray(bloc.center) + rng.normal(0.0, bloc.sigma, size=pop.ideology_dim)
        fabric.add_citizen(lambda_=pop.citizen_lambda,
                           subscriber=p in subscriber_ids,
                           accepts_personal_ads=p in ads_ok_ids)
        states[p] = AgentState(citizen=p, ideology=ideology)

    for template in config.communities:
        cid = fabric.add_community(lambda_=template.lambda_,
                                   admin_registered=template.admin_registered)
        wanted = set(template.blocs)
        for p in range(n):
            if bloc_of[p] in wanted:
                fabric.add_membership(p, cid, raw_standing=1.0, raw_devotion=1.0)
    return fabric, states


def attitudes(ideologies: np.ndarray, latent_position: np.ndarray,
              temperature: float) -> np.ndarray:
    """Every citizen's attitude to one content, one row of `ideologies` each.

    Logistic decay in squared ideological distance, 0.5 at distance zero;
    the exponent is capped at 700 so exp cannot overflow.
    """
    d2 = np.sum((ideologies - np.asarray(latent_position)) ** 2, axis=1)
    return 1.0 / (1.0 + np.exp(np.minimum(d2 / temperature, 700.0)))


def attitude(ideology: np.ndarray, latent_position: np.ndarray,
             temperature: float = 1.0) -> float:
    """One citizen's attitude: `attitudes` over a single row."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    row = np.reshape(np.asarray(ideology, dtype=float), (1, -1))
    return float(attitudes(row, latent_position, temperature)[0])


def react(attitude_value: float, exposure_share: float, rng: np.random.Generator,
          engagement_scale: float = 1.0) -> int:
    """One reaction draw: engagement gated by the attention share, then
    approve with probability equal to the attitude."""
    if not (0.0 <= attitude_value <= 1.0):
        raise ValueError("attitude must be in [0, 1]")
    p_engage = min(max(exposure_share * engagement_scale, 0.0), 1.0)
    if p_engage <= 0.0 or rng.random() >= p_engage:
        return 0
    return 1 if rng.random() < attitude_value else -1


def bloc_aggregate(means: Sequence[float], sizes: Sequence[int] | None = None) -> float:
    """Across-subcommunity aggregation: sqrt-size-weighted geometric mean.

    Exact under consensus; zero whenever the mean of any subcommunity with
    members is zero (weakest link).
    """
    means = np.asarray(means, dtype=float)
    if means.size == 0:
        raise EmptyCommunity("no subcommunity means")
    weights = _bloc_weights(means, "uniform") if sizes is None \
        else _bloc_weights(sizes, "penrose")
    return consensus_product(means, weights)


def _aggregate_values(values: np.ndarray, weights: np.ndarray,
                      bloc_idx: Sequence[np.ndarray] | None) -> float:
    """Vectorized aggregation core shared by the dict API and the round loop."""
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
        return bloc_aggregate(means, sizes)
    return consensus_product(values, weights / weights.sum())


def aggregate_belief(beliefs: Mapping[int, float], standings: Mapping[int, float],
                     structure: Sequence[set[int]] | None = None) -> float:
    """Common belief of a scope from member beliefs.

    Two-level when principal subcommunities are known: standing-weighted
    arithmetic mean inside each bloc, sqrt-size-weighted geometric mean
    across blocs. Single-level standing-weighted geometric mean otherwise.
    Consensus returns the common value exactly.
    """
    members = sorted(standings)
    if not members:
        raise EmptyCommunity("aggregation over an empty member set")
    values = np.array([beliefs.get(p, 0.0) for p in members])
    if np.any((values < -1e-12) | (values > 1 + 1e-12)):
        raise ValueError("beliefs must lie in [0, 1]")
    values = np.clip(values, 0.0, 1.0)
    weights = np.array([standings[p] for p in members], dtype=float)
    return _aggregate_values(values, weights, _bloc_positions(members, structure))


def _bloc_positions(members: Sequence[int],
                    structure: Sequence[set[int]] | None) -> list[np.ndarray] | None:
    """Each bloc's positions in the sorted `members`; None below two blocs."""
    if not structure or len(structure) < 2:
        return None
    pos = {p: i for i, p in enumerate(members)}
    return [np.array([pos[p] for p in sorted(b) if p in pos], dtype=int) for b in structure]


def attention_gini(totals: Sequence[float]) -> float:
    """Gini coefficient of the exposure distribution over contents."""
    x = np.sort(np.asarray(totals, dtype=float))
    n = x.size
    if n == 0 or x.sum() <= 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(2.0 * np.sum(ranks * x) / (n * x.sum()) - (n + 1) / n)


# -- the round loop -------------------------------------------------------------

@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: list[RoundMetrics]
    fabric: SocialFabric
    agents: dict[int, AgentState]
    catalog: dict[int, ContentItem]
    reactions: ReactionMatrix
    ledger: Ledger
    scores: Optional[ScoreSet]
    feeds: list[tuple[int, int, list[FeedEntry]]]   # (round, citizen, feed)
    events: list[dict]
    attitude_arr: dict[int, np.ndarray]             # content -> attitude per citizen
    cum_exposure: dict[int, np.ndarray]             # content -> exposure per citizen

    @property
    def feed_records(self) -> list[dict]:
        """Every feed entry as its feeds.jsonl record, derived on demand."""
        return [rec for round_, citizen, feed in self.feeds
                for rec in feed_to_records(round_, citizen, feed)]

    def exposed(self, citizen: int) -> dict[int, tuple[float, float]]:
        """{content: (attitude, belief)} over the contents the citizen has
        been exposed to; belief is attitude times cumulative exposure."""
        out = {}
        for mid in sorted(self.catalog):
            cum = float(self.cum_exposure[mid][citizen])
            if cum > 0:
                a = float(self.attitude_arr[mid][citizen])
                out[mid] = (a, a * cum)
        return out


class _Simulation:
    """One run's mutable state; `run()` drives the phase sequence."""

    def __init__(self, config: ScenarioConfig, seed: int, rounds: int):
        self.config = config
        self.seed = seed
        self.rounds = rounds
        self.fabric, self.agents = gen_population(config, seed)
        self.catalog: dict[int, ContentItem] = {}
        self.reactions = ReactionMatrix()
        self.ledger = Ledger()
        self.overrides = PsiOverrides()
        self.policies = PolicyBook(default_price=config.econ.default_price_per_lambda_impression)
        self.advertisers: dict[int, Advertiser] = {}
        self.events: list[dict] = []
        self.feeds: list[tuple[int, int, list[FeedEntry]]] = []
        self.metrics: list[RoundMetrics] = []
        self.scores: Optional[ScoreSet] = None

        # dense per-content state, indexed by citizen id
        self.n = config.population.n_citizens
        self._ideologies = np.vstack([self.agents[p].ideology for p in range(self.n)]) \
            if self.n else np.zeros((0, config.population.ideology_dim))
        self.attitude_arr: dict[int, np.ndarray] = {}
        self.cum_exposure: dict[int, np.ndarray] = {}

        ledger = self.ledger
        ledger.open_account(PLATFORM, 0.0)
        for cid, template in enumerate(self.config.communities):
            ledger.open_account(("community", cid), template.balance)
            if template.price_per_lambda_impression is not None:
                self.policies.prices[("community", cid)] = template.price_per_lambda_impression
        for p in range(self.n):
            if self.fabric.citizens[p].subscriber:
                ledger.open_account(("citizen", p), config.population.citizen_balance)
        for aid, adv_cfg in enumerate(config.advertisers):
            adv = Advertiser(id=aid, deals=adv_cfg.deals,
                             personal_targeting=adv_cfg.personal_targeting,
                             personal_price=adv_cfg.personal_price)
            self.advertisers[aid] = adv
            ledger.open_account(("advertiser", aid), adv_cfg.budget)
            if adv_cfg.standing_purchase is not None:
                sp = adv_cfg.standing_purchase
                sell_standing(adv, sp.community, sp.amount, sp.price,
                              ledger, self.fabric, round_=0)

    # -- phases ----------------------------------------------------------------

    def _new_content(self, round_: int, creator: int, creator_kind: str,
                     position: np.ndarray, targets: set[int], topic: int) -> ContentItem:
        mid = len(self.catalog)
        item = ContentItem(id=mid, creator=creator, topics={topic},
                           created_round=round_, target_communities=set(targets),
                           latent_position=position, creator_kind=creator_kind)
        self.catalog[mid] = item
        self.attitude_arr[mid] = attitudes(self._ideologies, position,
                                           self.config.sim.attitude_temperature)
        self.cum_exposure[mid] = np.zeros(self.n)
        return item

    def _create_phase(self, round_: int) -> None:
        cfg = self.config
        rng = derive_rng(self.seed, "create", round_)
        for _ in range(cfg.content.creators_per_round):
            creator = int(rng.integers(self.n)) if self.n else 0
            if self.n == 0:
                break
            targets = set(self.fabric.member_communities(creator))
            if not targets:
                continue
            position = self.agents[creator].ideology + \
                rng.normal(0.0, cfg.content.content_noise, size=cfg.population.ideology_dim)
            topic = int(rng.integers(cfg.content.n_topics))
            item = self._new_content(round_, creator, "citizen", position, targets, topic)
            stake_drawn = float(rng.exponential(cfg.content.stake_mean)) \
                if cfg.content.stake_mean > 0 else 0.0
            for cid in sorted(targets):
                available = self.fabric.raw_standing(creator, cid) - 2e-6
                stake = min(stake_drawn, max(available, 0.0))
                if stake > 0:
                    seed_content(self.overrides, self.fabric, item, cid, stake,
                                 cfg.ranking, round_)
        for aid in sorted(self.advertisers):
            adv_cfg = cfg.advertisers[aid]
            adv = self.advertisers[aid]
            targets = {d.community for d in adv.deals if d.accepted}
            if not targets or adv_cfg.items_per_round == 0:
                continue
            for _ in range(adv_cfg.items_per_round):
                position = np.asarray(adv_cfg.position) if adv_cfg.position is not None \
                    else np.zeros(cfg.population.ideology_dim)
                topic = int(rng.integers(cfg.content.n_topics))
                item = self._new_content(round_, aid, "advertiser", position, targets, topic)
                for cid in sorted(targets):
                    stake = min(adv_cfg.seed_stake, adv.seeding_allowance.get(cid, 0.0))
                    if stake > 0:
                        seed_content(self.overrides, self.fabric, item, cid, stake,
                                     cfg.ranking, round_, allowance=adv.seeding_allowance)

    def _refresh_structure(self, round_: int) -> None:
        if len(self.reactions) == 0:
            return
        matrix = self.reactions.to_attitudes(row_ids=sorted(self.fabric.citizens))
        for cid in sorted(self.fabric.communities):
            try:
                principal_subcommunities(self.fabric, cid, matrix,
                                         seed=derive_seed(self.seed, "sigma", round_, cid))
            except (TooSmall, DegenerateInput):
                pass  # keep the previous structure, if any

    def _base_pools(self) -> dict[tuple, list[int]]:
        """Candidate contents per (membership signature, personal-ads flag)."""
        pools: dict[tuple, list[int]] = {}
        for citizen in sorted(self.fabric.citizens):
            p = self.fabric.citizens[citizen]
            key = (tuple(self.fabric.member_communities(citizen)), p.accepts_personal_ads)
            if key in pools:
                continue
            comms = set(key[0])
            pool = []
            for mid in sorted(self.catalog):
                item = self.catalog[mid]
                if item.target_communities & comms:
                    pool.append(mid)
                elif item.creator_kind == "advertiser" and p.accepts_personal_ads \
                        and self.advertisers[item.creator].personal_targeting:
                    pool.append(mid)
            pools[key] = pool
        return pools

    def _candidate_pool(self, citizen: int, base_pools: dict) -> list[int]:
        p = self.fabric.citizens[citizen]
        key = (tuple(self.fabric.member_communities(citizen)), p.accepts_personal_ads)
        row = self.reactions.for_citizen(citizen)
        return [mid for mid in base_pools[key]
                if mid not in row or row[mid].reaction == 0]

    def _rank_phase(self, round_: int, psi_view: EffectivePsi) -> dict[int, list]:
        base_pools = self._base_pools()
        feeds: dict[int, list] = {}
        for citizen in sorted(self.fabric.citizens):
            pool = self._candidate_pool(citizen, base_pools)
            if not pool:
                continue
            weights = exposure_weights(citizen, self.fabric, psi_view, pool)
            feed = build_feed(citizen, self.fabric, weights, self.scores,
                              self.config.ranking, seed=self.seed, round_=round_)
            if feed:
                feeds[citizen] = feed
        return feeds

    def _react_phase(self, round_: int, feeds: Mapping[int, list]) -> None:
        scale = self.config.sim.engagement_scale
        for citizen in sorted(feeds):
            rng = derive_rng(self.seed, "react", round_, citizen)
            for entry in feeds[citizen]:
                self.reactions.record_exposure(citizen, entry.content, round_)
                a = float(self.attitude_arr[entry.content][citizen])
                r = react(a, entry.exposure_share, rng, scale)
                if r != 0:
                    self.reactions.record_reaction(citizen, entry.content, r, round_)

    def _community_arrays(self, cid: int):
        """(member index array, aligned standings, bloc position arrays or None)."""
        comm = self.fabric.communities[cid]
        members = sorted(comm.members)
        idx = np.array(members, dtype=int)
        standings = self.fabric.standings(cid)
        w = np.array([standings[p] for p in members])
        return idx, w, _bloc_positions(members, comm.principal_subcommunities)

    def _common_belief(self, mid: int, idx: np.ndarray, w: np.ndarray, bloc_idx) -> float:
        """A community's common belief about one content (its member arrays)."""
        values = self.attitude_arr[mid][idx] * self.cum_exposure[mid][idx]
        return _aggregate_values(values, w, bloc_idx)

    def _belief_phase(self, round_: int, feeds: Mapping[int, list]) -> None:
        for citizen in sorted(feeds):
            for entry in feeds[citizen]:
                arr = self.cum_exposure[entry.content]
                arr[citizen] = min(1.0, arr[citizen] + entry.exposure_share)

        gamma = self.config.sim.attitude_feedback_gamma
        if gamma <= 0 or not self.catalog:
            return
        community_beliefs = self._community_beliefs()
        comm_ids = sorted(self.fabric.communities)
        devotion_matrix = np.zeros((self.n, len(comm_ids)))
        has_membership = np.zeros(self.n, dtype=bool)
        col = {c: j for j, c in enumerate(comm_ids)}
        for p in range(self.n):
            dev = self.fabric.devotions(p)
            if dev:
                has_membership[p] = True
                for c, d in dev.items():
                    devotion_matrix[p, col[c]] = d
        for mid in sorted(self.catalog):
            b_vec = np.array([community_beliefs.get((mid, c), 0.0) for c in comm_ids])
            ambient = devotion_matrix @ b_vec
            # feedback only reshapes attitudes to encountered content
            mask = (self.cum_exposure[mid] > 0) & has_membership
            att = self.attitude_arr[mid]
            att[mask] = (1.0 - gamma) * att[mask] + gamma * ambient[mask]

    def _community_beliefs(self) -> dict[tuple[int, int], float]:
        out: dict[tuple[int, int], float] = {}
        for cid in sorted(self.fabric.communities):
            if not self.fabric.communities[cid].members:
                continue
            idx, w, bloc_idx = self._community_arrays(cid)
            for mid in sorted(self.catalog):
                out[(mid, cid)] = self._common_belief(mid, idx, w, bloc_idx)
        return out

    def _adapt_devotion(self, feeds: Mapping[int, list]) -> None:
        rate = self.config.sim.devotion_adapt_rate
        if rate <= 0:
            return
        for citizen in sorted(feeds):
            spent: dict[int, float] = {}
            for entry in feeds[citizen]:
                for cid in self.catalog[entry.content].target_communities:
                    if cid in self.fabric.citizens[citizen].memberships:
                        spent[cid] = spent.get(cid, 0.0) + entry.exposure_share
            for cid, share in sorted(spent.items()):
                edge = self.fabric.citizens[citizen].memberships[cid]
                self.fabric.update_devotion(citizen, cid, edge.raw_devotion + rate * share)

    def _metrics_phase(self, round_: int, community_exposure: Mapping[int, dict[int, float]],
                       platform_before: float) -> RoundMetrics:
        scoring = self.config.scoring
        revenue = self.ledger.balance(PLATFORM) - platform_before

        totals = [float(np.sum(self.cum_exposure[m])) for m in sorted(self.catalog)]
        gini = attention_gini(totals) if totals else 0.0

        spreads: list[float] = []
        commons: list[float] = []
        coherence: dict[int, float] = {}
        for cid in sorted(self.fabric.communities):
            comm = self.fabric.communities[cid]
            if not comm.members:
                continue
            idx, w, bloc_idx = self._community_arrays(cid)
            exposure = community_exposure.get(cid, {})
            top = sorted(exposure, key=lambda m: (-exposure[m], m))[:10]

            if top:
                vals = [self._common_belief(mid, idx, w, bloc_idx) for mid in top]
                commons.append(float(np.mean(vals)))
                if bloc_idx is not None:
                    per_content = [divisiveness(self.reactions, mid, comm.principal_subcommunities,
                                                alpha=scoring.alpha)[0] for mid in top]
                    spreads.append(float(np.mean(per_content)))

            if self.scores is not None:
                cards = self.scores.community_cards(cid)
                cards.sort(key=lambda c: (-c.psi, c.content))
                vals = [self._common_belief(card.content, idx, w, bloc_idx)
                        for card in cards[:5]]
                coherence[cid] = float(np.mean(vals)) if vals else 0.0

        return RoundMetrics(
            round=round_,
            mean_common_belief_top_bridging=float(np.mean(commons)) if commons else 0.0,
            polarization_index=float(np.mean(spreads)) if spreads else 0.0,
            attention_gini=gini,
            platform_revenue=revenue,
            coherence=coherence,
        )

    # -- driver ------------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.config
        community_exposure: dict[int, dict[int, float]] = {}
        for round_ in range(self.rounds):
            self.policies.apply_pending(self.fabric)
            self._create_phase(round_)
            if cfg.sim.refresh_interval > 0 and round_ % cfg.sim.refresh_interval == 0:
                self._refresh_structure(round_)
            self.scores = score_round(self.fabric, self.catalog, self.reactions,
                                      cfg.scoring, round_,
                                      mf_seed=derive_seed(self.seed, "mf", round_))
            psi_view = EffectivePsi(self.scores, self.overrides, round_)
            feeds = self._rank_phase(round_, psi_view)
            for citizen in sorted(feeds):
                self.feeds.append((round_, citizen, feeds[citizen]))
                for entry in feeds[citizen]:
                    for cid in self.fabric.member_communities(citizen):
                        community_exposure.setdefault(cid, {})
                        community_exposure[cid][entry.content] = \
                            community_exposure[cid].get(entry.content, 0.0) + entry.exposure_share
            self._react_phase(round_, feeds)
            self._belief_phase(round_, feeds)
            platform_before = self.ledger.balance(PLATFORM)
            self.events.extend(settle_round(round_, feeds, self.fabric, self.catalog,
                                            psi_view, self.policies, self.advertisers,
                                            cfg.econ, self.ledger))
            reward_standing(self.scores, self.fabric, cfg.econ.standing_reward_rate,
                            self.catalog)
            self._adapt_devotion(feeds)
            self.metrics.append(self._metrics_phase(round_, community_exposure,
                                                    platform_before))

        return RunResult(config=cfg, metrics=self.metrics, fabric=self.fabric,
                         agents=self.agents, catalog=self.catalog,
                         reactions=self.reactions, ledger=self.ledger,
                         scores=self.scores, feeds=self.feeds, events=self.events,
                         attitude_arr=self.attitude_arr, cum_exposure=self.cum_exposure)


def run(config: ScenarioConfig, seed: int | None = None,
        rounds: int | None = None) -> RunResult:
    """Execute a scenario; overrides replace the configured seed/round count."""
    effective_seed = config.seed if seed is None else seed
    effective_rounds = config.sim.rounds if rounds is None else rounds
    return _Simulation(config, effective_seed, effective_rounds).run()


def metrics_csv(metrics: Sequence[RoundMetrics], community_ids: Sequence[int]) -> str:
    """One row per round; per-community coherence as trailing columns."""
    import csv as _csv
    import io as _io
    buf = _io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    cols = ["round", "mean_common_belief_top_bridging", "polarization_index",
            "attention_gini", "platform_revenue"] + \
           [f"coherence_{c}" for c in community_ids]
    w.writerow(cols)
    for m in metrics:
        w.writerow([m.round, repr(m.mean_common_belief_top_bridging),
                    repr(m.polarization_index), repr(m.attention_gini),
                    repr(m.platform_revenue)] +
                   [repr(m.coherence.get(c, 0.0)) for c in community_ids])
    return buf.getvalue()
