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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._rng import SEED_MAX, derive_rng, derive_rngs, derive_seed
from .config import ScenarioConfig
from .detect import principal_subcommunities
from .econ import (PLATFORM, Advertiser, Ledger, OwnerRef, reward_standing,
                   sell_standing, settle_round)
from .errors import DegenerateInput, EmptyCommunity, TooSmall
from .fabric import SocialFabric
from .rank import (Feeds, Group, PsiOverrides, feed_lines, rank_feeds, seed_content,
                   served, term_weights)
from .score import (ContentItem, ReactionMatrix, ScoreSet, _bloc_weights, _spreads,
                    bloc_rates, consensus_products, score_round)


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

def gen_population(config: ScenarioConfig, seed: int) -> tuple[SocialFabric, np.ndarray]:
    """Synthetic fabric plus the (citizens x ideology_dim) ideology matrix,
    one row per citizen id, from the scenario's bloc templates.

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
    ideologies = np.zeros((n, pop.ideology_dim))
    bloc_of: list[int] = []
    for b, count in enumerate(counts):
        bloc_of.extend([b] * count)

    n_subscribers = int(round(pop.subscriber_fraction * n))
    n_ads_ok = int(round(pop.accepts_personal_ads_fraction * n))
    subscriber_ids = set(rng.choice(n, size=n_subscribers, replace=False).tolist()) if n_subscribers else set()
    ads_ok_ids = set(rng.choice(n, size=n_ads_ok, replace=False).tolist()) if n_ads_ok else set()

    for p in range(n):
        bloc = pop.blocs[bloc_of[p]]
        ideologies[p] = np.asarray(bloc.center) + rng.normal(0.0, bloc.sigma, size=pop.ideology_dim)
        fabric.add_citizen(lambda_=pop.citizen_lambda,
                           subscriber=p in subscriber_ids,
                           accepts_personal_ads=p in ads_ok_ids)

    for template in config.communities:
        cid = fabric.add_community(lambda_=template.lambda_,
                                   admin_registered=template.admin_registered)
        wanted = set(template.blocs)
        for p in range(n):
            if bloc_of[p] in wanted:
                fabric.add_membership(p, cid, raw_standing=1.0, raw_devotion=1.0)
    return fabric, ideologies


def attitudes(ideologies: np.ndarray, latent_position: np.ndarray,
              temperature: float) -> np.ndarray:
    """Every citizen's attitude to one content, one row of `ideologies` each.

    Logistic decay in squared ideological distance, 0.5 at distance zero;
    the exponent is capped at 700 so exp cannot overflow.
    """
    d2 = np.sum((ideologies - np.asarray(latent_position)) ** 2, axis=1)
    return 1.0 / (1.0 + np.exp(np.minimum(d2 / temperature, 700.0)))


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


def _aggregate_rows(values: np.ndarray, weights: np.ndarray,
                    bloc_idx: Sequence[np.ndarray] | None) -> np.ndarray:
    """Common beliefs of one scope, one per row of `values` (a content's
    member beliefs, aligned with the member `weights`).

    A row in consensus gives its common value. Otherwise, with two or more
    blocs (member positions in `bloc_idx`), the geometric mean of the bloc
    means weighted by the square roots of the bloc sizes (EmptyCommunity if
    no bloc has a member); else the weighted geometric mean of the row.
    Every row reduction runs over a C-contiguous block, where numpy sums
    each row as it sums a 1-D array.
    """
    values = np.ascontiguousarray(values, dtype=float)
    out = values[:, 0].copy()
    rest = ~(values == values[:, :1]).all(axis=1)
    if not rest.any():
        return out
    block = values[rest]
    if bloc_idx is not None and len(bloc_idx) >= 2:
        means, sizes = [], []
        for idx in bloc_idx:
            if idx.size == 0:
                continue
            w = weights[idx]
            means.append(np.sum(w * np.ascontiguousarray(block[:, idx]), axis=1) / np.sum(w))
            sizes.append(int(idx.size))
        if not means:
            raise EmptyCommunity("no subcommunity means")
        out[rest] = consensus_products(np.stack(means, axis=1), _bloc_weights(sizes, "penrose"))
    else:
        out[rest] = consensus_products(block, weights / weights.sum())
    return out


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

# Takes a run's feeds.jsonl lines and ledger rows as they are made: called
# with no lines once the rows posted before round 0 are in the ledger, then
# with each round's lines as the round ends. These are formatted as they are
# drawn, so a sink draws them before it returns, or formats none.
Sink = Callable[[Iterable[str], Ledger], None]


@dataclass
class RunResult:
    """What a run leaves. Without a sink, `feed_lines` holds every feeds.jsonl
    line. With one (see `run`), the sink took the lines and ledger rows, and
    the ledger's balances and `audit()` still cover every posting."""

    config: ScenarioConfig
    metrics: list[RoundMetrics]
    fabric: SocialFabric
    catalog: dict[int, ContentItem]
    reactions: ReactionMatrix
    ledger: Ledger
    scores: Optional[ScoreSet]
    feed_lines: list[str]
    events: list[dict]
    ideologies: np.ndarray   # (citizens x ideology_dim)
    attitude: np.ndarray     # (contents x citizens)
    exposure: np.ndarray     # (contents x citizens), cumulative attention share


class _Simulation:
    """One run's mutable state; `run()` drives the phase sequence.

    The latent state is three arrays indexed by citizen id and content id:
    `ideologies` (citizens x dim), and `attitude` and `exposure` (contents x
    citizens), which, like the reaction arrays, gain a row per content.
    """

    def __init__(self, config: ScenarioConfig, seed: int, rounds: int,
                 sink: Optional[Sink] = None):
        self.config = config
        self.seed = seed
        self.rounds = rounds
        self.fabric, self.ideologies = gen_population(config, seed)
        self.catalog: dict[int, ContentItem] = {}
        self.reactions = ReactionMatrix(citizens=range(config.population.n_citizens))
        self.ledger = Ledger()
        self.overrides = PsiOverrides()
        # price overrides per lambda-weighted impression; other owners pay the default
        self.prices: dict[OwnerRef, float] = {
            ("community", cid): t.price_per_lambda_impression
            for cid, t in enumerate(config.communities) if t.price_per_lambda_impression is not None}
        self.advertisers: dict[int, Advertiser] = {}
        self.events: list[dict] = []
        self.feed_lines: list[str] = []
        kept = self.feed_lines   # not self: a cycle would outlive the run while gc is off
        self.sink: Sink = sink if sink is not None else (lambda lines, ledger: kept.extend(lines))
        self.metrics: list[RoundMetrics] = []
        self.scores: Optional[ScoreSet] = None

        self.n = config.population.n_citizens
        self.attitude = np.zeros((0, self.n))
        self.exposure = np.zeros((0, self.n))
        # (communities x contents): members' summed feed shares; served to any
        self.community_exposure = np.zeros((len(self.fabric.communities), 0))
        self.served = np.zeros(self.community_exposure.shape, dtype=bool)
        # `_adapt_devotion` is a run's only writer of raw devotion, and only
        # `gen_population` adds memberships
        self.devotion = self.fabric.devotion_matrix()
        members: dict[tuple, list[int]] = {}   # by (membership signature, ads flag)
        for citizen in sorted(self.fabric.citizens):
            ads = self.fabric.citizens[citizen].accepts_personal_ads
            members.setdefault((tuple(self.fabric.member_communities(citizen)), ads),
                               []).append(citizen)
        self.groups = [(set(communities), ads, np.array(citizens, dtype=np.int64))
                       for (communities, ads), citizens in members.items()]

        ledger = self.ledger
        ledger.open_account(PLATFORM, 0.0)
        for cid, template in enumerate(self.config.communities):
            ledger.open_account(("community", cid), template.balance)
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
                     targets: set[int], topic: int) -> ContentItem:
        mid = len(self.catalog)
        item = ContentItem(id=mid, creator=creator, topics={topic},
                           created_round=round_, target_communities=set(targets),
                           creator_kind=creator_kind)
        self.catalog[mid] = item
        return item

    def _create_phase(self, round_: int) -> None:
        """The round's new contents and their seeding; their cells in the run's
        arrays are added together at the end (nothing here reads them)."""
        cfg = self.config
        rng = derive_rng(self.seed, "create", round_)
        first, positions = len(self.catalog), []
        for _ in range(cfg.content.creators_per_round if self.n else 0):
            creator = int(rng.integers(self.n))
            targets = set(self.fabric.member_communities(creator))
            if not targets:
                continue
            position = self.ideologies[creator] + \
                rng.normal(0.0, cfg.content.content_noise, size=cfg.population.ideology_dim)
            topic = int(rng.integers(cfg.content.n_topics))
            item = self._new_content(round_, creator, "citizen", targets, topic)
            positions.append(position)
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
                item = self._new_content(round_, aid, "advertiser", targets, topic)
                positions.append(position)
                for cid in sorted(targets):
                    stake = min(adv_cfg.seed_stake, adv.seeding_allowance.get(cid, 0.0))
                    if stake > 0:
                        seed_content(self.overrides, self.fabric, item, cid, stake,
                                     cfg.ranking, round_, allowance=adv.seeding_allowance)
        if positions:
            temperature = cfg.sim.attitude_temperature
            self.attitude = np.vstack([self.attitude] + [
                attitudes(self.ideologies, position, temperature) for position in positions])
            self.exposure = np.vstack([self.exposure, np.zeros((len(positions), self.n))])
            grown = (len(self.fabric.communities), len(positions))
            self.community_exposure = np.hstack([self.community_exposure, np.zeros(grown)])
            self.served = np.hstack([self.served, np.zeros(grown, dtype=bool)])
            self.reactions.reserve(contents=range(first, len(self.catalog)))

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

    def _rank_phase(self, round_: int, psi_view: ScoreSet, weights: np.ndarray) -> Feeds:
        """The round's feed table: each citizen's feed, ranked over the contents
        targeted at its communities (plus personal ads it accepts) it has not
        reacted to. Citizens with the same communities and ads flag share a
        pool and are ranked together (`self.groups`)."""
        groups = []
        for communities, ads, citizens in self.groups:
            pool = np.flatnonzero([   # content ids are catalog positions
                bool(item.target_communities & communities)
                or (ads and item.creator_kind == "advertiser"
                    and self.advertisers[item.creator].personal_targeting)
                for item in self.catalog.values()])
            groups.append(Group(citizens, pool,
                                self.reactions.sign[np.ix_(pool, citizens)].T != 0))
        return rank_feeds(groups, weights, self.fabric, psi_view, self.config.ranking,
                          self.seed, round_)

    def _react_phase(self, round_: int, feeds: Feeds) -> None:
        """One reaction draw per feed entry, in table order; one record per round."""
        scale = self.config.sim.engagement_scale
        who = feeds.citizen.tolist()
        citizens = list(dict.fromkeys(who))
        rngs = dict(zip(citizens, derive_rngs(self.seed, citizens, "react", round_)))
        how = [react(a, share, rngs[citizen], scale) for citizen, a, share in
               zip(who, self.attitude[feeds.content, feeds.citizen].tolist(),
                   feeds.share.tolist())]
        self.reactions.record(feeds.citizen, feeds.content, how, round_)

    def _community_arrays(self, cid: int):
        """(member index array, aligned standings, bloc position arrays or None)."""
        comm = self.fabric.communities[cid]
        members = sorted(comm.members)
        idx = np.array(members, dtype=int)
        standings = self.fabric.standings(cid)
        w = np.array([standings[p] for p in members])
        return idx, w, _bloc_positions(members, comm.principal_subcommunities)

    def _belief_phase(self, round_: int, feeds: Feeds, devotion: np.ndarray) -> None:
        """Add the feeds to citizen and community exposure, then pull members'
        attitudes to served content toward their ambient belief: the common
        beliefs weighted by `devotion`, the round's `devotion_matrix()`,
        whose positive cells are the memberships."""
        exposure = self.exposure
        # exact in one pass: a round serves each (content, citizen) at most once
        at = (feeds.content, feeds.citizen)
        exposure[at] = np.minimum(1.0, exposure[at] + feeds.share)
        member = devotion > 0
        # entry-major, and add.at is unbuffered: each cell adds in table order
        entry, community = np.nonzero(member[feeds.citizen])
        cells = (community, feeds.content[entry])
        np.add.at(self.community_exposure, cells, feeds.share[entry])
        self.served[cells] = True

        gamma = self.config.sim.attitude_feedback_gamma
        if gamma <= 0 or not self.catalog:
            return
        community_beliefs = self._community_beliefs()
        ambient = np.empty_like(self.attitude)
        for row, b_vec in zip(ambient, community_beliefs):
            row[:] = devotion @ b_vec
        # feedback only reshapes attitudes to encountered content
        mask = (exposure > 0) & member.any(axis=1)
        self.attitude[mask] = (1.0 - gamma) * self.attitude[mask] + gamma * ambient[mask]

    def _community_beliefs(self) -> np.ndarray:
        """Every (content, community) common belief, contents and communities
        in id order; 0.0 in a community without members."""
        beliefs = self.attitude * self.exposure
        comm_ids = sorted(self.fabric.communities)
        out = np.zeros((len(beliefs), len(comm_ids)))
        for j, cid in enumerate(comm_ids):
            if self.fabric.communities[cid].members:
                idx, w, bloc_idx = self._community_arrays(cid)
                out[:, j] = _aggregate_rows(beliefs[:, idx], w, bloc_idx)
        return out

    def _adapt_devotion(self, feeds: Feeds) -> None:
        """Raise each served edge's raw devotion by rate times its shares, then
        rebuild `self.devotion` if an edge moved."""
        rate = self.config.sim.devotion_adapt_rate
        if rate <= 0:
            return
        spent: dict[tuple[int, int], float] = {}   # (citizen, community) -> share
        for citizen, mid, share in zip(feeds.citizen.tolist(), feeds.content.tolist(),
                                       feeds.share.tolist()):
            for cid in self.catalog[mid].target_communities:
                if cid in self.fabric.citizens[citizen].memberships:
                    spent[citizen, cid] = spent.get((citizen, cid), 0.0) + share
        for (citizen, cid), share in sorted(spent.items()):
            edge = self.fabric.citizens[citizen].memberships[cid]
            self.fabric.update_devotion(citizen, cid, edge.raw_devotion + rate * share)
        if spent:
            self.devotion = self.fabric.devotion_matrix()

    def _metrics_phase(self, round_: int, platform_before: float) -> RoundMetrics:
        """The round's row (see RoundMetrics): each community's top 10 served
        contents by (-total share, id), their spreads from one `bloc_rates`."""
        scoring = self.config.scoring
        revenue = self.ledger.balance(PLATFORM) - platform_before
        gini = attention_gini(self.exposure.sum(axis=1))
        beliefs = self.attitude * self.exposure

        spreads: list[float] = []
        commons: list[float] = []
        coherence: dict[int, float] = {}
        for k, cid in enumerate(sorted(self.fabric.communities)):
            comm = self.fabric.communities[cid]
            if not comm.members:
                continue
            idx, w, bloc_idx = self._community_arrays(cid)
            candidates = np.flatnonzero(self.served[k])
            # the ids ascend and the sort is stable, so ties go to the lower id
            top = candidates[np.argsort(-self.community_exposure[k, candidates],
                                        kind="stable")[:10]]

            if top.size:
                commons.append(float(np.mean(_aggregate_rows(beliefs[top][:, idx], w, bloc_idx))))
                if bloc_idx is not None:
                    rates = bloc_rates(self.reactions, top, comm.principal_subcommunities,
                                       alpha=scoring.alpha)
                    spreads.append(float(np.mean(_spreads(rates.T)[0])))

            cards = self.scores.community_cards(cid)
            cards.sort(key=lambda c: (-c.psi, c.content))
            top_psi = [card.content for card in cards[:5]]
            coherence[cid] = float(np.mean(
                _aggregate_rows(beliefs[top_psi][:, idx], w, bloc_idx))) if top_psi else 0.0

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
        self.sink([], self.ledger)
        for round_ in range(self.rounds):
            self.overrides.expire(round_)
            self._create_phase(round_)
            if round_ % cfg.sim.refresh_interval == 0:
                self._refresh_structure(round_)
            # drop the last round's scores first: two rounds' sets are never held at once
            self.scores = psi_view = None
            self.scores = score_round(self.fabric, self.catalog, self.reactions,
                                      cfg.scoring, round_,
                                      mf_seed=derive_seed(self.seed, "mf", round_))
            psi_view = served(self.scores, self.overrides, round_)
            # every round: a clamp changes lambda
            weights = term_weights(self.fabric, self.devotion)
            feeds = self._rank_phase(round_, psi_view, weights)
            self._react_phase(round_, feeds)
            self._belief_phase(round_, feeds, self.devotion)
            platform_before = self.ledger.balance(PLATFORM)
            self.events.extend(settle_round(round_, feeds, self.fabric, self.catalog,
                                            self.prices, self.advertisers, cfg.econ,
                                            self.ledger))
            reward_standing(self.scores, self.fabric, cfg.econ.standing_reward_rate,
                            self.catalog)
            self._adapt_devotion(feeds)
            self.metrics.append(self._metrics_phase(round_, platform_before))
            self.sink(feed_lines(round_, feeds, self.scores, self.fabric), self.ledger)

        return RunResult(config=cfg, metrics=self.metrics, fabric=self.fabric,
                         catalog=self.catalog, reactions=self.reactions,
                         ledger=self.ledger, scores=self.scores, feed_lines=self.feed_lines,
                         events=self.events, ideologies=self.ideologies,
                         attitude=self.attitude, exposure=self.exposure)


def run(config: ScenarioConfig, seed: int | None = None,
        rounds: int | None = None, sink: Optional[Sink] = None) -> RunResult:
    """Execute a scenario; overrides replace the configured seed/round count.

    Without a sink, `RunResult.feed_lines` and the ledger keep every
    feeds.jsonl line and ledger row of the run. A sink is handed them
    instead as they are made (see `Sink`), and may write them out and
    `drain` the ledger, so they need not all be held at once.

    Raises ValueError for a seed outside [0, SEED_MAX], which would alias a
    seed inside it, or a negative round count.
    """
    effective_seed = config.seed if seed is None else seed
    effective_rounds = config.sim.rounds if rounds is None else rounds
    if not 0 <= effective_seed <= SEED_MAX:
        raise ValueError(f"seed must be in [0, {SEED_MAX}], got {effective_seed}")
    if effective_rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {effective_rounds}")
    return _Simulation(config, effective_seed, effective_rounds, sink).run()


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
