"""plural: a communitarian feed mechanism in a deterministic simulation harness.

The package models a social fabric as a hypergraph of citizens and
overlapping communities, detects internal opinion blocs from reaction data,
scores content for bridging and balancing per community and per citizen,
allocates each citizen's attention through weighted coherence scores, and
settles a pay-per-impression sponsorship economy over the resulting feeds —
all inside a seeded agent-based loop whose outcomes (depolarization,
coherence, conservation of attention and money) are measurable.
"""

from .config import ScenarioConfig
from .detect import (AttitudeMatrix, FuzzyPartition, fuzzy_c_means,
                     principal_subcommunities)
from .econ import (Advertiser, EconParams, Ledger, LedgerEntry, reward_standing,
                   sell_standing, settle_round)
from .fabric import Citizen, Community, MembershipEdge, SocialFabric
from .rank import (Feeds, PsiOverrides, RankingParams, build_feed, exposure_weights,
                   feed_lines, seed_content, served)
from .score import (ContentItem, ReactionMatrix, ScoreCard, ScoreSet,
                    ScoringParams, balancing_set, bridging_mf, score_round)
from .sim import RoundMetrics, RunResult, gen_population, react, run

__version__ = "0.1.0"
