"""votelab: voting rules, majority/veto power criteria, and exact quota bounds."""

from .criteria import (
    Quota,
    Violation,
    check_qk_majority,
    check_ql_veto,
    mutual_majority_groups,
    mutual_minority_groups,
    quota_majority,
    quota_majority_sup,
    quota_veto_sup,
    second_order_dominance,
    tradeoff_threshold,
)
from .errors import ProfileFormatError, SearchBudgetExceeded, VotelabError
from .exact import ExactNumber, exact
from .model import (
    ChoiceSet,
    PositionalMatrix,
    Profile,
    TournamentMatrix,
    condorcet_winner,
    default_candidates,
    positional_matrix,
    tournament_matrix,
)
from .profile_io import parse_profile, serialize_profile
from .rules import (
    RULE_IDS,
    ScoreReport,
    ScoreVector,
    convex_median_score,
    dodgson_score,
    report,
    scoring_winners,
    tradeoff_score,
    winners,
    young_score,
)
from .search import (
    SearchBudget,
    all_profiles,
    condorcet_k_tuple,
    empirical_quota,
    exhaustive_criterion_search,
    max_violation,
    oracle_dodgson_score,
    oracle_veto_core,
    oracle_young_score,
    parallel_universe_irv,
    random_profile,
    worst_case_profile,
)
from .tables import emit_table, table_data

__version__ = "0.1.0"
