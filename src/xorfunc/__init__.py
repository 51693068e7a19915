"""Static key-value retrieval in near-optimal space via GF(2) XOR probing.

Stores a function f: S -> {0,1}^r so that members query exactly and
non-members may return anything; derives approximate-membership filters,
Bloomier filters, and (minimal) perfect hash functions from the same
machinery, plus a numerical lab for the underlying rank thresholds.
"""

from .basic import (
    RetrievalStructure,
    SplitShareRetrieval,
    build,
    query,
    verify,
)
from .blocked import (
    BlockedRetrieval,
    build_blocked,
    gather_query,
    probe_plan,
    query_blocked,
    verify_blocked,
)
from .compact import CompactRetrieval, build_compact, query_compact
from .errors import (
    BadCrc,
    BadMagic,
    ContainerError,
    ConvergenceFailure,
    DomainError,
    DuplicateKeys,
    EmptySupport,
    IndexOutOfRange,
    KTooLarge,
    ParseError,
    RandomnessExhausted,
    UnsupportedVersion,
    XorFuncError,
)
from .filters import (
    BackendParams,
    BloomierFilter,
    bloom_comparison,
    build_bloomier,
    build_filter,
    counting_lower_bound,
    membership_lower_bound,
    query_bloomier,
    query_filter,
)
from .gf2 import solve_xor_system, system_full_rank
from .hashing import (
    ConditionedBinomialTable,
    SeededHasher,
    SplitShareTables,
    build_binomial_table,
    build_split_share,
    distinct_k_set,
    sample_conditioned,
    split_share_eval,
)
from .phf import (
    MinimalPerfectHash,
    PerfectHash,
    build_mphf,
    build_phf,
    eval_mphf,
    eval_phf,
)
from .serial import deserialize, serialize
from .thresholds import (
    RankExperiment,
    ThresholdResult,
    beta_approx,
    beta_k,
    calkin_f,
    empirical_threshold,
    rank_mc_gf2,
    rank_mc_weighted,
)

__version__ = "0.1.0"
