"""Exact irreducible character values of symmetric groups, the vanishing
probability P_n of a random character value, and its class-data lower
bound, with seeded Monte Carlo counterparts.

snchar.table_stats is the function, re-exported below, not the submodule
of the same name; from snchar.table_stats import ... reaches the module.
"""

from .partitions import (
    CapExceededError,
    Partition,
    centralizer_order,
    class_size,
    conjugate,
    enumerate_partitions,
    partition_count,
    unrank,
)
from .characters import CharacterTable, character_table, dimension, mn_value
from .vanishing import (
    BoundReport,
    GoncharovSample,
    OmegaSpec,
    exact_pzero,
    goncharov_experiment,
    lemma_bound,
    limit_cdf,
    long_cycle_frequency,
    montecarlo_pzero,
)
from .table_stats import TableStats, stats_series, table_stats
from .groups import (
    ClassData,
    PropositionReport,
    best_omega_check,
    default_omega,
    load_class_data,
    proposition_bound,
)
from .sampling import SampleSummary, random_cycle_type, uniform_partition

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceededError",
    "CharacterTable",
    "ClassData",
    "GoncharovSample",
    "OmegaSpec",
    "Partition",
    "PropositionReport",
    "SampleSummary",
    "TableStats",
    "best_omega_check",
    "centralizer_order",
    "character_table",
    "class_size",
    "conjugate",
    "default_omega",
    "dimension",
    "enumerate_partitions",
    "exact_pzero",
    "goncharov_experiment",
    "lemma_bound",
    "limit_cdf",
    "load_class_data",
    "long_cycle_frequency",
    "mn_value",
    "montecarlo_pzero",
    "partition_count",
    "proposition_bound",
    "random_cycle_type",
    "stats_series",
    "table_stats",
    "uniform_partition",
    "unrank",
]
