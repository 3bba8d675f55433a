"""pgclass: exact classification of finite p-groups by the vanishing
structure of their irreducible characters."""

from .chartable import (
    CharacterTable,
    compute_table,
    linear_character_exponents,
    table_of,
)
from .classify import (
    ClassificationReport,
    CountingResult,
    PermDegree,
    check_lift_equivalence,
    check_nil_le_cd,
    check_special_degree,
    classification_report,
    counting_formulas,
    fully_ramified,
    gvz_min_perm_degree,
    is_camina_pair,
    is_central_type,
    is_flat,
    is_gen_camina_pair,
    is_gvz,
    is_nested,
    is_vz,
)
from .corpus import (
    REGISTRY,
    CorpusEntry,
    IsoclinismFingerprint,
    build,
    fingerprint,
    isoclinic_brute,
)
from .cyclotomic import Cyclotomic
from .errors import InternalInconsistencyError, ParseError, PgclassError, TableVerificationError
from .group import (
    ConjugacyClassSet,
    Group,
    QuotientGroup,
    Subgroup,
    abelian_invariants,
    center,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    exponent,
    group_of,
    nilpotency_class,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)
from .presentation import (
    ConsistencyReport,
    Element,
    PcPresentation,
    Word,
    check_consistency,
    commutator,
    evaluate_word,
    inverse,
    multiply,
    parse_presentation,
    presentation_text,
)
from .verify import SuiteRecord, SuiteResult, run_ingested_census, run_paper_suite


def clear_caches() -> None:
    """Empty every module-level cache: the groups by presentation
    (group._group_cache), the tables by group (chartable._table_cache),
    the corpus bundles by (label, p) (verify._bundles), the collectors by
    presentation with their consistency reports (presentation._collectors),
    and the lru caches of chartable._check_primes and
    cyclotomic._prime_power_split.  Each lives
    until this call or the end of the process, except that
    run_ingested_census drops each file's collector, group and table once
    its report is made."""
    from . import chartable, cyclotomic, group, presentation, verify

    for cache in (group._group_cache, chartable._table_cache, verify._bundles,
                  presentation._collectors):
        cache.clear()
    chartable._check_primes.cache_clear()
    cyclotomic._prime_power_split.cache_clear()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
