"""Negotiation-set algebra: double sets with compromise operators,
consistency over contradiction relations, a session DSL, and an
exhaustive law oracle.

The law oracle, ``negset.oracle``, and the names re-exported from it are
loaded on first use."""

from .core import (
    FiniteSet,
    InclusionMode,
    NegotiationSet,
    SpecialKind,
    Universe,
    complement,
    difference,
    included,
    inter_all,
    make_negset,
    make_universe,
    negset_of,
    odot,
    odot_all,
    oplus,
    oplus_all,
    special,
    union_all,
)
from .consistency import (
    AgentPriority,
    ContradictionSpec,
    DiscViolation,
    Failed,
    FewestNecessities,
    ObjectDominance,
    Resolved,
    Strict,
    disc_violations,
    is_disc,
    make_contradiction_spec,
    resolve_odot,
)
from .session import (
    SessionReport,
    SessionScript,
    eval_expr,
    format_negset,
    parse_session,
    print_session,
    run_session,
)

_ORACLE_NAMES = ("check_law", "enumerate_negsets", "fixture_ids", "law_ids", "verify_fixture")


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # "from . import oracle" would ask this hook again

    oracle = import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)


__all__ = [
    "AgentPriority", "ContradictionSpec", "DiscViolation", "Failed", "FewestNecessities",
    "FiniteSet", "InclusionMode", "NegotiationSet", "ObjectDominance", "Resolved",
    "SessionReport", "SessionScript", "SpecialKind", "Strict", "Universe",
    "check_law", "complement", "consistency", "core", "difference", "disc_violations",
    "enumerate_negsets", "errors", "eval_expr", "fixture_ids", "format_negset", "included",
    "inter_all", "is_disc", "law_ids", "make_contradiction_spec", "make_negset",
    "make_universe", "negset_of", "odot", "odot_all", "oplus", "oplus_all", "oracle",
    "parse_session", "print_session", "resolve_odot", "run_session", "session", "special",
    "union_all", "verify_fixture",
]
