"""Negotiation-set algebra: double sets with compromise operators, consistency over
contradiction relations, a session DSL, and an exhaustive law oracle.

``import negset`` loads the algebra only: ``core``, ``consistency`` and ``errors``.
The session DSL, ``negset.session``, and the law oracle, ``negset.oracle``, load
on first use of the module or of a name re-exported from it: ``negset eval`` and
``negset check`` load the DSL, ``negset laws`` and ``negset fixtures`` load both."""

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

_LAZY = {  # public name -> the submodule that defines it, imported on first use
    **dict.fromkeys(("session", "SessionReport", "SessionScript", "eval_expr", "format_negset",
                     "parse_session", "print_session", "run_session"), "session"),
    **dict.fromkeys(("oracle", "check_law", "enumerate_negsets", "fixture_ids", "law_ids",
                     "verify_fixture"), "oracle"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # "from . import session" would ask this hook again

    module = import_module("." + _LAZY[name], __name__)
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


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
