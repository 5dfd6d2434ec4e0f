"""Negotiation-set algebra: double sets with compromise operators, consistency over
contradiction relations, a session DSL, and an exhaustive law oracle.

``import negset`` loads the algebra only: ``core`` and ``errors``.  Consistency,
``negset.consistency``, the session DSL, ``negset.session``, and the law oracle,
``negset.oracle``, load on first use of the module or of a name re-exported from
it: ``negset eval`` and ``negset check`` load consistency and the DSL, ``negset
laws`` and ``negset fixtures`` load all three."""

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

_LAZY = {  # public name -> the submodule that defines it, imported on first use
    **dict.fromkeys(("consistency", "AgentPriority", "ContradictionSpec", "DiscViolation",
                     "Failed", "FewestNecessities", "ObjectDominance", "Resolved", "Strict",
                     "disc_violations", "is_disc", "make_contradiction_spec", "resolve_odot"),
                    "consistency"),
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


# each public name once: core's names, core and errors as bound above, and _LAZY's
__all__ = sorted([*(name for name in globals() if name[0] != "_"), *_LAZY])
