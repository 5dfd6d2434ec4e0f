"""What ``import negset`` binds and loads: the public names stay fixed, and a
bare import loads ``core`` and ``errors`` only.  Consistency, the session DSL
and the law oracle load on first use; the dataclass machinery and the json
package are left out until used.  The reference semantics import nothing from
the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import negset

SRC = str(Path(negset.__file__).resolve().parent.parent)

PUBLIC = [
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


def test_all_lists_the_public_names():
    assert negset.__all__ == PUBLIC
    assert len(PUBLIC) == 47


def test_star_import_binds_every_public_name():
    bound = {}
    exec("from negset import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == PUBLIC
    assert bound["oracle"] is negset.oracle
    assert bound["law_ids"] is negset.oracle.law_ids


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(negset, "no_such_name")


PROBE = """
import sys
before = set(sys.modules)
import negset
import negset.cli
print(sorted(set(sys.modules) - before & {"negset.oracle", "dataclasses", "inspect"}))
print(negset.law_ids()[0], "negset.oracle" in sys.modules)
"""


def test_import_leaves_the_oracle_and_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "idempotence-odot True"]


LAZY_PROBE = """
import sys
import negset
loaded = lambda: sorted(m for m in sys.modules if m.startswith("negset"))
print(loaded(), "is_disc" in vars(negset))
negset.is_disc
print(loaded(), "is_disc" in vars(negset), negset.consistency is sys.modules["negset.consistency"])
negset.parse_session
print(loaded(), "parse_session" in vars(negset), negset.session is sys.modules["negset.session"])
negset.check_law
print("check_law" in vars(negset), negset.check_law is sys.modules["negset.oracle"].check_law)
"""

MODULE_PROBE = """
import sys
import negset
print(negset.consistency is sys.modules["negset.consistency"], "consistency" in vars(negset))
"""

CLI_PROBE = """
import sys
import negset.cli
print([m in sys.modules for m in ("negset.consistency", "negset.session", "negset.oracle")])
"""


def test_import_loads_the_algebra_only():
    env = {**os.environ, "PYTHONPATH": SRC}
    lazy, module, cli = (subprocess.run([sys.executable, "-c", probe], env=env,
                                        capture_output=True, text=True, timeout=60,
                                        check=True).stdout.splitlines()
                         for probe in (LAZY_PROBE, MODULE_PROBE, CLI_PROBE))
    algebra = "'negset', 'negset.core', 'negset.errors'"
    assert lazy == [f"[{algebra}] False",
                    "['negset', 'negset.consistency', 'negset.core', 'negset.errors'] True True",
                    "['negset', 'negset.consistency', 'negset.core', 'negset.errors', "
                    "'negset.session'] True True",
                    "True True"]
    assert module == ["True True"]
    assert cli == ["[True, True, False]"]


FUTURE_PROBE = """
import sys
for module in ("negset", "negset.cli", "negset.oracle"):
    __import__(module)
    print(module, "__future__" in sys.modules)
"""


def test_no_module_loads_the_future_import():
    """Annotations are evaluated at definition, so neither the library, the
    CLI nor the oracle loads ``__future__``; ``-S`` keeps site's imports out."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-S", "-c", FUTURE_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "negset False", "negset.cli False", "negset.oracle False"]


JSON_PROBE = """
import sys
import negset
import negset.cli
print(sorted(m for m in sys.modules if m == "json" or m.startswith("json.")))
"""


def test_import_loads_no_json_package():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", JSON_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]"]


EVAL_JSON = """
import sys
if sys.argv[2] == "pure":
    sys.modules["_json"] = None  # as in an interpreter built without json's C encoder
from negset import cli, session
print(session._quote.__module__, file=sys.stderr)
sys.exit(cli.main(["eval", "--json", sys.argv[1]]))
"""


def test_eval_json_is_the_same_without_the_c_encoder():
    env = {**os.environ, "PYTHONPATH": SRC}
    trip = str(Path(SRC).parent / "sessions" / "trip.ns")
    runs = [subprocess.run([sys.executable, "-c", EVAL_JSON, trip, kind], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
            for kind in ("c", "pure")]
    assert [done.stderr for done in runs] == ["_json\n", "json.encoder\n"]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith('{\n  "universe": [')


def test_reference_semantics_import_nothing_from_negset():
    # the second route of the dual-route checks shares no code with the package
    tree = ast.parse((Path(__file__).resolve().parent / "refimpl.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level]
    assert imported and all(name.split(".")[0] != "negset" for name in imported)
    assert not any(isinstance(node, ast.ImportFrom) and node.level for node in ast.walk(tree))
