"""What ships in src/: every module is one that the analysis itself loads.

Reference code used only by the tests (the language-level and toy domains,
the solver's naive fixpoints, the canonical forms of the profile domain,
the triple form of profiles, the region satisfaction checks and the program
printer) lives under
tests/.  A module in the package that ``guidecheck analyze`` never imports,
or one of the moved functions back in the package, is test-only code
drifting back.  The package keeps one relation algebra, the packed profiles:
the guideline automaton composes no relations of its own.
"""

import ast
import subprocess
import sys

from conftest import PACKAGE_DIR, fresh_python_env
from guidecheck import fjparser, guideline, interp
from guidecheck.domains import EffectDomain, ProfileDomain
from guidecheck.guideline import parse_guideline
from guidecheck.profiles import Profile, ProfileMonoid

# Names that analyze never calls; their code lives in tests/canonical_forms.py,
# tests/profile_reference.py and tests/region_satisfaction.py.
TRIPLE_HELPERS = ("profile_of_triples", "triples_of", "compose_triples",
                  "pack", "unpack")
MONOID_ONLY = ("saturate", "factorizations", "normalize_mix", "mix_eq",
               "mix_leq", "extendable_into", "alpha_lang", "alpha_words",
               "member_fin", "member_up_word", "_factor_cache", "_sat_cache",
               *TRIPLE_HELPERS)
PROFILE_ONLY = ("triples", *TRIPLE_HELPERS)
# The second relation algebra the automaton once carried.
AUTOMATON_ONLY = ("compose_rel", "rel_of_word", "letter_rel", "_letter_rels")
DOMAIN_ONLY = ("fin_eq", "alpha_words", "fin_to_mix", "mix_top", "member_fin",
               "member_up", "mix_eq", "mix_leq")
INTERP_ONLY = ("value_satisfies", "store_satisfies", "heap_satisfies",
               "first_heap_violation")
# The printer behind the round-trip test; its code lives in tests/fjprinter.py.
PARSER_ONLY = ("print_program", "_render_body", "_render_stmt", "_render_expr")


def test_the_cli_loads_every_package_module():
    shipped = {
        "guidecheck" if p.stem == "__init__" else f"guidecheck.{p.stem}"
        for p in PACKAGE_DIR.glob("*.py")
    }
    done = subprocess.run(
        [sys.executable, "-c", "import sys, guidecheck.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=fresh_python_env(), timeout=60,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert shipped - loaded == set()


def test_test_only_functions_stay_out_of_the_package():
    g = parse_guideline("alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
                        "trans: q a q\n")
    owners = [("ProfileMonoid", ProfileMonoid(g), MONOID_ONLY),
              ("EffectDomain", EffectDomain, DOMAIN_ONLY),
              ("ProfileDomain", ProfileDomain(g), DOMAIN_ONLY),
              ("interp", interp, INTERP_ONLY),
              ("fjparser", fjparser, PARSER_ONLY),
              ("Profile", Profile, PROFILE_ONLY),
              ("GuidelineAutomaton", g, AUTOMATON_ONLY)]
    back = [f"{label}.{name}" for label, owner, names in owners
            for name in names if hasattr(owner, name)]
    assert back == []


def test_the_guideline_module_does_not_import_profiles():
    with open(guideline.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if "profiles" in name}
