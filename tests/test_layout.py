"""What ships in src/: every module is one that the analysis itself loads.

Reference code used only by the tests (the language-level and toy domains,
the solver's naive fixpoints, the canonical forms of the profile domain,
the triple form of profiles, the region satisfaction checks, the program
printer, the NFAs and their builders) lives under tests/.  A module in the package
that ``guidecheck analyze`` never imports, one of the moved functions back
in the package, or a name that nothing in src/ or perfbench/ refers to is
test-only code drifting back.  The package keeps one relation algebra, the
packed profiles: the guideline automaton composes no relations of its own.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from conftest import PACKAGE_DIR, fresh_python_env
from guidecheck import fjparser, guideline, inference, interp, profiles
from guidecheck.classtable import ClassTable
from guidecheck.domains import EffectDomain, ProfileDomain
from guidecheck.fjast import FjError
from guidecheck.guideline import parse_guideline
from guidecheck.intrinsics import parse_config
from guidecheck.profiles import ProfileMonoid
from guidecheck.regions import region_meta

# Names that analyze never calls; their code lives in tests/canonical_forms.py,
# tests/profile_reference.py and tests/region_satisfaction.py.
TRIPLE_HELPERS = ("profile_of_triples", "triples_of", "compose_triples",
                  "pack", "unpack", "triples", "describe", "decode",
                  "decode_fin", "decode_mix", "decode_mtable", "omega_triples")
MONOID_ONLY = ("saturate", "factorizations", "normalize_mix", "mix_eq",
               "mix_leq", "extendable_into", "alpha_lang", "alpha_words",
               "member_fin", "member_up_word", "_factor_cache", "_sat_cache",
               *TRIPLE_HELPERS)
# The second relation algebra the automaton once carried.
AUTOMATON_ONLY = ("compose_rel", "rel_of_word", "letter_rel", "_letter_rels")
DOMAIN_ONLY = ("fin_eq", "alpha_words", "fin_to_mix", "mix_top", "member_fin",
               "member_up", "mix_eq", "mix_leq")
INTERP_ONLY = ("value_satisfies", "store_satisfies", "heap_satisfies",
               "first_heap_violation")
# The printer behind the round-trip test; its code lives in tests/fjprinter.py.
PARSER_ONLY = ("print_program", "_render_body", "_render_stmt", "_render_expr")
# The NFAs stub regexes once compiled to, their regular operations, and the
# product walk that abstracted them; tests/nfa.py and tests/profile_reference.py
# keep them as the oracle the package's fold of a regex term is checked against.
NFA_TOOLBOX = ("Nfa", "regex_to_nfa", "nfa_union", "nfa_concat", "nfa_star",
               "alpha_nfa")
# A Program is typed when it is built and never changed after.
PROGRAM_ONLY = ("set_typing",)
# Fields nothing read: a stub keeps its languages as regex terms, and an error
# its message only in its text.
SPEC_ONLY = ("emit_src", "throw_src")
FJ_ERROR_ONLY = ("message",)
# Names nothing reads; the tests index table.mtable directly.
CLASSTABLE_ONLY = ("tdict", "sdict")
INFERENCE_ONLY = ("EMPTY",)
# The typing cap's two tiers, a cheap floor height and the exact height past
# it: one height, the count of interned profiles read again past the cap,
# replaced them.
TWO_TIER_CAP = ("_TypingCap", "fin_height_floor")
# The rule that typed a continuation once per region of the value it binds;
# typing once per reading replaced it, and tests/inference_reference.py
# keeps it as the reference.
PER_REGION_RULE = ("_sequence", "_env_reads", "_type_group", "_catchable",
                   "except_filter")
# A profile is an index into its monoid; no class holds its rows.
PROFILES_ONLY = ("Profile",)
REGION_META_ONLY = ("prog",)
# A cycle candidate is four offsets into its run's trace and script: it
# copies neither, and tuple equality compares candidates.
CANDIDATE_COPIES = ("stem_trace", "cycle_trace", "stem_script",
                    "cycle_script", "key")
# The recursive evaluator and its restart queue: control flows through the
# step loop's frames, not through exceptions and Python calls, and a stub
# choice forks the run's state rather than queue a script to re-run.
RESTARTED_SCRIPTS = ("_ScriptExhausted", "_Thrown", "_OutOfFuelExc",
                     "_CastStuckExc", "_RULES")
RESTARTING_RUN = ("pending", "exhausted", "_stub_call", "_eval")
# Defined in the package but referred to only from tests/: the one-file
# entry point, the members of the EffectDomain interface that the
# reference domains and the domain-law tests use, and the interpreter's
# one-level view of an entry's runs, which the soundness tests read (the
# counterexample search deepens through interp.Search instead).
UNREFERENCED_BY_DESIGN = {"parse_program", "fin_bottom", "mix_of_eps",
                          "enumerate_traces"}
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


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
              ("interp", interp, INTERP_ONLY + RESTARTED_SCRIPTS),
              ("Evaluator", interp.Evaluator, RESTARTING_RUN),
              ("CycleCandidate", interp.CycleCandidate, CANDIDATE_COPIES),
              ("fjparser", fjparser, PARSER_ONLY),
              ("GuidelineAutomaton", g, AUTOMATON_ONLY),
              ("ClassTable", ClassTable, CLASSTABLE_ONLY),
              ("inference", inference,
               INFERENCE_ONLY + TWO_TIER_CAP + PER_REGION_RULE),
              ("EffectDomain", EffectDomain, TWO_TIER_CAP),
              ("ProfileDomain", ProfileDomain(g), TWO_TIER_CAP),
              ("profiles", profiles, PROFILES_ONLY),
              ("RegionMeta", region_meta(fjparser.parse_program("")),
               REGION_META_ONLY),
              ("Program", fjparser.parse_program(""), PROGRAM_ONLY),
              ("IntrinsicSpec",
               parse_config("A.m() -> Null emits a throws Unknown a\n", ("a",))
               [("A", "m")], SPEC_ONLY),
              ("FjError", FjError("bad", None), FJ_ERROR_ONLY)]
    back = [f"{label}.{name}" for label, owner, names in owners
            for name in names if hasattr(owner, name)]
    assert back == []


def test_the_nfa_toolbox_stays_out_of_the_package():
    assert importlib.util.find_spec("guidecheck.oracle") is None
    modules = [importlib.import_module(f"guidecheck.{path.stem}")
               for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"]
    owners = [*modules, *(cls for module in modules
                          for _, cls in inspect.getmembers(module, inspect.isclass)
                          if cls.__module__ == module.__name__)]
    back = [f"{getattr(owner, '__name__', owner)}.{name}" for owner in owners
            for name in NFA_TOOLBOX if hasattr(owner, name)]
    assert back == []
    # nor does any package module name them, as a definition or a call
    named = sorted(
        f"{path.name}:{name}" for path in PACKAGE_DIR.glob("*.py")
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for name in {*_definitions(tree), *_references(tree)}
        if name in NFA_TOOLBOX)
    assert named == []


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


def _definitions(tree: ast.Module):
    """The functions, classes and methods at any depth, and the names that
    the module body assigns."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        yield from (t.id for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def _references(tree: ast.Module):
    """Every name the module reads, as a variable, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_package_name_is_used_outside_the_tests():
    def tree(path):
        return ast.parse(path.read_text(encoding="utf-8"), str(path))

    users = [*PACKAGE_DIR.glob("*.py"), *PERFBENCH_DIR.glob("*.py")]
    referenced = {name for path in users for name in _references(tree(path))}
    unused = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE_DIR.glob("*.py")
        for name in _definitions(tree(path))
        if name not in referenced and name not in UNREFERENCED_BY_DESIGN
        and not (name.startswith("__") and name.endswith("__"))  # Python calls these
    )
    assert unused == []


# The class tables stay closed under the hierarchy only if every write goes
# through the mutators of ClassTable, which keep them so.
TABLES = ("mtable", "ftable", "pinned")
MUTATING_METHODS = ("add", "update", "setdefault", "pop", "popitem", "clear",
                    "discard", "remove")


def _table_writes(tree: ast.Module):
    """The lines that write into a table attribute directly: an item
    assigned or deleted, an augmented assignment, or a mutating call."""
    def is_table(node):
        return isinstance(node, ast.Attribute) and node.attr in TABLES

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if is_table(node.value):
                yield node.lineno
        elif isinstance(node, ast.AugAssign) and is_table(node.target):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATING_METHODS
              and is_table(node.func.value)):
            yield node.lineno


def test_only_the_class_table_writes_table_rows():
    writers = sorted(
        f"{path.name}:{line}"
        for path in PACKAGE_DIR.glob("*.py") if path.name != "classtable.py"
        for line in _table_writes(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert writers == []
    # the guard sees the writes the class table itself makes
    own = (PACKAGE_DIR / "classtable.py").read_text(encoding="utf-8")
    assert len(list(_table_writes(ast.parse(own)))) >= 4


def _attribute_reads(tree: ast.Module, name: str):
    """The lines that read the attribute name of any object."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == name
                and not isinstance(node.ctx, ast.Store)):
            yield node.lineno


def test_only_the_monoid_reads_its_closure():
    """The analysis never closes the profile monoid: no package module but
    profiles.py reads ``elements``, and the height that caps inference
    counts the profiles interned so far instead."""
    readers = sorted(
        f"{path.name}:{line}"
        for path in PACKAGE_DIR.glob("*.py") if path.name != "profiles.py"
        for line in _attribute_reads(
            ast.parse(path.read_text(encoding="utf-8")), "elements")
    )
    assert readers == []
    # the guard sees such a read
    probe = ast.parse("height = len(domain.monoid.elements) + 1")
    assert list(_attribute_reads(probe, "elements")) == [1]
