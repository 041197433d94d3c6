"""What ships in src/: every module is one that the analysis itself loads.

Reference code used only by the tests (the language-level and toy domains,
the solver's naive fixpoints, the canonical forms of the profile domain,
the triple form of profiles, the region satisfaction checks, the program
printer, the per-position lexer, the NFAs and their builders) lives under
tests/.  A module in the package that ``guidecheck analyze`` never imports,
one of the moved functions back in the package, a name that nothing in src/
or perfbench/ refers to, a method that nothing there reads as an attribute,
or an import its module never uses is test-only code drifting back.  The
package keeps one relation algebra, the packed profiles: the guideline
automaton composes no relations of its own.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from conftest import PACKAGE_DIR, fresh_python_env
from guidecheck import (
    fjparser,
    fjtypes,
    guideline,
    inference,
    interp,
    profiles,
    solver,
)
from guidecheck.classtable import ClassTable, init_table
from guidecheck.domains import EffectDomain, ProfileDomain
from guidecheck.fjast import FjError, Node
from guidecheck.guideline import parse_guideline
from guidecheck.intrinsics import parse_config
from guidecheck.profiles import ProfileMonoid
from guidecheck.regions import region_meta

# Names that analyze never calls; their code lives in tests/canonical_forms.py,
# tests/profile_reference.py and tests/region_satisfaction.py.
TRIPLE_HELPERS = ("profile_of_triples", "triples_of", "compose_triples",
                  "pack", "unpack", "triples", "describe", "decode",
                  "decode_fin", "decode_mix", "decode_mtable", "omega_triples")
# The word-form checks: the search judges a word by the profiles of its
# prefixes (the accepts mask, dead_position) and a lasso by the profiles of
# its stem and cycle (accepts_lasso_of); tests/profile_reference.WordReading
# reads words through them.  The row-loop product is
# tests/profile_reference.RowLoopMonoid's.
MONOID_ONLY = ("saturate", "factorizations", "normalize_mix", "mix_eq",
               "mix_leq", "extendable_into", "alpha_lang", "alpha_words",
               "member_fin", "member_up_word", "_factor_cache", "_sat_cache",
               "accepts_lasso", "accepts_finite", "rows_of",
               *TRIPLE_HELPERS)
# The second relation algebra the automaton once carried.
AUTOMATON_ONLY = ("compose_rel", "rel_of_word", "letter_rel", "_letter_rels")
# The finite bottom and the mixed empty word are members of the reference
# domains and of tests/canonical_forms.CanonicalDomain; the analysis uses
# neither.
DOMAIN_ONLY = ("fin_eq", "alpha_words", "fin_to_mix", "mix_top", "member_fin",
               "member_up", "mix_eq", "mix_leq", "fin_bottom", "mix_of_eps")
INTERP_ONLY = ("value_satisfies", "store_satisfies", "heap_satisfies",
               "first_heap_violation")
# The printer behind the round-trip test; its code lives in tests/fjprinter.py.
# The parser builds let chains as it reads: no statement tuples to desugar.
# The lexer that matched at each position is the one-scan lexer's reference,
# in tests/lexer_reference.py.
PARSER_ONLY = ("print_program", "_render_body", "_render_stmt", "_render_expr",
               "_desugar", "lex_per_position")
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
# The recursive evaluator and its restart queue: control flows through the
# step loop's frames, not through exceptions and Python calls, and a stub
# choice forks the run's state rather than queue a script to re-run.
RESTARTED_SCRIPTS = ("_ScriptExhausted", "_Thrown", "_OutOfFuelExc",
                     "_CastStuckExc", "_RULES")
RESTARTING_RUN = ("pending", "exhausted", "_stub_call", "_eval")
# The one-level view of an entry's runs, which the soundness tests read, and
# what served it: a fork holding its parent's candidates.  It lives in
# tests/interp_reference.py; the search deepens through interp.Search.
ONE_LEVEL_ENUMERATOR = ("enumerate_traces", "new_from", "forked_cycles")
# The registry through which the search once found the analysis's monoid:
# the guideline held it weakly.  The domain builds the monoid and analyze
# hands it to the search.
MONOID_REGISTRY = ("monoid_of", "monoid_ref", "weakref")
# A run's snapshot beside its evaluator, and a tuple per open call that a
# call repeats: the search hands on the evaluators themselves, and a call
# that repeats open calls records them in one tuple.
RUN_COPIES = ("TraceRun", "CycleCandidate")
# The forwarder to the acceptance mask: the search reads ``accepts`` and
# judges a silent divergence as the lasso stem·ε̂^ω.
FINITE_FORWARDER = ("accepts_finite_of",)
# The body rebuilt to fill its receiver annotations, and the walks over the
# bodies after the Program's one: typing fills the tree it is given, and the
# Program's one pass per body keeps the read sets and the calls.  The
# recursive read-set pass lives in tests/inference_reference.py.
REBUILT_BODIES = ("typed_classes", "reads_of", "_reads",
                  "_collect_labels_and_events")
# The walks and caches of the class hierarchy that each layer kept: the
# Program decides chains, dispatch and field owners once, and every layer
# reads its tables.  The walks live in tests/hierarchy_reference.py.
HIERARCHY_WALKS = ("methods_of", "_collect_fields", "_resolve", "_field_names")
# The per-statement shape of a run of emits, the word Emit's reference: it
# lives in tests/per_statement.py, and no layer splits a word.
PER_STATEMENT = ("split_emits", "parse_per_statement", "_Splitter")
# Names that no package module may define or name, a parameter included.
NAMED_NOWHERE = (*ONE_LEVEL_ENUMERATOR, *MONOID_REGISTRY, *RUN_COPIES,
                 *FINITE_FORWARDER, *REBUILT_BODIES, *HIERARCHY_WALKS,
                 *PER_STATEMENT,
                 "_desugar", "fin_bottom", "mix_of_eps", "accepts_lasso")
# The lattice operators over sets of profiles and (stem, cycle) pairs, with
# the S⁺ cache star and ω share: ProfileDomain's, under its interface
# names.  The monoid works on one profile at a time.
SET_LEVEL = ("concat_fin", "concat_fin_mix", "star", "omega", "mix_join",
             "accepts_fin", "accepts_mix", "_closure", "_closures")
# Defined in the package but referred to only from tests/: the one-file
# entry point.
UNREFERENCED_BY_DESIGN = {"parse_program"}
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
              ("interp", interp,
               INTERP_ONLY + RESTARTED_SCRIPTS + ONE_LEVEL_ENUMERATOR
               + RUN_COPIES),
              ("Evaluator", interp.Evaluator,
               RESTARTING_RUN + ONE_LEVEL_ENUMERATOR),
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


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")  # Python calls these


def test_every_package_name_is_used_outside_the_tests():
    users = [*PACKAGE_DIR.glob("*.py"), *PERFBENCH_DIR.glob("*.py")]
    referenced = {name for path in users for name in _references(_tree(path))}
    unused = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE_DIR.glob("*.py")
        for name in _definitions(_tree(path))
        if name not in referenced and name not in UNREFERENCED_BY_DESIGN
        and not _dunder(name)
    )
    assert unused == []


def _unread_methods(defining: dict, readers: list) -> list:
    """module.Class.method of each method the trees in ``defining`` (module
    name -> tree) define in a class body that no tree of ``readers`` reads
    as an attribute.  A bare name of the same spelling does not count."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Store)}
    return sorted(
        f"{module}.{cls.name}.{item.name}"
        for module, tree in defining.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name not in read and not _dunder(item.name))


def test_every_package_method_is_read_as_an_attribute():
    package = {path.stem: _tree(path) for path in PACKAGE_DIR.glob("*.py")}
    readers = [*package.values(),
               *map(_tree, PERFBENCH_DIR.glob("*.py"))]
    assert _unread_methods(package, readers) == []
    # the guard sees a method that a function of its name would hide
    probe = ast.parse("class M:\n    def accepts_lasso(self, u, v): ...\n"
                      "def accepts_lasso(g, u, v): ...\n"
                      "accepts_lasso(None, (), ('a',))\n")
    assert _unread_methods({"probe": probe}, [probe]) == [
        "probe.M.accepts_lasso"]
    read = ast.parse("m.accepts_lasso((), ('a',))")
    assert _unread_methods({"probe": probe}, [probe, read]) == []


def _unused_imports(tree: ast.Module):
    """The names a module's imports bind that it never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_package_import_is_used():
    unused = sorted(f"{path.name}:{name}"
                    for path in PACKAGE_DIR.glob("*.py")
                    for name in _unused_imports(_tree(path)))
    assert unused == []
    # the guard sees imports left behind by a deletion
    probe = ast.parse("from typing import Iterable, Sequence\n"
                      "from .profiles import FIN_BOTTOM, MIX_BOTTOM, MixAbs\n"
                      "import os.path\n"
                      "def f(xs: Iterable):\n    return MIX_BOTTOM\n")
    assert sorted(_unused_imports(probe)) == [
        "FIN_BOTTOM", "MixAbs", "Sequence", "os"]


def _names(tree: ast.Module):
    """What a module defines or names, its functions' parameters included."""
    yield from _definitions(tree)
    yield from _references(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.arg


def test_moved_and_deleted_names_are_named_nowhere_in_the_package():
    named = sorted(f"{path.name}:{name}" for path in PACKAGE_DIR.glob("*.py")
                   for name in set(_names(_tree(path)))
                   if name in NAMED_NOWHERE)
    assert named == []
    # the elimination order is the system's signature order
    assert list(inspect.signature(solver.solve).parameters) == [
        "system", "domain"]
    # the guard sees a parameter and a call
    probe = ast.parse("def _explore(roots, ended, entry, forked_cycles): ...\n"
                      "runs = interp.enumerate_traces(prog, entry)\n")
    assert sorted(set(_names(probe)) & set(NAMED_NOWHERE)) == [
        "enumerate_traces", "forked_cycles"]
    # and an import; an attribute only ever set is no name read, so the
    # automaton itself is checked for the registry's
    probe = ast.parse("import weakref\nself.monoid_ref = None\n")
    assert sorted(set(_names(probe)) & set(NAMED_NOWHERE)) == ["weakref"]
    g = parse_guideline("alphabet: a\nstates: q\ninitial: q\n")
    assert [name for name in MONOID_REGISTRY if hasattr(g, name)] == []


def test_a_body_is_built_once_and_read_once_before_typing():
    # no node is rebuilt: Node has no replace, and fjtypes calls none
    assert not hasattr(Node, "replace")
    calls = [node.func.attr for node in ast.walk(_tree(Path(fjtypes.__file__)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    assert "replace" not in calls and "append" in calls
    # inference walks no body; the table keeps no read sets of its own
    assert "subexprs" not in set(_names(_tree(Path(inference.__file__))))
    prog = fjparser.parse_program("class A { Object m() { return this; } }")
    table = init_table(prog, region_meta(prog))
    assert not hasattr(table, "reads") and hasattr(table, "groups")


def test_the_monoid_leaves_the_lattice_operators_to_the_domain():
    g = parse_guideline("alphabet: a\nstates: q\ninitial: q\naccepting: q\n"
                        "trans: q a q\n")
    monoid = ProfileMonoid(g)
    assert [name for name in SET_LEVEL if hasattr(monoid, name)] == []


def _forwarders(tree: ast.Module) -> list:
    """The methods of ProfileDomain whose body, a docstring aside, is one
    ``return self.monoid.<method>(...)``."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and node.name == "ProfileDomain"):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            body = [stmt for stmt in item.body
                    if not (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant))]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Attribute)
                    and call.func.value.attr == "monoid"
                    and isinstance(call.func.value.value, ast.Name)
                    and call.func.value.value.id == "self"):
                out.append(item.name)
    return out


def test_no_profile_domain_method_only_forwards_to_the_monoid():
    tree = _tree(PACKAGE_DIR / "domains.py")
    assert _forwarders(tree) == []
    # the guard sees a forwarder, and not a method that reads the monoid
    probe = ast.parse(
        "class ProfileDomain:\n"
        "    def star(self, x):\n"
        "        \"\"\"S*.\"\"\"\n"
        "        return self.monoid.star(x)\n"
        "    def alpha_word(self, w):\n"
        "        return frozenset({self.monoid.profile_of_word(w)})\n"
        "    def fin_height(self):\n"
        "        return len(self.monoid.zero) + 1\n")
    assert _forwarders(probe) == ["star"]


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
