"""The benchmark's workloads: seeded input generators and expected answers.

Each workload is a list of checks.  A check is one ``guidecheck analyze``
invocation: the input files it reads, its command-line arguments, the
guideline as data (for the benchmark's own witness validator) and the answer
it must give.  The program under test receives only the written files.

``--seed`` renames every event and every guideline state to random names
chosen so that their sorted order is the original order, and shuffles the
order of the guideline's transition lines.  That gives different input bytes
for each seed with the same answer and the same amount of work: nothing in
the analysis depends on a name except through its sort order.  Structure
that would change the cost or the answer (sizes, fuel, which method breaks
the guideline) is fixed per workload.

Expected answers: a verdict, a process exit code, the mark of every reported
signature as ``"<returns> <throws> <diverges>"`` with each part ``ok`` or
``FAIL``, and per counterexample entry the witness kind (or ``None`` when
the search must find nothing).  Where the answer follows from how the input
is built, the generator says why next to it; the ``guideline-batch`` answers
are pinned in ``guideline_batch_expected.json``.
"""

from __future__ import annotations

import json
import os
import random
import string
from dataclasses import dataclass

# Words the object language, the config format or the guideline format give a
# meaning to; a generated name must not be one of them.
RESERVED = {
    "class", "extends", "emit", "return", "if", "else", "throw", "try",
    "catch", "new", "null", "eps", "Null", "Unknown", "emits", "throws",
}

HERE = os.path.dirname(os.path.abspath(__file__))
BATCH_EXPECTED = os.path.join(HERE, "guideline_batch_expected.json")


@dataclass
class Guideline:
    alphabet: list
    states: list
    initial: list
    accepting: list
    transitions: list  # (state, letter, state) triples

    def renamed(self, letters: dict, states: dict) -> "Guideline":
        return Guideline(
            [letters[a] for a in self.alphabet],
            [states[q] for q in self.states],
            [states[q] for q in self.initial],
            [states[q] for q in self.accepting],
            [(states[q], letters[a], states[q2])
             for q, a, q2 in self.transitions],
        )

    def render(self, rng: random.Random) -> str:
        lines = [
            f"alphabet: {' '.join(self.alphabet)}",
            f"states: {' '.join(self.states)}",
            f"initial: {' '.join(self.initial)}",
            f"accepting: {' '.join(self.accepting)}",
        ]
        trans = [f"trans: {q} {a} {q2}" for q, a, q2 in self.transitions]
        rng.shuffle(trans)
        return "\n".join(lines + trans) + "\n"


@dataclass
class Check:
    name: str
    files: dict  # file name -> text
    argv: list  # 'analyze' arguments; file arguments are bare file names
    guideline: Guideline
    expected: dict

    def argv_in(self, directory: str) -> list:
        """The arguments with every file name resolved inside directory."""
        return [os.path.join(directory, a) if a in self.files else a
                for a in self.argv]


@dataclass
class Workload:
    name: str
    checks: list


def order_preserving_names(rng: random.Random, originals) -> dict:
    """Fresh random identifiers for originals, in the same sorted order."""
    names: set = set()
    while len(names) < len(originals):
        cand = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits)
            for _ in range(5))
        if cand not in RESERVED:
            names.add(cand)
    return dict(zip(sorted(originals), sorted(names)))


def sig_key(cls: str, recv: str, method: str, args) -> str:
    """A signature as the report prints it."""
    return f"({cls}, {recv}, {method}, [{', '.join(args)}])"


def marks(returns_ok=True, throws_ok=True, diverges_ok=True) -> str:
    return " ".join("ok" if ok else "FAIL"
                    for ok in (returns_ok, throws_ok, diverges_ok))


def _check(name, rng, program, guideline, config, argv, expected,
           letters, states) -> Check:
    """Rename events and states; name the input files and the arguments."""
    g = guideline.renamed(letters, states)
    for old, new in letters.items():
        program = _swap_events(program, old, new)
        config = _swap_events(config, old, new) if config else config
    files = {f"{name}.fj": program, f"{name}.gl": g.render(rng)}
    args = ["analyze", "--program", f"{name}.fj", "--guideline", f"{name}.gl"]
    if config:
        files[f"{name}.cfg"] = config
        args += ["--config", f"{name}.cfg"]
    return Check(name, files, args + argv + ["--report", "json"], g, expected)


def _swap_events(text: str, old: str, new: str) -> str:
    """Rename one event in program or config text.  Events are written
    '@<event>@' in the templates below, so no other identifier is touched."""
    return text.replace(f"@{old}@", new)


# -- serve-cex -----------------------------------------------------------------
#
# Why: the counterexample search.  tests/fixtures/serve.fj checked against
# serve_liveness.gl at fuel 4, 5 and 6 (ROADMAP workload (a) stops at 8, but
# one fuel-8 check takes seconds, too long to time steadily on a shared
# machine): the analysis itself is instant, and almost all the time goes to
# enumerate_traces building all 3^fuel runs before any is examined.  It is
# the workload for a lazy or iterative-deepening search.

SERVE_FJ = """\
// An event loop: poll for a connection, authenticate it, maybe grant
// access, repeat forever.  poll and ask are external (see the config).
class Conn extends Object {
}

class Server extends Object {
    Conn poll() {
        return null;
    }

    Conn ask(Conn c) {
        return null;
    }

    Object serve() {
        Conn c = this.poll();
        Conn z = null;
        if (c == z) {
            emit @log@;
        } else {
            emit @authcheck@;
            Conn g = this.ask(c);
            Conn z2 = null;
            if (g == z2) {
            } else {
                emit @access@;
            }
        }
        return this.serve();
    }
}
"""

SERVE_CFG = """\
Server.poll() -> Unknown emits eps
Server.ask(_) -> Unknown emits eps
"""

# Every access is eventually followed by a log (Büchi condition on 'clear').
SERVE_LIVENESS = Guideline(
    ["log", "authcheck", "access"],
    ["clear", "owing"],
    ["clear"],
    ["clear"],
    [("clear", "log", "clear"), ("clear", "authcheck", "clear"),
     ("clear", "access", "owing"), ("owing", "access", "owing"),
     ("owing", "authcheck", "owing"), ("owing", "log", "clear")],
)

SERVE_FUELS = (4, 5, 6)


def serve_cex(rng: random.Random) -> Workload:
    letters = order_preserving_names(rng, SERVE_LIVENESS.alphabet)
    states = order_preserving_names(rng, SERVE_LIVENESS.states)
    # Known by construction: both stubs emit only the empty word, which the
    # total automaton accepts, so every stub row passes; serve never returns
    # or throws, and it can loop on 'authcheck access' forever, which never
    # visits 'clear' again, so its divergence part fails.  The search finds
    # that loop as a divergence witness.
    sigs = {}
    for recv in ("Null", "Unknown"):
        sigs[sig_key("Server", recv, "poll", [])] = marks()
        for arg in ("Null", "Unknown"):
            sigs[sig_key("Server", recv, "ask", [arg])] = marks()
    sigs[sig_key("Server", "Unknown", "serve", [])] = marks(diverges_ok=False)
    expected = {"exit": 1, "verdict": "fail", "sigs": sigs,
                "witnesses": {"Server.serve": "divergence"}}
    checks = [_check(
        f"serve{fuel}", rng, SERVE_FJ, SERVE_LIVENESS, SERVE_CFG,
        ["--entry", "Server.serve", "--fuel", str(fuel)],
        expected, letters, states) for fuel in SERVE_FUELS]
    return Workload("serve-cex", checks)


# -- region-ladder -------------------------------------------------------------
#
# Why: the divergence solver.  ROADMAP family (b): Node.step takes two Node
# parameters, and Main.go allocates a linked ladder of LADDER_N Nodes and
# calls x0.step(x0, x0).  Main.go also allocates LADDER_TAGS objects it never
# uses; each of their sites is one more region.  With R regions there are
# R^3 step signatures but only (LADDER_N + 1) * R^2 step bodies to type, so
# the equation system is large next to the inference work: R = 10 gives
# 1,010 signatures.  Almost all have no calls left open, but solve() still
# visits every earlier variable for each one, so its cost grows with the
# square of the signature count.  The head node x0 sits at the last node
# label in sort order and each next node at the one before it, so callees
# are typed before their callers and inference settles in a few sweeps; the
# monoid is tiny.

LADDER_N = 2
LADDER_TAGS = 6
LADDER_FUEL = LADDER_N + 2  # reaches the second Main.go call


def _ladder_program() -> str:
    allocs = [f"        Node x{i} = new[l{LADDER_N - 1 - i:02d}] Node();"
              for i in range(LADDER_N)]
    allocs += [f"        Tag y{k} = new[t{k:02d}] Tag();"
               for k in range(LADDER_TAGS)]
    links = [f"        x{i}.next = x{i + 1};" for i in range(LADDER_N - 1)]
    body = "\n".join(allocs + links)
    return f"""\
class Tag extends Object {{
}}

class Node extends Object {{
    Node next;

    Node step(Node p0, Node p1) {{
        emit @a@;
        Node n = this.next;
        Node z = null;
        if (n == z) {{
            return this;
        }} else {{
            return n.step(n, n);
        }}
    }}
}}

class Main extends Object {{
    Object go() {{
        emit @b@;
{body}
        Node r = x0.step(x0, x0);
        return this.go();
    }}
}}
"""


# No b after the first a: the language b* a* (and b^w, b* a^w).
LADDER_GUIDELINE = Guideline(
    ["a", "b"], ["s0", "s1"], ["s0"], ["s0", "s1"],
    [("s0", "b", "s0"), ("s0", "a", "s1"), ("s1", "a", "s1")],
)


def region_ladder(rng: random.Random) -> Workload:
    letters = order_preserving_names(rng, LADDER_GUIDELINE.alphabet)
    states = order_preserving_names(rng, LADDER_GUIDELINE.states)
    # Known by construction: step emits only a's and walks an acyclic next
    # chain that the field table tracks site by site, so at every receiver
    # where a Node can live it returns a+ and never diverges, whatever its
    # arguments; at Null and at the Tag sites no Node lives, so those rows
    # stay empty and are not reported.  go emits b, then a's, then recurses,
    # so it never returns and its infinite trace (b a+)^w has a b after an
    # a.  The first run reaches the second go call and its prefix b a^N b is
    # dead.
    nodes = [f"@l{i:02d}" for i in range(LADDER_N)]
    tags = [f"@t{k:02d}" for k in range(LADDER_TAGS)]
    regions = ["Null"] + nodes + tags + ["Unknown"]
    sigs = {}
    for recv in nodes + ["Unknown"]:
        for p0 in regions:
            for p1 in regions:
                sigs[sig_key("Node", recv, "step", [p0, p1])] = marks()
    sigs[sig_key("Main", "Unknown", "go", [])] = marks(diverges_ok=False)
    expected = {"exit": 1, "verdict": "fail", "sigs": sigs,
                "witnesses": {"Main.go": "dead-prefix"}}
    check = _check(
        "ladder", rng, _ladder_program(), LADDER_GUIDELINE, "",
        ["--entry", "Main.go", "--fuel", str(LADDER_FUEL)],
        expected, letters, states)
    return Workload("region-ladder", [check])


# -- call-chain ----------------------------------------------------------------
#
# Why: the inference sweeps.  A 40-method acyclic chain C0.m0 -> C0.m1 ->
# ... -> C3.m9, 20 emits per method, 5 regions, so 200 signatures.  Each
# method calls its successor first and emits afterwards, and callers sort
# before callees, so every sweep pushes returning effects back by one call:
# about forty sweeps over every body.  It also carries the most source text
# of any workload (about 1k lines), so parsing is largest here.

CHAIN_CLASSES = 4
CHAIN_METHODS = 10
CHAIN_EMITS = 20
CHAIN_BROKEN = 20  # index of the method whose block contains 'b b'
CHAIN_FUEL = 32


def _chain_block(rng: random.Random, broken: bool) -> list:
    """CHAIN_EMITS letters that start and end with a and, unless broken,
    never hold two b's in a row; concatenating blocks keeps that property."""
    out = ["a"]
    while len(out) < CHAIN_EMITS - 1:
        out.append("a" if out[-1] == "b" else rng.choice("ab"))
    out.append("a")
    if broken:
        mid = CHAIN_EMITS // 2
        out[mid - 1:mid + 1] = ["b", "b"]
    return out


def _chain_program(rng: random.Random) -> str:
    classes = []
    for i in range(CHAIN_CLASSES):
        methods = []
        for j in range(CHAIN_METHODS):
            index = i * CHAIN_METHODS + j
            if j + 1 < CHAIN_METHODS:
                head = [f"        Object r = this.m{j + 1}();"]
            elif i + 1 < CHAIN_CLASSES:
                head = [f"        C{i + 1} nx = new[k{i + 1}] C{i + 1}();",
                        "        Object r = nx.m0();"]
            else:
                head = ["        Object r = null;"]
            emits = [f"        emit @{e}@;"
                     for e in _chain_block(rng, index == CHAIN_BROKEN)]
            methods.append("\n".join(
                [f"    Object m{j}() {{"] + head + emits
                + ["        return r;", "    }"]))
        classes.append(f"class C{i} extends Object {{\n"
                       + "\n\n".join(methods) + "\n}\n")
    return "\n".join(classes)


# No two b's in a row; both states accept, so a bad word dies at once.
CHAIN_GUIDELINE = Guideline(
    ["a", "b"], ["s0", "s1"], ["s0"], ["s0", "s1"],
    [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "a", "s0")],
)


def call_chain(rng: random.Random) -> Workload:
    letters = order_preserving_names(rng, CHAIN_GUIDELINE.alphabet)
    states = order_preserving_names(rng, CHAIN_GUIDELINE.states)
    # Known by construction: a method returns its successor's trace followed
    # by its own block, so its trace holds 'b b' exactly when the broken
    # method is at or after it in the chain.  Nothing throws or diverges.
    # Bodies are typed at Unknown and, from C1 on, at the class's own site.
    # The search from the broken method runs the chain below it once and
    # reports the whole 400-event trace as a rejected finite trace.
    sigs = {}
    for i in range(CHAIN_CLASSES):
        recvs = ["Unknown"] if i == 0 else [f"@k{i}", "Unknown"]
        for j in range(CHAIN_METHODS):
            ok = i * CHAIN_METHODS + j > CHAIN_BROKEN
            for recv in recvs:
                sigs[sig_key(f"C{i}", recv, f"m{j}", [])] = marks(
                    returns_ok=ok)
    entry = (f"C{CHAIN_BROKEN // CHAIN_METHODS}."
             f"m{CHAIN_BROKEN % CHAIN_METHODS}")
    expected = {"exit": 1, "verdict": "fail", "sigs": sigs,
                "witnesses": {entry: "finite-trace"}}
    check = _check(
        "chain", rng, _chain_program(rng), CHAIN_GUIDELINE, "",
        ["--entry", entry, "--fuel", str(CHAIN_FUEL)],
        expected, letters, states)
    return Workload("call-chain", [check])


# -- guideline-batch -----------------------------------------------------------
#
# Why: the profile monoid.  One small fixed program checked against eight
# random 7-state guidelines over three letters; their transition monoids
# hold 226 to 1,125 profiles, against at most six on the other workloads, so
# ProfileMonoid's closure dominates.  (Larger draws reach 10^4 profiles and
# seconds per check, too long to time steadily.)  Every check fails and runs
# a fuel-4 counterexample search; half of those find nothing and exhaust
# every run, the opposite use of the search layer to serve-cex.

BATCH_FJ = """\
class Env extends Object {
    Env poll() {
        return null;
    }
}

class Main extends Object {
    Object go() {
        Env e = new[env] Env();
        emit @a@;
        return this.ping(e);
    }

    Object ping(Env e) {
        Env v = e.poll();
        Env z = null;
        if (v == z) {
            emit @b@;
            return this.pong(e);
        } else {
            return null;
        }
    }

    Object pong(Env e) {
        emit @c@;
        Env v = e.poll();
        Env z = null;
        if (v == z) {
            return this.ping(e);
        } else {
            emit @a@;
            return this.go();
        }
    }
}
"""

BATCH_CFG = """\
Env.poll() -> Unknown emits eps | @a@ @b@ | @c@ @c@
"""

BATCH_SIZE = 8
BATCH_STATES = 7
BATCH_DENSITY = 0.3
BATCH_GENERATOR_SEED = 0  # fixed: the answers are pinned to it
BATCH_FUEL = 4


def batch_guidelines() -> list:
    """The batch's guidelines, the same for every benchmark seed."""
    rng = random.Random(BATCH_GENERATOR_SEED)
    letters = ["a", "b", "c"]
    states = [f"q{i}" for i in range(BATCH_STATES)]
    out = []
    for _ in range(BATCH_SIZE):
        accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
        trans = [(q, a, q2) for q in states for a in letters for q2 in states
                 if rng.random() < BATCH_DENSITY]
        out.append(Guideline(letters, states, [states[0]], accepting, trans))
    return out


def guideline_batch(rng: random.Random) -> Workload:
    # Pinned, not derived: the answers of the batch's checks as guidecheck
    # computed them when the benchmark was written
    # (guideline_batch_expected.json).
    with open(BATCH_EXPECTED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    checks = []
    for k, g in enumerate(batch_guidelines()):
        letters = order_preserving_names(rng, g.alphabet)
        states = order_preserving_names(rng, g.states)
        checks.append(_check(
            f"batch{k:02d}", rng, BATCH_FJ, g, BATCH_CFG,
            ["--entry", "Main.go", "--fuel", str(BATCH_FUEL)],
            pinned[k], letters, states))
    return Workload("guideline-batch", checks)


WORKLOADS = {
    "serve-cex": serve_cex,
    "region-ladder": region_ladder,
    "call-chain": call_chain,
    "guideline-batch": guideline_batch,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def write(workload: Workload, directory: str) -> None:
    for check in workload.checks:
        for fname, text in check.files.items():
            with open(os.path.join(directory, fname), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
