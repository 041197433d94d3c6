"""Programs the tests run whole analyses on, against the references.

``reference_cases`` yields the soundness corpus, the taint corpus, every
fixture program and the ``emit_runs`` program under every fixture guideline
whose alphabet covers it; ``entry_points`` gives a program's parameterless
methods, the entries of its demand-driven runs; ``ladder`` builds ROADMAP
family (b), the wide tables whose signatures share a few rows and
equations.
"""

from __future__ import annotations

import corpus as soundness_corpus
import taint_corpus
from conftest import FIXTURES, fixture
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.guideline import load_guideline
from guidecheck.intrinsics import load_config, parse_config
from hierarchy_reference import methods_of


def reference_cases(make_domain=ProfileDomain):
    """(name, program, domain, stub specs) over the soundness corpus, the
    taint corpus, and every fixture program and the ``emit_runs`` program
    under every fixture guideline whose alphabet covers it; one domain per
    guideline, made by make_domain."""
    domains = {}

    def domain_of(gl_name):
        if gl_name not in domains:
            domains[gl_name] = make_domain(load_guideline(fixture(gl_name)))
        return domains[gl_name]

    d = domain_of("count_mod3.gl")
    for name, (src, _, _, cfg) in sorted(soundness_corpus.PROGRAMS.items()):
        prog = parse_program(src, f"{name}.fj", alphabet=d.alphabet)
        yield name, prog, d, parse_config(cfg, d.alphabet) if cfg else {}
    d = domain_of("taint.gl")
    for name, src in sorted(taint_corpus.PROGRAMS.items()):
        yield name, parse_program(src, f"{name}.fj", alphabet=d.alphabet), d, {}
    for fj in sorted(FIXTURES.glob("*.fj")):
        prog = parse_program(fj.read_text(encoding="utf-8"), fj.name)
        for gl in sorted(FIXTURES.glob("*.gl")):
            d = domain_of(gl.name)
            if not prog.alphabet <= set(d.alphabet):
                continue
            specs = {}
            if fj.name == "serve.fj":
                specs = load_config(fixture("serve.cfg"), d.alphabet)
            yield f"{fj.name}/{gl.name}", prog, d, specs
    runs = emit_runs(3, 3, 6)
    for gl in sorted(FIXTURES.glob("*.gl")):
        d = domain_of(gl.name)
        if {"a", "b"} <= set(d.alphabet):
            yield (f"emit_runs/{gl.name}",
                   parse_program(runs, "emit_runs.fj", alphabet=d.alphabet),
                   d, {})


def entry_points(prog):
    return [f"{c.name}.{m}" for c in prog.classes
            for m, (md, _) in sorted(methods_of(prog, c.name).items())
            if not md.params]


def ladder(nodes, tags):
    """ROADMAP family (b): Node.step(p0, p1) reads only this and its next
    field; Main.go links the Nodes, head at the last label in sort order,
    allocates unused Tags, and calls step on the head."""
    allocs = [f"Node x{i} = new[l{nodes - 1 - i:02d}] Node();"
              for i in range(nodes)]
    allocs += [f"Tag y{k} = new[t{k:02d}] Tag();" for k in range(tags)]
    links = [f"x{i}.next = x{i + 1};" for i in range(nodes - 1)]
    return ("class Tag extends Object { }\n"
            "class Node extends Object { Node next;\n"
            "  Node step(Node p0, Node p1) { emit a; Node n = this.next;"
            " Node z = null; if (n == z) { return this; }"
            " else { return n.step(n, n); } } }\n"
            "class Main extends Object { Object go() { emit a; "
            + " ".join(allocs + links)
            + " Node r = x0.step(x0, x0); return this.go(); } }\n")


def emit_runs(classes, methods, emits):
    """The call-chain benchmark's shape scaled down, with runs of emits
    wherever a run can stand in a spine.  Each C{i}.m{j} runs a third of
    its emits at the head of its body, calls its successor, runs a third
    between that call and a call of its class's leaf, and runs the rest just
    before it returns.  The last method calls Spots.guarded, and Spots puts
    runs in both branches of an if, in a try body and in its handler, before
    a throw, and directly before a Let of a two-region field that the rest
    of the spine reads, so is typed once per region."""
    letter = 0

    def run(n):
        nonlocal letter
        letter += n
        return " ".join(f"emit {'ab'[(letter - i) % 3 == 0]};"
                        for i in range(n))

    third = emits // 3
    out = ["class Oops extends Object { }",
           "class Cell extends Object { Cell f; }",
           "class Spots extends Object { Cell f;",
           f"  Object branch() {{ {run(2)} if (this == this) {{ {run(3)}"
           f" return this; }} else {{ {run(2)} return null; }} }}",
           f"  Object guarded() {{ try {{ {run(3)}"
           f" Object t = this.branch(); {run(2)} throw new[o1] Oops(); }}"
           f" catch (Oops e) {{ {run(3)} return e; }} }}",
           f"  Object boom() {{ {run(3)} throw new[o2] Oops(); }}",
           f"  Object pick() {{ Cell p = new[p] Cell();"
           f" Cell q = new[q] Cell(); p.f = q; q.f = p; this.f = p;"
           f" this.f = q; {run(3)} Cell c = this.f; {run(2)} Cell d = c.f;"
           f" {run(1)} return d; }}",
           "}"]
    for i in range(classes):
        out.append(f"class C{i} extends Object {{")
        out.append(f"  Object leaf() {{ {run(2)} return this; }}")
        for j in range(methods):
            if j + 1 < methods:
                call = f"Object r = this.m{j + 1}();"
            elif i + 1 < classes:
                call = (f"C{i + 1} nx = new[k{i + 1}] C{i + 1}();"
                        f" Object r = nx.m0();")
            else:
                call = "Spots sp = new[sp] Spots(); Object r = sp.guarded();"
            out.append(f"  Object m{j}() {{ {run(third)} {call} {run(third)}"
                       f" Object u = this.leaf();"
                       f" {run(emits - 2 * third)} return r; }}")
        out.append("}")
    return "\n".join(out) + "\n"
