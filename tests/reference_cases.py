"""Programs the tests run whole analyses on, against the references.

``reference_cases`` yields the soundness corpus, the taint corpus and every
fixture program under every fixture guideline whose alphabet covers it;
``entry_points`` gives a program's parameterless methods, the entries of
its demand-driven runs; ``ladder`` builds ROADMAP family (b), the wide
tables whose signatures share a few rows and equations.
"""

from __future__ import annotations

import corpus as soundness_corpus
import taint_corpus
from conftest import FIXTURES, fixture
from guidecheck.domains import ProfileDomain
from guidecheck.fjparser import parse_program
from guidecheck.fjtypes import methods_of
from guidecheck.guideline import load_guideline
from guidecheck.intrinsics import load_config, parse_config


def reference_cases(make_domain=ProfileDomain):
    """(name, program, domain, stub specs) over the soundness corpus, the
    taint corpus, and every fixture program under every fixture guideline
    whose alphabet covers it; one domain per guideline, made by
    make_domain."""
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
