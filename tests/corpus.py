"""Programs for the interpreter-vs-analysis soundness sweep.

Each row is (source, entry, fuel, stub config or None).  The sweep runs
every enumerated interpreter execution of the entry and checks it against
the inferred tables: complete runs must land in a T entry whose region the
result satisfies (H and the throw location for exceptional runs), and
fuel-stopped prefixes must be extensible inside some inferred behaviour.

The mix matters more than any single program: several throw (caught and
not), several never terminate (silent loops, emitting loops, mutual
recursion, cyclic heap structures), several branch on stub choices so one
entry has many runs.  All emit into the two-letter alphabet {a, b}.
"""

from __future__ import annotations

from pathlib import Path

_FIXTURES = Path(__file__).parent / "fixtures"

# name -> (source, entry, fuel, config)
PROGRAMS: dict = {}


def _add(name, entry, source, fuel=6, config=None):
    assert name not in PROGRAMS
    PROGRAMS[name] = (source, entry, fuel, config)


# -- straight-line and branching, all terminating -------------------------------

_add("seq", "Main.go", """
class Main extends Object {
    Object go() {
        emit a;
        emit b;
        emit a;
        return null;
    }
}
""")

_add("pair", "Main.go", """
// wire two cells together, walk the link back, return the far one
class Cell extends Object {
    Cell peer;
}

class Main extends Object {
    Cell go() {
        Cell x = new[p1] Cell();
        Cell y = new[p2] Cell();
        x.peer = y;
        emit a;
        Cell back = x.peer;
        return back;
    }
}
""")

_add("dispatch", "Main.go", """
class A extends Object {
    Object speak() {
        emit a;
        return null;
    }
}

class B extends A {
    Object speak() {
        emit b;
        return null;
    }
}

class Main extends Object {
    Object go() {
        A x = new[d1] B();
        return x.speak();
    }
}
""")

_add("branch_regions", "Main.go", """
// the comparison is decided by allocation: x is never null
class Main extends Object {
    Object go() {
        Main x = new[b1] Main();
        Main z = null;
        if (x == z) {
            emit a;
        } else {
            emit b;
        }
        return null;
    }
}
""")

_add("cast_roundtrip", "Main.go", """
class A extends Object {
}

class B extends A {
}

class Main extends Object {
    B go() {
        A wide = new[c1] B();
        emit a;
        return (B) wide;
    }
}
""")

_add("read_default", "Main.go", """
// fields start out null; the read feeds the comparison
class Box extends Object {
    Box inner;
}

class Main extends Object {
    Object go() {
        Box b = new[r1] Box();
        Box got = b.inner;
        Box z = null;
        if (got == z) {
            emit a;
        } else {
            emit b;
        }
        return null;
    }
}
""")

# -- stub-driven branching -------------------------------------------------------

_add("stub_branch", "Main.go", """
class Net extends Object {
    Net fetch() {
        return null;
    }
}

class Main extends Object {
    Object go() {
        Net n = new[s1] Net();
        Net r = n.fetch();
        Net z = null;
        if (r == z) {
            emit a;
        } else {
            emit b;
        }
        return null;
    }
}
""", config="Net.fetch() -> Unknown emits eps\n")

_add("stub_words", "Main.go", """
// the stub itself emits; the program just brackets it
class Src extends Object {
    Object pull() {
        return null;
    }
}

class Main extends Object {
    Object go() {
        Src s = new[w1] Src();
        emit b;
        Object got = s.pull();
        emit b;
        return got;
    }
}
""", config="Src.pull() -> Null emits a a a | b\n")

# -- exceptions ------------------------------------------------------------------

_add("throw_plain", "Main.go", """
class Oops extends Object {
}

class Main extends Object {
    Object go() {
        emit a;
        throw new[t1] Oops();
    }
}
""")

_add("throw_caught", "Main.go", """
class Oops extends Object {
}

class Main extends Object {
    Object go() {
        try {
            emit a;
            throw new[t2] Oops();
        } catch (Oops e) {
            emit b;
        }
        return null;
    }
}
""")

_add("throw_deep", "Main.go", """
// raised three frames down, unwinds through untouched callers
class Deep extends Object {
    Object one() {
        emit a;
        return this.two();
    }

    Object two() {
        emit b;
        return this.three();
    }

    Object three() {
        throw new[t3] Deep();
    }
}

class Main extends Object {
    Object go() {
        Deep d = new[t4] Deep();
        return d.one();
    }
}
""")

_add("throw_cond", "Main.go", """
// whether we throw depends on the stub's answer
class Gate extends Object {
    Gate open() {
        return null;
    }
}

class Main extends Object {
    Object go() {
        Gate g = new[t5] Gate();
        Gate r = g.open();
        Gate z = null;
        if (r == z) {
            emit a;
            throw new[t6] Gate();
        } else {
            emit b;
        }
        return null;
    }
}
""", config="Gate.open() -> Unknown emits eps\n")

_add("throw_after_events", "Main.go", """
class Oops extends Object {
}

class Main extends Object {
    Object go() {
        emit a;
        emit b;
        emit b;
        throw new[t7] Oops();
    }
}
""")

_add("rethrow_other", "Main.go", """
// the handler catches one exception and raises a different one
class First extends Object {
}

class Second extends Object {
}

class Main extends Object {
    Object go() {
        try {
            emit a;
            throw new[t8] First();
        } catch (First e) {
            emit b;
            throw new[t9] Second();
        }
        return null;
    }
}
""")

# -- divergence ------------------------------------------------------------------

_add("spin_silent", "Main.go", """
// loops forever without emitting anything at all
class Main extends Object {
    Object go() {
        return this.go();
    }
}
""", fuel=5)

_add("spin_emit", "Main.go", """
class Main extends Object {
    Object go() {
        emit a;
        return this.go();
    }
}
""", fuel=5)

_add("mutual", "Main.ping", """
class Main extends Object {
    Object ping() {
        emit a;
        return this.pong();
    }

    Object pong() {
        emit b;
        return this.ping();
    }
}
""", fuel=5)

_add("two_phase", "Main.go", """
// a finite prologue, then an infinite tail with a different letter
class Main extends Object {
    Object go() {
        emit b;
        emit b;
        return this.loop();
    }

    Object loop() {
        emit a;
        return this.loop();
    }
}
""", fuel=5)

_add("diverge_choice", "Main.go", """
// one stub answer terminates the run, the other never comes back
class Poll extends Object {
    Poll next() {
        return null;
    }
}

class Main extends Object {
    Object go() {
        Poll p = new[v1] Poll();
        return this.step(p);
    }

    Object step(Poll p) {
        Poll r = p.next();
        Poll z = null;
        if (r == z) {
            emit b;
        } else {
            emit a;
            return this.step(p);
        }
        return null;
    }
}
""", fuel=5, config="Poll.next() -> Unknown emits eps\n")

_add("try_diverge", "Main.go", """
// the handler is unreachable: the protected body never finishes
class Oops extends Object {
}

class Main extends Object {
    Object go() {
        try {
            emit a;
            Object r = this.whirl();
            emit b;
        } catch (Oops e) {
            emit b;
        }
        return null;
    }

    Object whirl() {
        emit b;
        return this.whirl();
    }
}
""", fuel=5)

_add("cyclic_field", "Main.go", """
// a one-cell cycle in the heap; chasing it never bottoms out
class Ring extends Object {
    Ring next;

    Ring chase() {
        emit b;
        Ring n = this.next;
        Ring z = null;
        if (n == z) {
            return this;
        } else {
            return n.chase();
        }
    }
}

class Main extends Object {
    Ring go() {
        Ring r = new[y1] Ring();
        r.next = r;
        return r.chase();
    }
}
""", fuel=5)

# -- class hierarchies ------------------------------------------------------------

_add("mid_stub", "Main.go", """
// only C.m emits; the stub on P.m sits between C and G, and the call
// dispatches through G, so G's entry must still cover C's: the one run
// emits a a
class G extends Object {
    Object m() { return null; }
}

class P extends G {
    Object m() { return null; }
}

class C extends P {
    Object m() { emit a; return null; }
}

class Main extends Object {
    Object go() {
        G x = new[g1] C();
        emit a;
        return x.m();
    }
}
""", config="P.m() -> Null emits eps\n")

_add("inherited_field", "Main.go", """
// f is declared in A; a write through a B reaches a read through an A,
// and the value read dispatches to C's override
class A extends Object {
    A f;

    A get() { A v = this.f; return v; }
}

class B extends A { }

class C extends B {
    A get() { emit b; A v = this.f; return v; }
}

class Main extends Object {
    A go() {
        B x = new[h1] B();
        C y = new[h2] C();
        x.f = y;
        A ax = x;
        A got = ax.f;
        emit a;
        A r = got.get();
        return r;
    }
}
""")

# -- the linked-list fixture, both entries ---------------------------------------

_LIST = (_FIXTURES / "list_last.fj").read_text(encoding="utf-8")
_add("list_linear", "Builder.linear", _LIST)
_add("list_cyclic", "Builder.cyclic", _LIST, fuel=5)
