"""How many products one ``guideline-batch`` pass forms, by kind.

Builds the benchmark's ``guideline-batch`` workload at a seed (through
``perfbench/workloads.py``, which this script only imports), runs each of
its checks once through ``guidecheck.cli.main`` in this interpreter, and
prints one JSON object with the pass's counts:

- ``compose_calls`` and ``compose_misses``: calls of
  ``ProfileMonoid.compose``, and those whose product was not in the cache;
- ``new_profiles``: profiles the monoids interned beyond ε̂ and the
  letters;
- ``fin_concat_calls`` and ``fin_concat_pairs``: calls of
  ``ProfileDomain.fin_concat`` with no ε̂ operand, and the distinct operand
  pairs among them, per analysis;
- ``element_products``: the profile pairs those calls multiplied, |x|·|y|
  per call, less the calls on a pair the domain had multiplied before.

    PYTHONPATH=src python tests/product_counts.py [SEED]

The seed defaults to 1.  Counts are exact: they do not depend on the
machine, and a seed renames events and states without changing the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from conftest import perfbench_workloads
from guidecheck import cli
from guidecheck.domains import ProfileDomain
from guidecheck.profiles import ProfileMonoid


class Counts:
    """The counters, and the class methods that feed them, patched in for
    the length of a ``with`` block."""

    def __init__(self):
        self.compose_calls = self.compose_misses = 0
        self.fin_concat_calls = self.element_products = 0
        self.pairs: set = set()  # (domain id, x, y) of fin_concat
        self.domains: list = []

    def __enter__(self):
        counts = self
        self._saved = {(cls, name): cls.__dict__[name] for cls, name in (
            (ProfileMonoid, "compose"), (ProfileDomain, "__init__"),
            (ProfileDomain, "fin_concat"))}
        compose = ProfileMonoid.compose
        init = ProfileDomain.__init__
        fin_concat = ProfileDomain.fin_concat

        def counting_compose(monoid, p1, p2):
            counts.compose_calls += 1
            counts.compose_misses += p2 not in monoid.mul[p1]
            return compose(monoid, p1, p2)

        def registering_init(domain, guideline):
            init(domain, guideline)
            counts.domains.append(domain)

        def counting_fin_concat(domain, x, y):
            eps = domain.monoid.fin_eps
            if x != eps and y != eps:
                counts.fin_concat_calls += 1
                counts.pairs.add((id(domain), x, y))
                # a domain with no product memo multiplies every pair
                if (x, y) not in getattr(domain, "_products", {}):
                    counts.element_products += len(x) * len(y)
            return fin_concat(domain, x, y)

        ProfileMonoid.compose = counting_compose
        ProfileDomain.__init__ = registering_init
        ProfileDomain.fin_concat = counting_fin_concat
        return self

    def __exit__(self, *exc):
        for (cls, name), method in self._saved.items():
            setattr(cls, name, method)

    def result(self) -> dict:
        built = sum(len(d.monoid.zero) - 1 - len(d.monoid.letters)
                    for d in self.domains)
        return {"compose_calls": self.compose_calls,
                "compose_misses": self.compose_misses,
                "new_profiles": built,
                "fin_concat_calls": self.fin_concat_calls,
                "fin_concat_pairs": len(self.pairs),
                "element_products": self.element_products}


def count(seed: int) -> dict:
    """The counts of one pass over the batch's checks at seed."""
    workloads = perfbench_workloads()
    workload = workloads.build("guideline-batch", seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory, Counts() as counts:
        workloads.write(workload, directory)
        os.chdir(directory)  # file arguments are bare names; keep them so
        try:
            for check in workload.checks:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(check.argv)
        finally:
            os.chdir(cwd)
    return {"workload": "guideline-batch", "seed": seed,
            "checks": len(workload.checks), **counts.result()}


def main(argv: list) -> int:
    seed = int(argv[0]) if argv else 1
    print(json.dumps(count(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
