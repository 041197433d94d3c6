"""Regions and signatures as named tuples.

Their natural tuple order must equal the canonical order, written out here
as explicit keys (kinds ranked null, site, unknown; signatures by class,
method, receiver, arguments), so a change to the order of the kinds or of
the signature fields shows up as a failing sort.  Their hashes must stay
the C-level tuple hashes.
"""

import dataclasses
import random
from collections import namedtuple

import pytest

from guidecheck.regions import NULL_REGION, UNKNOWN, Region, Sig, created_at

KINDS = ("null", "site", "unknown")
LABELS = ("", "a", "A", "a1", "A1", "_", "_a", "a_b", "B_2", "l10", "l2",
          "Z", "z", "0", "9x", "x_")


def old_region_key(r):
    return ({"null": 0, "site": 1, "unknown": 2}[r.kind], r.label)


def old_sig_key(s):
    return (s.cls, s.method, old_region_key(s.recv),
            tuple(old_region_key(a) for a in s.args))


def test_region_order_is_the_old_canonical_order():
    regions = [Region(k, l) for k in KINDS for l in LABELS]
    for seed in range(20):
        shuffled = list(regions)
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled) == sorted(shuffled, key=old_region_key)
    assert sorted([UNKNOWN, created_at("x"), NULL_REGION]) == \
        [NULL_REGION, created_at("x"), UNKNOWN]


def test_sig_order_is_the_old_canonical_order():
    rng = random.Random(7)
    pool = [NULL_REGION, UNKNOWN,
            *(created_at(l) for l in LABELS if l)]
    sigs = [
        Sig(rng.choice(("A", "B", "Main", "a_1")), rng.choice(pool),
            rng.choice(("go", "m", "M", "m_2")),
            tuple(rng.choice(pool) for _ in range(rng.randrange(4))))
        for _ in range(2500)
    ]
    assert len({len(s.args) for s in sigs}) == 4
    assert sorted(sigs, key=Sig.sort_key) == sorted(sigs, key=old_sig_key)


def test_created_at_is_the_site_region():
    assert created_at("x") == Region("site", "x")
    assert hash(created_at("x")) == hash(Region("site", "x"))
    assert hash(Region("site", "x")) == hash(("site", "x"))
    assert NULL_REGION == Region("null", "") and UNKNOWN == Region("unknown")


def test_regions_hash_in_c():
    assert Region.__hash__ is tuple.__hash__
    assert not dataclasses.is_dataclass(Region)
    assert Sig.__hash__ is tuple.__hash__


def test_region_text_is_unchanged():
    assert repr(created_at("x")) == "Region(kind='site', label='x')"
    assert (str(NULL_REGION), str(UNKNOWN), str(created_at("l1"))) == \
        ("Null", "Unknown", "@l1")
    assert str(Sig("A", UNKNOWN, "m", (NULL_REGION, created_at("x")))) == \
        "(A, Unknown, m, [Null, @x])"


def test_regions_and_signatures_read_their_fields_as_named_tuples_do():
    # the fields, defaults, repr and C field getters of collections.namedtuple,
    # and no instance dict
    getter = type(namedtuple("T", "x").x)
    site = created_at("x")
    sig = Sig("A", site, "m", (NULL_REGION,))
    assert Region._fields == ("kind", "label")
    assert Region._field_defaults == {"label": ""}
    assert Sig._fields == ("cls", "recv", "method", "args")
    assert (sig.cls, sig.recv, sig.method, sig.args) == tuple(sig)
    assert repr(sig) == ("Sig(cls='A', recv=Region(kind='site', label='x'), "
                         "method='m', args=(Region(kind='null', label=''),))")
    for record in (site, sig):
        cls = type(record)
        assert all(type(getattr(cls, name)) is getter for name in cls._fields)
        assert cls.__eq__ is tuple.__eq__
        with pytest.raises(AttributeError):
            record.extra = None
