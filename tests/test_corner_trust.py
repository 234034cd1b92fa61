"""Every polygon corner the root tree trusts by its tail's residue equation holds.

``RootTree._corners_hold`` trusts a corner that ``is_unique`` does not when
the corner's lowest part A is a polynomial in one tail u_i that vanishes at
no nonzero root of h_i, the initial form of the polynomial u_i was read off
(``Vertex.source``).  The first test spies on every corner the tree clears
while it solves the seed-3 corpora of ``bench/workloads.py`` and systems of
both generators of ``tests/oracle_systems.py``, and checks each one against
the values the tail can take: it puts u_i in as c + (random higher terms),
for every root c of h_i, and every other tail as a random unit, and asserts
that the corner's valuation does not move.  The corpora's and generators'
residue equations split, over QQ and F_p alike, so every c is in the field.
The second test checks the record the first one leans on: on every finished
tree, a vertex's source gives the initial form, when it is free of tails,
that a reinforcement of the vertex would expand now, after every refinement
of its ancestors.
"""

import random
from fractions import Fraction

from helpers import read_bench_module
from oracle_systems import prefix_cancelling_system_with_expected_points, random_system_with_expected_points
from oracles import _random_unit, scalar_constant, specialize, t_power, uval
from troptri import RootTree, initial_form, newton_polygon, parse_system, roots_in_units

workloads = read_bench_module("workloads")


def systems():
    """The seed-3 corpora and 300 systems of each generator."""
    out = [parse_system(s.text) for w in workloads.WORKLOADS for s in workloads.corpus(w, 3, 100)]
    rng = random.Random(34)
    out += [random_system_with_expected_points(rng)[0] for _ in range(300)]
    out += [prefix_cancelling_system_with_expected_points(rng)[0] for _ in range(300)]
    return out


def untrusted_corners(tree, leaf, ext):
    """(coefficient, i, h_i) per corner of ext's polygon whose lowest part is not one term."""
    out = []
    for j, _ in newton_polygon(ext).corners:
        coeff = ext.coeffs[j]
        if coeff.initial_term() is None:
            (i,) = {i for deg in coeff.initial_terms() for i, e in enumerate(deg) if e}
            v = leaf
            while v.depth > i + 1:
                v = tree.vertices[v.parent]
            out.append((coeff, i, initial_form(v.source, v.root.tail)))
    return out


def test_every_cleared_corner_keeps_its_valuation(monkeypatch):
    cleared = []
    corners_hold = RootTree._corners_hold

    def spy(tree, leaf, ext):
        holds = corners_hold(tree, leaf, ext)
        if holds:
            cleared.extend(untrusted_corners(tree, leaf, ext))
        return holds

    monkeypatch.setattr(RootTree, "_corners_hold", spy)
    for system in systems():
        RootTree(system, 1, 32).run()
    rng = random.Random(3)
    checked = 0
    for coeff, i, h in cleared:
        field = coeff.field
        for c in roots_in_units(h):
            for _ in range(3):
                tail = scalar_constant(field, c)
                for _ in range(rng.randint(1, 2)):
                    tail = tail + t_power(field, Fraction(rng.randint(1, 6), rng.randint(1, 3)),
                                          field.from_int(rng.choice([1, 2, -1, -3])))
                values = {k: _random_unit(field, rng) for k in coeff.variables() if k != i}
                values[i] = tail
                value = specialize(coeff, values)
                assert not value.is_zero() and uval(value) == uval(coeff), (coeff, i, c, values)
                checked += 1
    # the test clears corners on every kind of input, not on a handful
    assert len(cleared) > 500 and checked > 3 * len(cleared)


def test_a_source_gives_the_residue_equation_of_the_vertex_now():
    compared = 0
    for system in systems()[::3]:
        tree = RootTree(system, 1, 32).run()
        for v in tree.vertices.values():
            if v.root is None or v.root.tail is None:
                continue
            h = initial_form(v.source, v.root.tail)
            if h is not None:
                now = initial_form(tree.reinforcement_polynomial(v.vid), v.root.tail)
                assert now is not None and now.coeffs == h.coeffs, v.vid
                compared += 1
    assert compared > 1000
