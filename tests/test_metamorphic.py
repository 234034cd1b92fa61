"""Metamorphic relations: answers that must move in a known way when the input does.

The base systems are the first 100 of each corpus of ``bench/workloads.py``
at SEED, 200 systems of ``random_system_with_expected_points`` and 100 of
``prefix_cancelling_system_with_expected_points``: 600 in all.  Each is solved
once as it is, then after each relation of ``tests/oracles.py`` alone and after
all four composed, with parameters drawn from a generator seeded by the
system's name:

- (a) x_i = t^(a_i)*y_i moves the points to p - a;
- (b) t = s^k moves them to k*p; the run's ``p_max`` is 32*max(k, 1), since
  precision is measured in units of t;
- (c) f_i -> c*t^b*f_i keeps them;
- (d) f_i -> f_i + c*t^e*x_i^m*f_j, with j < i and m below the x_i-degree of
  f_i, keeps them (a system of one line skips it).

The composition applies (d), (c), (a) and (b) in turn, so its points are
k*(p - a).  Every base system solves, and a transformed one that fails or
gives other points fails the test.  The relations compare the engine with
itself, so they reach every root tree, untrusted polygons and reinforcements
included, where the generators' known points reach only factored systems.
"""

import random
from fractions import Fraction

import pytest

from helpers import read_bench_module
from oracle_systems import prefix_cancelling_system_with_expected_points, random_system_with_expected_points
from oracles import add_multiple, power_of_t, scale_line, shift_coordinates
from troptri import RootTree, parse_system

SEED = 11
P_MAX = 32
SHIFTS = (0, 1, -1, Fraction(1, 2), 2, Fraction(-3, 2))
POWERS = (Fraction(1, 2), Fraction(3, 2), 2, 3)
EXPONENTS = (0, 1, Fraction(1, 2), -1, 2)

workloads = read_bench_module("workloads")


def base_systems(group):
    """(name, system) pairs of one group of base systems."""
    if group in workloads.WORKLOADS:
        return [("%s-%d" % (group, k), parse_system(s.text))
                for k, s in enumerate(workloads.corpus(group, SEED, 100))]
    make, count = {
        "random": (random_system_with_expected_points, 200),
        "prefix-cancelling": (prefix_cancelling_system_with_expected_points, 100),
    }[group]
    rng = random.Random("metamorphic %s" % group)
    return [("%s-%d" % (group, k), make(rng)[0]) for k in range(count)]


def solve(system, p_max=P_MAX):
    return set(RootTree(system, 1, p_max).run().points())


def draw(name, system):
    """The relations' parameters for one system, from a generator seeded by its name."""
    rng, field, n = random.Random(name), system.field, system.n
    unit = lambda: field.from_int(rng.choice([c for c in (1, 2, 3, -1, -2) if field.from_int(c)]))
    i, d = rng.randrange(n), None
    if n > 1:
        di = rng.randrange(1, n)
        top = max(deg[di] for deg in system.polys[di].terms)
        d = (di, rng.randrange(di), rng.randrange(top), unit(), rng.choice(EXPONENTS))
    return {
        "a": [rng.choice(SHIFTS) for _ in range(n)],
        "k": rng.choice(POWERS),
        "c": (i, unit(), rng.choice(EXPONENTS)),
        "d": d,
    }


def variants(system, params):
    """(label, transformed system, p_max, the base points mapped to its points)."""
    a, k = params["a"], params["k"]
    shifted = lambda points: {tuple(p - e for p, e in zip(point, a)) for point in points}
    powered = lambda points: {tuple(k * p for p in point) for point in points}
    same = lambda points: points
    out = [
        ("a", shift_coordinates(system, a), P_MAX, shifted),
        ("b", power_of_t(system, k), P_MAX * max(k, 1), powered),
        ("c", scale_line(system, *params["c"]), P_MAX, same),
    ]
    composed = system
    if params["d"] is not None:
        out.append(("d", add_multiple(system, *params["d"]), P_MAX, same))
        composed = add_multiple(composed, *params["d"])
    composed = power_of_t(shift_coordinates(scale_line(composed, *params["c"]), a), k)
    out.append(("composed", composed, P_MAX * max(k, 1), lambda points: powered(shifted(points))))
    return out


@pytest.mark.parametrize("group", [*workloads.WORKLOADS, "random", "prefix-cancelling"])
def test_each_relation_moves_the_points_as_it_says(group):
    counts, systems = {}, base_systems(group)
    for name, system in systems:
        base = solve(system)
        assert base, name
        for label, transformed, p_max, expect in variants(system, draw(name, system)):
            assert solve(transformed, p_max) == expect(base), "%s under (%s)" % (name, label)
            counts[label] = counts.get(label, 0) + 1
    # every relation ran on the group, (d) on each system of two or more lines
    assert set(counts) == {"a", "b", "c", "d", "composed"}
    assert counts["a"] == counts["composed"] == len(systems)
