"""The tree driver: growing, reinforcing, and the full tropicalization."""

import json
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (
    cli_run,
    close_roots_system,
    compose_naive,
    const,
    initial_part_naive,
    mconst,
    mpoly,
    ps,
    read_bench_module,
    root,
    shift_substitute_naive,
    tail_variables,
    three_var_system,
    tp,
    uc,
    upoly,
    xvar,
)
from oracles import Poly, as_mpoly, check_invariants, evaluate, points_walk, select_leaf_scan
from troptri import (
    ApproxRoot,
    MPoly,
    NonSplittingError,
    NonTriangularError,
    PrecisionLimitError,
    PuiseuxScalar,
    RootTree,
    TriangularSystem,
    TropError,
    UPoly,
    expansion,
    format_system,
    parse_system,
    puiseux_expansion,
    trop_triangular,
)
from troptri.polygon import is_unique
from troptri.rationals import format_rat


def fr(a, b=1):
    return Fraction(a, b)


def test_starting_tree_is_a_single_vertex():
    tree = RootTree(three_var_system(), 1, 10)
    assert len(tree.vertices) == 1
    assert tree.vertices[tree.root_id].root is None
    assert tree.grow_count == 0 and tree.reinforce_count == 0


def test_starting_tree_validates_parameters():
    with pytest.raises(ValueError, match="^the precision increment must be positive, got 0$"):
        RootTree(three_var_system(), 0, 10)
    with pytest.raises(ValueError, match="^the precision bound must be nonnegative, got -1/2$"):
        RootTree(three_var_system(), 1, Fraction(-1, 2))


def test_float_precisions_are_refused():
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, which
    # --tree would print as the precision
    with pytest.raises(ValueError, match=r"^p_step must be an int or a Fraction, got 0\.1$"):
        RootTree(three_var_system(), 0.1, 32)
    with pytest.raises(ValueError, match=r"^p_step must be an int or a Fraction, got 0\.1$"):
        trop_triangular(three_var_system(), p_step=0.1)
    with pytest.raises(ValueError, match=r"^p_max must be an int or a Fraction, got 32\.0$"):
        RootTree(three_var_system(), 1, 32.0)
    tree = RootTree(three_var_system(), Fraction(1, 3), Fraction(64, 2))
    assert (tree.p_step, tree.p_max) == (Fraction(1, 3), 32) and type(tree.p_max) is int


def test_triangular_validation():
    f1 = mpoly(2, {(1, 0): const(1)})  # x1
    bad_f2 = mpoly(2, {(1, 0): const(1), (0, 0): const(1)})  # x1 + 1, no x2
    with pytest.raises(NonTriangularError):
        TriangularSystem([f1, bad_f2])
    f2 = xvar(2, 1) - mconst(2, const(1))
    TriangularSystem([f1, f2])  # fine
    with pytest.raises(NonTriangularError, match="needs at least one polynomial"):
        TriangularSystem([])
    with pytest.raises(NonTriangularError, match="f1 is not a polynomial in 1 coordinates"):
        TriangularSystem([f1])


def test_no_root_to_reinforce_and_no_polynomial_past_a_full_branch():
    tree = RootTree(three_var_system(), 1, 10).run()
    made, reinforced = len(tree.vertices), tree.reinforce_count
    with pytest.raises(ValueError, match="cannot reinforce at the tree root"):
        tree.reinforce(tree.root_id)
    full = next(v for v in tree.vertices.values() if v.depth == tree.n)
    with pytest.raises(ValueError, match="the branch is already full length"):
        tree.extension_polynomial(full.vid)
    assert (len(tree.vertices), tree.reinforce_count) == (made, reinforced)


def test_extension_polynomial_at_the_tree_root():
    tree = RootTree(close_roots_system(), 2, 2)
    ext = tree.extension_polynomial(tree.root_id)
    assert tail_variables(ext) == set()
    assert sorted(ext.coeffs) == [0, 1, 2]


def test_extension_polynomial_with_bare_tail():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    ext = tree.extension_polynomial(child)
    # x2 - u1 + 1 + t
    assert ext.coeffs == upoly(2, 1, {1: const(1), 0: uc(2, (const(-1), (1, 0)), (ps((0, 1), (1, 1)), (0, 0)))}).coeffs


def test_extension_polynomial_with_refined_root():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    tree.vertices[child].root = root(0, [(0, 1), (1, 1)], 2)
    ext = tree.extension_polynomial(child)
    assert ext.coeffs == upoly(2, 1, {1: const(1), 0: uc(2, (tp(2, -1), (1, 0)))}).coeffs


def test_reinforcement_polynomial_for_bare_root_is_f1():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    reinf = tree.reinforcement_polynomial(child)
    assert reinf is tree.extension_polynomial(tree.root_id)


def test_reinforcement_polynomial_recenters_at_known_part():
    # shifted by the known part only; rescaling by the tail exponent
    # reproduces the fully zoomed form
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    tree.vertices[child].root = root(0, [(0, 1)], 1)
    reinf = tree.reinforcement_polynomial(child)
    direct = tree.extension_polynomial(tree.root_id).shift_substitute(((0, 1),))
    assert reinf.coeffs == direct.coeffs


def test_reinforcement_polynomial_requires_depth():
    tree = RootTree(close_roots_system(), 2, 2)
    with pytest.raises(ValueError):
        tree.reinforcement_polynomial(tree.root_id)


def test_grow_attaches_children_by_descending_valuation():
    f1 = mpoly(1, {(2,): tp(1), (1,): const(1), (0,): const(1)})
    tree = RootTree(TriangularSystem([f1]), 1, 8)
    tree.grow(tree.root_id)
    kids = [tree.vertices[c].root for c in tree.vertices[tree.root_id].children]
    assert [k.valuation() for k in kids] == [fr(0), fr(-1)]
    assert all(k.known == () and k.tail is not None for k in kids)
    assert all(tree.vertices[c].prec == 0 for c in tree.vertices[tree.root_id].children)


def test_grow_single_tropical_point():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    assert len(tree.vertices[tree.root_id].children) == 1


def test_grow_dead_branch_on_monomial_extension():
    # f2 = x1 * x2 collapses to a monomial once x1 is exactly 1
    f1 = xvar(2, 0) - mconst(2, const(1))
    f2 = xvar(2, 0) * xvar(2, 1)
    tree = RootTree(TriangularSystem([f1, f2]), 1, 8)
    tree.run()
    assert set(tree.points()) == set()
    dead = [v for v in tree.vertices.values() if v.dead]
    assert len(dead) == 1


def test_reinforce_splits_the_close_roots():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    tree.reinforce(child)
    kids = [tree.vertices[c] for c in tree.vertices[tree.root_id].children]
    assert len(kids) == 2
    roots = {k.root for k in kids}
    assert roots == {root(0, [(0, 1), (2, 1)], None), root(0, [(0, 1), (1, 1)], 2)}
    assert all(k.prec == 2 for k in kids)


def test_reinforce_respects_precision_bound():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    tree.vertices[child].prec = fr(1)
    tree.p_step = fr(2)
    with pytest.raises(PrecisionLimitError):
        tree.reinforce(child)


def test_full_run_three_variables():
    tree = RootTree(three_var_system(), 1, 32)
    tree.run()
    assert tree.points() == [
        (fr(0), fr(0), fr(0)),
        (fr(0), fr(-1), fr(1)),
        (fr(-1), fr(1), fr(0)),
        (fr(-1), fr(-1), fr(2)),
    ]
    assert tree.reinforce_count == 0
    check_invariants(tree)


def test_full_run_close_roots_counters():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.run()
    assert set(tree.points()) == {(fr(0), fr(1)), (fr(0), fr(2))}
    assert tree.reinforce_count == 1
    assert tree.grow_count == 3
    check_invariants(tree)

    tree2 = RootTree(close_roots_system(), 1, 2)
    tree2.run()
    assert set(tree2.points()) == {(fr(0), fr(1)), (fr(0), fr(2))}
    assert tree2.reinforce_count == 2
    check_invariants(tree2)


def test_single_linear_polynomial():
    f1 = mpoly(1, {(1,): const(1), (0,): tp(1, -1)})  # x1 - t
    assert trop_triangular(TriangularSystem([f1])) == {(fr(1),)}


def test_precision_limit_aborts():
    # roots agreeing through t^3 but a bound too small to separate them
    x1 = xvar(2, 0)
    f1 = (x1 - mconst(2, ps((0, 1), (1, 1)))) * (x1 - mconst(2, ps((0, 1), (1, 1), (3, 1))))
    f2 = xvar(2, 1) - x1 + mconst(2, ps((0, 1), (1, 1)))
    system = TriangularSystem([f1, f2])
    with pytest.raises(PrecisionLimitError):
        trop_triangular(system, p_step=1, p_max=1)
    assert trop_triangular(system, p_step=1, p_max=4) == {(fr(0), fr(3))}


def test_nonsplitting_propagates_from_reinforcement():
    x1 = xvar(2, 0)
    f1 = x1 * x1 - mconst(2, const(2))
    f2 = xvar(2, 1) - x1 + mconst(2, const(1))
    system = TriangularSystem([f1, f2])
    with pytest.raises(NonSplittingError) as err:
        trop_triangular(system)
    assert str(err.value) == "reinforcing f1 at vertex 1: polynomial does not split over QQ"


def test_nonsplitting_names_the_polynomial_in_its_message():
    # the fp7-no-split system of tests/test_cli_digests.py: x1^2 - 3 has no
    # root in F7, and the library's error carries the CLI's whole message
    system = parse_system("ring x1 x2 fp:7\npoly x1^2 - 3\npoly x2 - x1^2 + 3 + t\n")
    with pytest.raises(NonSplittingError) as err:
        trop_triangular(system)
    assert str(err.value) == "reinforcing f1 at vertex 1: polynomial does not split over F7"


DRIVER_FAILURES = {
    "no-split-qq": ("ring x1 x2\npoly x1^2 - 2\npoly x2 - x1 + 1\n", 32, NonSplittingError),
    "no-split-fp7": ("ring x1 x2 fp:7\npoly x1^2 - 3\npoly x2 - x1^2 + 3 + t\n", 32, NonSplittingError),
    "head-precision": (
        "ring x1 x2\npoly (x1 - 1 - t)*(x1 - 1 - t - t^3)\npoly x2 - (x1 - 1 - t)\n", 1, PrecisionLimitError),
    "no-gain": (
        "ring x1 x2 x3\npoly x1 - 1\npoly (x2 - x1 - t)*(x2 - x1 - t - t^40)\n"
        "poly x3 - x2 + 1 + t + 2*t^40\n", 32, PrecisionLimitError),
    "recursion-cap": ("ring x1 x2\npoly x1^2 - x1 - t\npoly x2 - x1 + 1 + t - t^2 + 2*t^3\n", 32, TropError),
    "zero-substitution": (
        "ring x1 x2 x3\npoly (x1 - 1)*(x1 - 2)\npoly x2 - 3\npoly (x1 - 1)*x3 + x2 - 3\n", 32, TropError),
}
_PREFIX = r"(?:reinforcing f(\d+) at vertex (\d+)|f(\d+) vanishes on the branch to vertex (\d+)): "


@pytest.mark.parametrize("name", sorted(DRIVER_FAILURES))
def test_each_driver_failure_names_its_polynomial_and_vertex_once(monkeypatch, name):
    text, p_max, cls = DRIVER_FAILURES[name]
    if name == "recursion-cap":
        monkeypatch.setattr(expansion, "MAX_DEPTH", 0)
    tree = RootTree(parse_system(text), 1, p_max)
    with pytest.raises(TropError) as err:
        tree.run()
    message = str(err.value)
    assert type(err.value) is cls
    m = re.match(_PREFIX, message)
    assert m and not re.search(_PREFIX, message[m.end():]), message
    k, vid = [int(g) for g in m.groups() if g is not None]
    # a reinforcement names the vertex it refines, at depth k; a vanishing
    # names the end of the branch that f<k> would extend, at depth k - 1
    vanishes = m.group(3) is not None
    assert vanishes == (name == "zero-substitution")
    assert tree.vertices[vid].depth == k - vanishes


def test_an_extension_polynomial_writes_its_coefficients_in_u():
    # the tail u1 of the first x1 vertex must not print as the coordinate x1
    system = parse_system("ring x1 x2\npoly (x1 - 1 - t)*(x1 - 1 - t^2)\npoly x2 - x1 + 1\n")
    tree = RootTree(system, 1, 32)
    tree.grow(tree.root_id)
    (vid,) = tree.vertices[tree.root_id].children
    assert repr(tree.extension_polynomial(vid)) == "<UPoly in x2: {1: <1>, 0: <(-1)*u1 + 1>}>"
    assert format_system(system).endswith("\npoly (-1)*x1 + x2 + 1\n")


def test_determinism():
    for system_builder in (three_var_system, close_roots_system):
        a = RootTree(system_builder(), 1, 32)
        a.run()
        b = RootTree(system_builder(), 1, 32)
        b.run()
        assert a.points() == b.points()
        assert a.to_json_dict() == b.to_json_dict()


def test_invariants_hold_after_every_step():
    tree = RootTree(close_roots_system(), 1, 2)
    while tree.step():
        check_invariants(tree)


def test_invariants_hold_after_every_step_of_prefix_cancelling_systems():
    # every x1 root of these systems shares a prefix that a later line
    # cancels, so reinforcements refine vertices in place and copy subtrees
    from oracle_systems import prefix_cancelling_system_with_expected_points

    rng = random.Random(31415)
    reinforcements = 0
    for _ in range(200):
        system, expected = prefix_cancelling_system_with_expected_points(rng)
        tree = RootTree(system, 1, 32)
        while tree.step():
            check_invariants(tree)
        assert set(tree.points()) == expected
        reinforcements += tree.reinforce_count
    assert reinforcements > 200


def test_exact_roots_are_never_reinforced():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.run()
    exacts = [v for v in tree.vertices.values() if v.root is not None and v.root.is_exact]
    assert exacts
    for v in exacts:
        assert v.root == root(0, [(0, 1), (2, 1)], None)


def test_tree_json_shape():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.run()
    data = tree.to_json_dict()
    assert data["root"] == 0
    by_id = {v["id"]: v for v in data["vertices"]}
    assert by_id[data["root"]]["parent"] is None
    depth_one = [v for v in data["vertices"] if v["parent"] == data["root"]]
    assert {v["valuation"] for v in depth_one} == {"0"}
    assert {v["exact"] for v in depth_one} == {True, False}
    leaves = [v for v in data["vertices"] if v["parent"] not in (None, data["root"])]
    assert {v["valuation"] for v in leaves} == {"1", "2"}


def test_deep_reinforcement_refreshes_stale_descendants(monkeypatch):
    # two close roots at depth 1, and a third coordinate whose polygon only
    # stabilizes after the depth-2 root is recomputed with the improved
    # depth-1 root; records which branch vertex each reinforcement targets
    x1, x2, x3 = xvar(3, 0), xvar(3, 1), xvar(3, 2)
    f1 = (x1 - mconst(3, ps((0, 1), (1, 1)))) * (x1 - mconst(3, ps((0, 1), (1, 1), (2, 1))))
    f2 = x2 - x1 + mconst(3, const(1))
    f3 = x3 - x2 + mconst(3, tp(1))
    system = TriangularSystem([f1, f2, f3])

    targets = []
    original = RootTree.reinforce

    def spy(self, vid):
        chain = self.branch(vid)
        head = chain[0].prec
        stale = [
            i for i in range(1, len(chain))
            if not chain[i].root.is_exact and chain[i].prec < head
        ]
        targets.append(stale[0] + 1 if stale else 1)
        return original(self, vid)

    monkeypatch.setattr(RootTree, "reinforce", spy)
    tree = RootTree(system, 1, 8)
    tree.run()
    # the only torus solution is (1+t+t^2, t+t^2, t^2)
    assert set(tree.points()) == {(fr(0), fr(1), fr(2))}
    assert 2 in targets and 1 in targets
    check_invariants(tree)


def test_each_polynomial_builds_its_newton_hull_once(monkeypatch):
    # three roots of x1 agreeing on 1 + t, two of them also on t^2, so every
    # branch is reinforced and the expansion revisits polynomials whose
    # polygon the driver has already inspected
    system = parse_system(
        "ring x1 x2 x3\n"
        "poly (x1 - 1 - t - t^3)*(x1 - 1 - t - t^2)*(x1 - 1 - t - t^2 - 2*t^4)\n"
        "poly x2 - x1 + 1 + t\n"
        "poly x3 - x2 + t^2\n"
    )
    from troptri import polygon

    built = []  # the polynomial of every hull built, kept alive so ids stay unique
    lower_hull = polygon.lower_hull

    def spy(points):
        # the caller is newton_polygon, whose argument f is the polynomial
        built.append(sys._getframe(1).f_locals["f"])
        return lower_hull(points)

    monkeypatch.setattr(polygon, "lower_hull", spy)
    tree = RootTree(system, 1, 32).run()
    assert tree.reinforce_count >= 3
    assert len({id(f) for f in built}) == len(built)


def test_prime_field_system_end_to_end():
    from troptri import parse_system

    text = (
        "ring x1 x2 fp:5\n"
        "poly (x1 - 1 - t)*(x1 - 2 - t)\n"
        "poly x2 - (x1 - 1 - t)\n"
    )
    # x1 = 1+t forces x2 = 0, which is not a torus point; only x1 = 2+t
    # contributes, with x2 = 1
    assert trop_triangular(parse_system(text)) == {(fr(0), fr(0))}


def test_random_oracle_systems_small():
    from oracle_systems import random_system_with_expected_points

    rng = random.Random(424242)
    for _ in range(25):
        system, expected = random_system_with_expected_points(rng)
        assert trop_triangular(system) == expected


# -- the per-tree substitution store -------------------------------------------


def _branch_values(tree, vid):
    return [as_mpoly(b.root, tree.field, tree.n) for b in tree.branch(vid)]


def _finished_trees():
    from oracle_systems import random_system_with_expected_points

    rng = random.Random(424242)
    trees = [
        RootTree(close_roots_system(), 2, 2),
        RootTree(close_roots_system(), 1, 32),
        RootTree(three_var_system(), 1, 32),
    ]
    trees += [RootTree(random_system_with_expected_points(rng)[0], 1, 32) for _ in range(25)]
    return [tree.run() for tree in trees]


def test_cached_polynomials_match_the_naive_substitution():
    checked = 0
    for tree in _finished_trees():
        polys = tree.system.polys
        for v in tree.vertices.values():
            if v.dead:
                continue
            values = _branch_values(tree, v.vid)
            k = v.depth
            if k < tree.n:
                assert tree.extension_polynomial(v.vid).coeffs == compose_naive(polys[k], values, k).coeffs
                checked += 1
            if k >= 1:
                naive = compose_naive(polys[k - 1], values[:-1], k - 1)
                expected = naive.shift_substitute(v.root.known)
                assert tree.reinforcement_polynomial(v.vid).coeffs == expected.coeffs
                checked += 1
    assert checked > 200


def test_copied_descendants_extend_with_the_new_root():
    # f3 uses x1 directly, so a depth-2 copy must see the refined x1 root
    x1, x2, x3 = xvar(3, 0), xvar(3, 1), xvar(3, 2)
    f1 = (x1 - mconst(3, ps((0, 1), (1, 1)))) * (x1 - mconst(3, ps((0, 1), (1, 1), (2, 1))))
    f2 = x2 - x1 + mconst(3, const(1))
    f3 = x3 - x1 * x2
    tree = RootTree(TriangularSystem([f1, f2, f3]), 1, 8)
    tree.grow(tree.root_id)
    (child,) = tree.vertices[tree.root_id].children
    tree.grow(child)
    (grandchild,) = tree.vertices[child].children
    old = {1: tree.extension_polynomial(child), 2: tree.extension_polynomial(grandchild)}

    # the single refined x1 root is written into the vertex itself, which
    # keeps its subtree
    tree.reinforce(child)
    assert tree.vertices[tree.root_id].children == [child]
    assert tree.vertices[child].root == root(0, [(0, 1)], 1)
    assert tree.vertices[child].children == [grandchild]
    for vid in (child, grandchild):
        k = tree.vertices[vid].depth
        ext = tree.extension_polynomial(vid)
        assert ext.coeffs == compose_naive(tree.system.polys[k], _branch_values(tree, vid), k).coeffs
        assert ext.coeffs != old[k].coeffs
        want = _naive_reinforcement_polynomial(tree, vid)
        assert tree.reinforcement_polynomial(vid).coeffs == want.coeffs

    # whatever reinforce made, and wherever a copy sits, each vertex's
    # polynomial is built on the ancestors it has now
    tree.reinforce(grandchild)  # stale below the refined x1 root
    assert tree.vertices[child].children == [grandchild]
    _assert_reinforcement_polynomials_follow_the_branches(tree)
    tree.reinforce(grandchild)  # the head again: grandchild is copied below each other new x1 root
    assert tree.vertices[tree.root_id].children[0] == child
    assert len(tree.vertices[tree.root_id].children) > 1
    check_invariants(tree)
    _assert_reinforcement_polynomials_follow_the_branches(tree)
    _assert_untouched_entries_are_shared(tree)


def _first_new_exponent(old, new):
    """Where the refined root ``new`` leaves ``old``'s known prefix: its next
    known term's exponent, or its bare tail's."""
    k = len(old.known)
    return new.known[k][0] if len(new.known) > k else new.tail


def test_reinforcements_leave_no_two_siblings_with_equal_roots(monkeypatch):
    # a vertex stands for the roots at exactly its tail exponent, so every
    # refined root starts its new terms there, and the roots at higher
    # points stay with the siblings that already carry them
    from oracle_systems import prefix_cancelling_system_with_expected_points

    replaced = []
    original = RootTree._replace_subtree

    def spy(self, vertex, refined):
        replaced.append((vertex.root, refined))
        return original(self, vertex, refined)

    monkeypatch.setattr(RootTree, "_replace_subtree", spy)
    rng = random.Random(2718)
    for _ in range(300):
        system, expected = prefix_cancelling_system_with_expected_points(rng)
        tree = RootTree(system, 1, 32).run()
        assert set(tree.points()) == expected
        for v in tree.vertices.values():
            roots = [tree.vertices[c].root for c in v.children]
            assert len(set(roots)) == len(roots), "vertex %d has equal sibling roots" % v.vid
    assert len(replaced) > 300
    for old, refined in replaced:
        assert refined and all(_first_new_exponent(old, new) == old.tail for new in refined)


def test_a_reinforced_root_does_not_copy_its_higher_sibling():
    # reinforcing the x1 root 1 + u1*t expands only at its tail exponent 1,
    # giving 1 + t + u1*t^3; the root 1 + u1*t^2 at the higher point is its
    # sibling's, and is not built a second time
    text = "ring x1 x2\npoly (x1 - 1 - t - t^3)*(x1 - 1 - t^2)\npoly x2 - x1 + 1 + t\n"
    tree = RootTree(parse_system(text), 1, 32).run()
    assert tree.points() == [(0, 3), (0, 1)]
    assert [tree.vertices[c].root for c in tree.vertices[tree.root_id].children] == [
        root(0, [(0, 1), (1, 1)], 3), root(0, [(0, 1)], 2)]
    assert list(tree.vertices) == [0, 1, 2, 3, 4]


def test_a_head_reinforced_once_per_step_keeps_its_vertices():
    # the x2 polygon is trusted only once the x1 head is known to t^6, and
    # each reinforcement adds 1/100 to its precision: the head is refined in
    # place every time, so the tree never makes more than its 5 vertices
    text = (
        "ring x1 x2\npoly x1^2 - x1 - t\n"
        "poly x2 - x1 + 1 + t - t^2 + 2*t^3 - 5*t^4 + 14*t^5 - 42*t^6\n"
    )
    tree = RootTree(parse_system(text), fr(1, 100), 32).run()
    assert tree.points() == [(1, 0), (0, 7)]
    assert tree.reinforce_count == 601
    assert list(tree.vertices) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "index, p_step, reinforcements",
    [(7, 1, 33), (7, fr(1, 3), 53), (72, 1, 12), (72, fr(1, 3), 24)],
    ids=["system-7-pstep-1", "system-7-pstep-1/3", "system-72-pstep-1", "system-72-pstep-1/3"],
)
def test_reinforcement_polynomials_follow_the_branches_on_oracle_deep_systems(
        index, p_step, reinforcements):
    # oracle-deep systems whose reinforcement counts depend on which of the
    # deepest open leaves is taken first, the one with the smallest id
    system = read_bench_module("workloads").corpus("oracle-deep", 3, index + 1)[index]
    tree = RootTree(parse_system(system.text), p_step, 32)
    while tree.step():
        if tree.polygon_log[-1][0] == "reinforcement":
            _assert_reinforcement_polynomials_follow_the_branches(tree)
    assert set(tree.points()) == system.expected
    assert tree.reinforce_count == reinforcements
    check_invariants(tree)


def test_a_copied_vertex_builds_its_reinforcement_polynomial_once():
    # the fifth step reinforces the x1 head, and the x2 vertex below it, with
    # the known prefix 2, is copied below both new x1 roots: no expansion
    # handed those copies a recentered polynomial, so the first call builds
    # it into the store, and the second finds it there
    x1, x2, x3 = xvar(3, 0), xvar(3, 1), xvar(3, 2)
    f1 = (x1 - mconst(3, ps((0, 1), (1, 1)))) * (x1 - mconst(3, ps((0, 1), (1, 1), (2, 1))))
    f2 = x2 - x1 - mconst(3, const(1))
    f3 = x3 - x2 + mconst(3, ps((0, 2), (1, 1)))
    tree = RootTree(TriangularSystem([f1, f2, f3]), 1, 8)
    for _ in range(5):
        tree.step()
    assert tree.reinforce_count == 3
    x1_vertices = tree.vertices[tree.root_id].children
    copies = [vid for x1_vid in x1_vertices for vid in tree.vertices[x1_vid].children]
    assert len(x1_vertices) == len(copies) == 2
    for vid in copies:
        assert tree.vertices[vid].root.known
        first = tree.reinforcement_polynomial(vid)
        assert tree.reinforcement_polynomial(vid) is first
        assert first.coeffs == _naive_reinforcement_polynomial(tree, vid).coeffs
    _assert_untouched_entries_are_shared(tree)


def _assert_reinforcement_polynomials_follow_the_branches(tree):
    for vid, v in tree.vertices.items():
        if v.root is not None:
            want = _naive_reinforcement_polynomial(tree, vid)
            assert tree.reinforcement_polynomial(vid).coeffs == want.coeffs


def _naive_reinforcement_polynomial(tree, vid):
    v = tree.vertices[vid]
    k = v.depth
    naive = compose_naive(tree.system.polys[k - 1], _branch_values(tree, vid)[:-1], k - 1)
    return shift_substitute_naive(naive, PuiseuxScalar(tree.field, v.root.known), 0)


@contextmanager
def _recursion_headroom(frames):
    """Lower the recursion limit to the current stack depth plus ``frames``."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _chain_system(n, first, last):
    """``first`` on line 1, xi - x(i-1) on lines 2..n-1, ``last`` on line n."""
    lines = ["ring " + " ".join("x%d" % (i + 1) for i in range(n)), "poly " + first]
    lines += ["poly x%d - x%d" % (i + 1, i) for i in range(1, n - 1)]
    return parse_system("\n".join(lines + ["poly " + last]) + "\n")


def test_long_chain_needs_no_recursion_per_coordinate():
    system = _chain_system(150, "x1 - t", "x150 - x149")
    with _recursion_headroom(100):
        tree = RootTree(system, 1, 32).run()
        assert tree.points() == [(1,) * 150]
        assert len(tree.to_json_dict()["vertices"]) == 151


def _cascade(n):
    """The two x1 roots share the prefix 1, which the last line cancels: the
    head is reinforced, then every stale vertex below it once."""
    return _chain_system(n, "(x1 - 1 - t)*(x1 - 1 - t^2)", "x%d - x%d + 1" % (n, n - 1))


@pytest.mark.parametrize("n", [3, 100])
def test_the_cascade_reinforces_each_vertex_below_the_head_once(n):
    tree = RootTree(_cascade(n), 1, 32).run()
    assert tree.reinforce_count == 2 * n - 3
    assert len(tree.vertices) == 2 * n + 1
    assert tree.points() == [(0,) * (n - 1) + (1,), (0,) * (n - 1) + (2,)]


def _leaf_oracle_cases():
    """(name, tree) for runs that reinforce and copy subtrees."""
    corpus = read_bench_module("workloads").corpus("oracle-deep", 3, 73)
    for index in (7, 72):
        for p_step in (1, fr(1, 3)):
            yield "oracle-deep-%d-pstep-%s" % (index, p_step), RootTree(
                parse_system(corpus[index].text), p_step, 32)
    yield "cascade-40", RootTree(_cascade(40), 1, 32)
    from oracle_systems import prefix_cancelling_system_with_expected_points

    rng = random.Random(27182)
    for k in range(100):
        system, _ = prefix_cancelling_system_with_expected_points(rng)
        yield "prefix-cancelling-%d" % k, RootTree(system, 1, 32)


def test_the_leaf_heap_takes_the_leaf_a_scan_of_every_vertex_takes():
    reinforcements = copies = 0
    for name, tree in _leaf_oracle_cases():
        while True:
            assert tree._select_leaf() is select_leaf_scan(tree), name
            made = len(tree.vertices)
            reinforced = tree.reinforce_count
            if not tree.step():
                break
            if tree.reinforce_count > reinforced and len(tree.vertices) > made:
                copies += 1
        reinforcements += tree.reinforce_count
    assert reinforcements > 300 and copies > 50


def _corpus_trees():
    """(workload, system text, finished tree) for every seed-3 system of each
    benchmark workload."""
    workloads = read_bench_module("workloads")
    for name in workloads.WORKLOADS:
        for system in workloads.corpus(name, 3, 100):
            yield name, system.text, RootTree(parse_system(system.text), 1, 32).run()


def test_equal_bare_tail_roots_in_a_tree_are_one_object():
    # grow takes each (coordinate, exponent)'s bare-tail root from the tree's
    # map, so children grown at one point share it
    shared = 0
    for name, text, tree in _corpus_trees():
        bare = {}
        held = 0
        for v in tree.vertices.values():
            r = v.root
            if r is not None and not r.known:
                assert r == ApproxRoot(v.depth - 1, (), r.tail), (name, text)
                assert bare.setdefault((r.index, r.tail), r) is r, (name, text, v.vid)
                held += 1
        shared += held - len(bare)
    assert shared > 3000


def _assert_point_rows_match_the_walk(tree, text=None):
    expected = points_walk(tree)
    assert tree.points() == expected, text
    assert tree.point_rows() == [(p, tuple(format_rat(c) for c in p)) for p in expected], text
    if text is not None:
        line = " ".join("(%s)" % ",".join(format_rat(c) for c in p) for p in expected)
        assert cli_run(text, ["--format", "text"]) == (0, line + "\n", ""), text
        payload = {"points": [[format_rat(c) for c in p] for p in expected]}
        assert cli_run(text, ["--format", "json"]) == (
            0, json.dumps(payload, separators=(",", ":")) + "\n", ""), text
    # whether two leaves carry one vector
    return sum(v.depth == tree.n for v in tree.vertices.values()) > len(expected)


def test_point_rows_and_the_cli_points_match_the_walk_that_dedupes_vectors():
    # every seed-3 system of each workload, text and JSON through the CLI
    duplicated = sum(_assert_point_rows_match_the_walk(tree, text) for _, text, tree in _corpus_trees())
    # trees whose refined copies repeat a leaf's vector
    copied = sum(_assert_point_rows_match_the_walk(tree.run()) for _, tree in _leaf_oracle_cases())
    assert duplicated > 50 and copied > 20
    # a 1,000-deep branch, and a cascade whose reinforcements copy subtrees up to 599 deep
    for system in (_chain_system(1000, "x1 - t", "x1000 - x999"), _cascade(600)):
        _assert_point_rows_match_the_walk(RootTree(system, 1, 32).run())


def test_long_chain_copies_deep_subtrees_without_recursion():
    # the last line cancels the shared prefix 1 of the two x1 roots, so the
    # head is reinforced and its 119-deep subtree copied below the new root
    system = _cascade(120)
    with _recursion_headroom(100):
        tree = RootTree(system, 1, 32).run()
        assert tree.points() == [(0,) * 119 + (1,), (0,) * 119 + (2,)]
    assert tree.reinforce_count > 0
    check_invariants(tree)


def _assert_untouched_entries_are_shared(tree):
    """Each entry of the store is its source polynomial with the root put in
    (by Horner's rule), or, under a branch's last key, that polynomial
    composed in the next coordinate (by the product-of-powers rule), or,
    under a key (id, known terms), the composed source recentered at those
    terms (by Horner's rule), or, under a key (id, root, budget), a fresh
    expansion of the source at the root's tail exponent to that budget,
    with the root's known terms in front of every refined root.  The
    entry keeps the source whose id its key names, and no key holds a root
    whose coordinate the source does not use: such a root would leave the
    polynomial untouched, so a branch passes it by."""
    field, n = tree.field, tree.n
    for key, (source, g) in tree.store.items():
        assert id(source) == key[0]
        if len(key) == 3:
            _, root, budget = key
            assert isinstance(source, UPoly)
            want = puiseux_expansion(source, root.tail, budget, root.known)
            assert _expansion_form(g) == _expansion_form(want)
            continue
        if isinstance(key[1], tuple):
            known = key[1]
            assert isinstance(source, UPoly) and known
            assert g.coeffs == shift_substitute_naive(source, PuiseuxScalar(field, known), 0).coeffs
            continue
        root = key[1]
        if root is None:
            assert compose_naive(source, [], g.var).coeffs == g.coeffs
            continue
        assert root.index in source.variables()
        value = as_mpoly(root, field, n)
        if isinstance(g, UPoly):
            values = [Poly.variable(field, n, i) for i in range(root.index)] + [value]
            assert g.coeffs == compose_naive(source, values, g.var).coeffs
        else:
            assert g == evaluate(UPoly.from_mpoly(source, root.index), value)


def _expansion_form(expansion):
    """An expansion with each polynomial read as its coefficients."""
    return {r: None if g is None else g.coeffs for r, g in expansion.items()}


def _chain_of_300():
    return _chain_system(300, "x1 - t", "x300 - x299")


def test_chain_of_300_coordinates_shares_its_cached_polynomials():
    n = 300
    system = _chain_of_300()
    tree = RootTree(system, 1, 32).run()
    assert tree.points() == [(1,) * n]
    _assert_untouched_entries_are_shared(tree)
    # f1 uses no earlier coordinate, and f_(d+1) uses only x_d and x_(d+1):
    # one entry each, f1 composed as it is and f_(d+1) composed with the
    # depth-d root put in, and no multivariate entry on the way
    assert len(tree.store) == n
    keys = {(source_id, root.index if root else None) for source_id, root in tree.store}
    assert keys == {(id(system.polys[0]), None)} | {(id(system.polys[d]), d - 1) for d in range(1, n)}
    assert all(isinstance(g, UPoly) for _, g in tree.store.values())


def test_chain_of_300_coordinates_puts_each_root_in_once(monkeypatch):
    system = _chain_of_300()
    calls = []
    substitute = MPoly.substitute

    def counted(self, *args):
        calls.append(args[0])
        return substitute(self, *args)

    monkeypatch.setattr(MPoly, "substitute", counted)
    RootTree(system, 1, 32).run()
    assert len(calls) == 299
    assert sorted(calls) == list(range(299))


def test_untouched_cache_entries_are_shared_on_finished_trees():
    for tree in _finished_trees():
        _assert_untouched_entries_are_shared(tree)


def test_equal_roots_on_different_branches_share_their_extension_polynomial():
    # f3 uses x2 but not x1, and both x1 vertices carry the x2 roots 3 and t
    system = parse_system(
        "ring x1 x2 x3\n"
        "poly (x1 - 1)*(x1 - t)\n"
        "poly (x2 - 3)*(x2 - t)\n"
        "poly x3 - x2 - t^2\n"
    )
    tree = RootTree(system, 1, 32).run()
    by_root = {}  # the polynomials themselves, kept alive so ids stay unique
    for v in tree.vertices.values():
        if v.depth == 2:
            by_root.setdefault(v.root, []).append(tree.extension_polynomial(v.vid))
    assert len(by_root) == 2
    for exts in by_root.values():
        assert len(exts) == 2 and len({id(ext) for ext in exts}) == 1
    _assert_untouched_entries_are_shared(tree)


def _expansion_entries(tree):
    return {key: entry for key, entry in tree.store.items() if len(key) == 3}


def test_each_tree_keeps_its_own_store():
    system = three_var_system()
    trees = [RootTree(system, 1, 32).run() for _ in range(2)]
    made = []
    for tree in trees:
        open_vertices = [v.vid for v in tree.vertices.values() if v.depth < tree.n and not v.dead]
        exts = {vid: tree.extension_polynomial(vid) for vid in open_vertices}
        # within one tree a polynomial is built once and handed out again
        assert all(tree.extension_polynomial(vid) is ext for vid, ext in exts.items())
        made.append(exts)  # kept alive, so ids stay unique
    ids = [{id(ext) for ext in exts.values()} for exts in made]
    assert ids[0] and ids[1] and not ids[0] & ids[1]

    # so does every expansion: two trees of one system expand equal
    # polynomials to equal roots, and share neither source nor result
    system = close_roots_system()
    trees = [RootTree(system, 1, 32).run() for _ in range(2)]
    entries = [_expansion_entries(tree) for tree in trees]
    assert entries[0] and len(entries[0]) == len(entries[1])
    for (source0, expansion0), (source1, expansion1) in zip(entries[0].values(), entries[1].values()):
        assert source0.coeffs == source1.coeffs and source0 is not source1
        assert _expansion_form(expansion0) == _expansion_form(expansion1) and expansion0 is not expansion1
    sources = [{id(source) for source, _ in tree_entries.values()} for tree_entries in entries]
    assert not sources[0] & sources[1]


def test_a_subtree_copy_expands_each_polynomial_once(monkeypatch):
    # f3 uses x2 and x3 only; reinforcing the x1 head copies the x3 vertex,
    # whose bare root is reinforced again with the same stored polynomial
    from oracle_systems import random_system_with_expected_points
    from troptri import roottree

    system, expected = random_system_with_expected_points(random.Random(38))
    assert system.used[2] == {1, 2}
    calls = []  # the polynomials themselves, kept alive so ids stay unique
    expand = roottree.puiseux_expansion

    def spy(f, w, budget, known):
        calls.append((f, ApproxRoot(f.var, known, w), budget))
        return expand(f, w, budget, known)

    monkeypatch.setattr(roottree, "puiseux_expansion", spy)
    tree = RootTree(system, 1, 32).run()
    assert set(tree.points()) == expected
    keys = [(id(f), r, budget) for f, r, budget in calls]
    assert len(set(keys)) == len(keys)
    assert tree.reinforce_count > len(calls) > 0
    assert set(keys) == set(_expansion_entries(tree))
    _assert_untouched_entries_are_shared(tree)


def _stored_polynomials(tree):
    """Every MPoly the tree's store holds, alone or as a UPoly's coefficient."""
    out = []
    for entry in tree.store.values():
        for x in entry:
            if isinstance(x, dict):
                for g in x.values():
                    if g is not None:
                        out.extend(g.coeffs.values())
            elif isinstance(x, UPoly):
                out.extend(x.coeffs.values())
            else:
                out.append(x)
    return out


_RUN_SYSTEMS = pytest.mark.parametrize("system", [
    three_var_system(),
    close_roots_system(),
    parse_system("ring x1 x2\npoly x1^2 - x1 - t\npoly x2 - x1 + 1 + t - t^2 + 2*t^3\n"),
    _cascade(3),
    _cascade(100),
], ids=["three-var", "close-roots", "series-root", "cascade", "cascade-100"])


@_RUN_SYSTEMS
def test_kept_initial_parts_still_describe_their_terms_after_a_run(system):
    # a polynomial keeps its initial part from its first use on; nothing in
    # a run may change its terms afterwards, or the kept part goes stale
    tree = RootTree(system, 1, 32).run()
    polys = _stored_polynomials(tree)
    assert polys
    for c in polys:
        assert (c.val_pair(), c.initial_term(), c.initial_terms()) == initial_part_naive(c)


@_RUN_SYSTEMS
def test_a_given_composed_polynomial_gives_the_same_reinforcement_polynomial(system):
    # reinforce passes in the parent's composed polynomial it already has
    tree = RootTree(system, 1, 32).run()
    for vid, v in tree.vertices.items():
        if v.depth >= 1:
            composed = tree._next_polynomial(tree.vertices[v.parent])
            assert tree.reinforcement_polynomial(vid, composed) is tree.reinforcement_polynomial(vid)


def test_an_untrusted_reinforcement_polygon_gives_back_the_bare_tail():
    # x2 - (1 + u1): the hull vertex at degree 0 has two minimal u-terms, so
    # no tropical point can be trusted, not even the tail exponent 0
    tree = RootTree(parse_system("ring x1 x2\npoly x1 - 1\npoly x2 - x1\n"), 1, 32)
    reinf = upoly(2, 1, {1: const(1), 0: uc(2, (const(-1), (0, 0)), (const(-1), (1, 0)))})
    assert not is_unique(reinf)
    size = len(tree.store)
    bare = ApproxRoot(1, (), 0)
    corrections = tree._corrections(reinf, bare, 5)
    (got,) = corrections
    assert got is bare and corrections[bare] is reinf
    assert len(tree.store) == size


def test_equal_roots_hash_alike_and_share_a_store_entry():
    tree = RootTree(parse_system("ring x1 x2\npoly x1^2 - t\npoly x2 - x1^2 + x1\n"), 1, 32)
    g = tree.system.polys[1]
    direct = ApproxRoot(0, ((fr(1, 2), 1), (1, -1)), fr(3, 2))
    # the merge reinforce makes of a root and its correction
    root, corr = ApproxRoot(0, ((fr(1, 2), 1),), 1), ApproxRoot(0, ((1, -1),), fr(3, 2))
    prefixed = ApproxRoot(0, root.known + corr.known, corr.tail)
    as_fractions = ApproxRoot(0, ((fr(1, 2), 1), (fr(1), -1)), fr(3, 2))
    assert direct == prefixed == as_fractions
    assert hash(direct) == hash(prefixed) == hash(as_fractions)
    h = tree._stored(g, direct)
    size = len(tree.store)
    assert tree._stored(g, prefixed) is h and tree._stored(g, as_fractions) is h
    assert len(tree.store) == size
    assert hash(ApproxRoot(0, ((fr(1, 2), 1),), None)) != hash(ApproxRoot(0, ((fr(1, 2), 1),), 1))
