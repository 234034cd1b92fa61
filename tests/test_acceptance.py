"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line (visible with ``pytest -s`` or in failure
reports).  Expected values are either computed by independent oracles in
the companion modules or pinned from worked examples.
"""

import functools
import random
import time
from fractions import Fraction
from pathlib import Path

from helpers import (
    QQ,
    close_roots_system,
    const,
    from_coeffs,
    initial,
    lift,
    paper_f1,
    paper_f2_tilde,
    ps,
    root,
    sum_mpoly,
    three_var_system,
    tp,
    uc,
    uconst,
    unlift,
    upoly,
)
from oracle_systems import random_system_with_expected_points
from oracles import (
    Poly,
    compose_roots,
    has_maximal_precision,
    is_approximate_root,
    shift_and_rescale,
    uniqueness_oracle,
)
from troptri import (
    RootTree,
    TropError,
    is_unique,
    puiseux_expansion,
    trop_triangular,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE FAIL: %s" % name)
                raise
            print("ACCEPTANCE PASS: %s" % name)

        return wrapper

    return decorate


def fr(a, b=1):
    return Fraction(a, b)


@criterion("1: three-variable example, exact point set in under a second")
def test_criterion_1_three_variable_example():
    start = time.time()
    got = trop_triangular(three_var_system())
    elapsed = time.time() - start
    assert got == {
        (fr(0), fr(0), fr(0)),
        (fr(0), fr(-1), fr(1)),
        (fr(-1), fr(1), fr(0)),
        (fr(-1), fr(-1), fr(2)),
    }
    assert elapsed < 1.0


@criterion("2: reinforcement example, exact points and call counters")
def test_criterion_2_reinforcement_counters():
    tree = RootTree(close_roots_system(), 2, 2)
    tree.run()
    assert set(tree.points()) == {(fr(0), fr(1)), (fr(0), fr(2))}
    assert tree.reinforce_count == 1
    assert tree.grow_count == 3

    tree2 = RootTree(close_roots_system(), 1, 2)
    tree2.run()
    assert set(tree2.points()) == {(fr(0), fr(1)), (fr(0), fr(2))}
    assert tree2.reinforce_count == 2


@criterion("3: worked expansion with both branch budgets")
def test_criterion_3_worked_expansion():
    f = paper_f1()
    got = set(puiseux_expansion(f, 0, 2))
    assert got == {
        root(0, [(0, 1), (2, 1)], None),   # exact
        root(0, [(0, 1), (1, 1)], 2),      # truncated at t^2
    }
    # the two recursion budgets pinned by the worked run: recentering at 1
    # leaves x^2 + (-2t^2 - t)x + (t^4 + t^3); its branch at valuation 2
    # ran with budget 1 (and found the exact continuation t^2), and the
    # branch below valuation 1 ran out at budget 0 (bare tail at t^2)
    f1_shift = f.shift_substitute(((0, 1),))
    assert f1_shift.coeffs == upoly(1, 0, {2: const(1), 1: ps((1, -1), (2, -2)), 0: ps((3, 1), (4, 1))}).coeffs
    assert set(puiseux_expansion(f1_shift, 2, 1)) == {root(0, [(2, 1)], None)}
    f11_shift = f1_shift.shift_substitute(((1, 1),))
    assert f11_shift.coeffs == upoly(1, 0, {2: const(1), 1: ps((1, 1), (2, -2)), 0: ps((3, -1), (4, 1))}).coeffs
    assert set(puiseux_expansion(f11_shift, 2, 0)) == {root(0, [], 2)}


@criterion("4: predicate fixtures and coefficient-exact shifts")
def test_criterion_4_predicates_and_shifts():
    f2 = paper_f2_tilde()
    for r in (root(1, [], 0), root(1, [], 1), root(1, [(0, 1), (1, 1)], 2), root(1, [(1, 1)], 2)):
        assert is_approximate_root(f2, r)
    assert not is_approximate_root(f2, root(1, [], 2))

    assert not has_maximal_precision(f2, root(1, [], 0))
    assert not has_maximal_precision(f2, root(1, [], 1))
    assert has_maximal_precision(f2, root(1, [(0, 1), (1, 1)], 2))
    assert has_maximal_precision(f2, root(1, [(1, 1)], 2))

    # the four displayed recentered/rescaled polynomials, coefficient-exact
    u1 = lambda s: uc(2, (s, (1, 0)))
    u1sq = lambda s: uc(2, (s, (2, 0)))
    shifts = {
        (0, 0): upoly(2, 1, {
            2: const(1),
            1: uc(2, (ps((0, -1), (1, -2)), (0, 0)), (tp(2, -2), (1, 0))),
            0: uc(2, (ps((1, 1), (2, 1)), (0, 0)), (ps((2, 1), (3, 2)), (1, 0)), (tp(4), (2, 0))),
        }),
        (1, 0): upoly(2, 1, {
            2: tp(2),
            1: uc(2, (ps((1, -1), (2, -2)), (0, 0)), (tp(3, -2), (1, 0))),
            0: uc(2, (ps((1, 1), (2, 1)), (0, 0)), (ps((2, 1), (3, 2)), (1, 0)), (tp(4), (2, 0))),
        }),
    }
    assert f2.shift_substitute(()).coeffs == shifts[(0, 0)].coeffs
    assert shift_and_rescale(f2, ps(), 1).coeffs == shifts[(1, 0)].coeffs
    assert shift_and_rescale(f2, ps((0, 1), (1, 1)), 2).coeffs == upoly(2, 1, {
        2: tp(4),
        1: u1(tp(4, -2)) + uconst(2, tp(2)),
        0: u1sq(tp(4)) + u1(tp(2, -1)),
    }).coeffs
    assert shift_and_rescale(f2, tp(1), 2).coeffs == upoly(2, 1, {
        2: tp(4),
        1: u1(tp(4, -2)) + uconst(2, tp(2, -1)),
        0: u1sq(tp(4)) + u1(tp(2)),
    }).coeffs


@criterion("5: 200 random factored systems match their oracle, under 60 s")
def test_criterion_5_oracle_roundtrip():
    rng = random.Random(20260810)
    start = time.time()
    for _ in range(200):
        system, expected = random_system_with_expected_points(rng)
        assert trop_triangular(system) == expected
    assert time.time() - start < 60.0


@criterion("6: polygon trust test agrees with the randomized oracle, 500 cases")
def test_criterion_6_uniqueness_coherence():
    rng = random.Random(602214076)
    disagreements = 0
    for k in range(500):
        f = _random_upoly_instance(rng)
        if is_unique(f) != uniqueness_oracle(f, trials=100, seed=k):
            disagreements += 1
    assert disagreements == 0

    # pinned regression: a two-term coefficient whose dominant part is a
    # single term; the polygon is trustworthy although the coefficient
    # itself is not a monomial
    f = upoly(2, 0, {1: const(1), 0: uc(2, (const(1), (0, 0)), (tp(1), (1, 0)))})
    assert is_unique(f)
    assert uniqueness_oracle(f, trials=100, seed=1)


@criterion("7: algebra laws, 1000 randomized checks each")
def test_criterion_7_algebra_laws():
    rng = random.Random(1609)
    for _ in range(1000):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert (a * b).valuation() == a.valuation() + b.valuation()
        assert initial(a * b) == QQ.mul(initial(a), initial(b))
        s = a + b
        if not s.is_zero():
            assert s.valuation() >= min(a.valuation(), b.valuation())
            if a.valuation() != b.valuation():
                assert s.valuation() == min(a.valuation(), b.valuation())

    for _ in range(500):
        k = rng.randint(0, 2)
        f = _random_mpoly(rng, k + 1, 3)
        g = _random_mpoly(rng, k + 1, 3)
        roots = [_random_root(rng, i) for i in range(k)]
        try:
            fg = compose_roots(f * g, roots, k)
        except TropError as exc:
            assert str(exc) == "substitution produced the zero polynomial"
            continue
        assert lift(fg) == lift(compose_roots(f, roots, k)) * lift(compose_roots(g, roots, k))

    for _ in range(500):
        f = _random_upoly_instance(rng)
        g = _random_upoly_instance(rng)
        prefix = ps((0, rng.choice([1, 2, -1])), (1, rng.randint(-2, 2)))
        scale = Fraction(rng.randint(0, 3), rng.randint(1, 2))
        lhs = shift_and_rescale(unlift(lift(f) * lift(g), f.var), prefix, scale)
        assert lift(lhs) == lift(shift_and_rescale(f, prefix, scale)) * lift(shift_and_rescale(g, prefix, scale))


# -- randomized instance builders ---------------------------------------------


def _random_scalar(rng):
    nterms = rng.randint(1, 3)
    exps = set()
    while len(exps) < nterms:
        exps.add(Fraction(rng.randint(-4, 6), rng.randint(1, 3)))
    return ps(*[(e, rng.choice([1, 2, 3, -1, -2, -3])) for e in sorted(exps)])


def _random_upoly_instance(rng, nvars=3):
    """Sparse polynomials over K[u]; u-monomials stay multilinear so that
    dominant-term cancellations are always reachable over the rationals."""
    coeffs = {}
    for j in range(rng.randint(1, 4) + 1):
        if rng.random() < 0.3:
            continue
        terms = []
        for _ in range(rng.randint(1, 3)):
            deg = [0] * nvars
            for i in range(nvars):
                if rng.random() < 0.35:
                    deg[i] = 1
            if sum(deg) > 2:
                deg = [0] * nvars
            scalar = ps((Fraction(rng.randint(0, 4), rng.randint(1, 2)), rng.choice([1, 2, 3, -1, -2])))
            terms.append((scalar, tuple(deg)))
        c = uc(nvars, *terms)
        if not c.is_zero():
            coeffs[j] = c
    if not coeffs:
        coeffs[1] = uconst(nvars, const(1))
    return from_coeffs(QQ, nvars, 0, list(coeffs.items()))


def _random_mpoly(rng, width, nvars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = [0] * nvars
        for i in range(width):
            deg[i] = rng.randint(0, 2)
        terms[tuple(deg)] = ps((Fraction(rng.randint(-2, 3)), rng.choice([1, 2, -1])))
    p = sum_mpoly(QQ, nvars, terms.items())
    if p.is_zero():
        return Poly.constant(QQ, nvars, const(1))
    return p


def _random_root(rng, index):
    if rng.random() < 0.3:
        return root(index, [(0, rng.choice([1, 2, -1]))], None)
    known = [] if rng.random() < 0.5 else [(0, rng.choice([1, 2, -1]))]
    tail = Fraction(rng.randint(1 if known else 0, 2))
    return root(index, known, tail)


def test_the_readme_library_example_prints_what_its_comment_says(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    comment = lines[next(i for i, line in enumerate(lines) if line.startswith("print(")) + 1]
    assert comment.startswith("# ")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == comment[2:] + "\n"
