import math
import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy as np

from tamecert import exactarith
from tamecert.exactarith import (
    ARRAY_A_MAX,
    ARRAY_DEN_MAX,
    GOLDEN,
    SQRT2_MINUS_1,
    CirclePoint,
    PointArray,
    RotationNumber,
    _floor_linear,
    one_sided_approach,
    orbit_point,
    parse_rotation_number,
    point,
    zero,
)

# 50-digit reference value of the golden rotation number (sqrt(5)-1)/2,
# used only as an independent cross-check oracle.
GOLDEN_50 = Fraction(
    61803398874989484820458683436563811772030917980576, 10**50
)


def test_convergents_golden():
    assert GOLDEN.convergents(5) == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 5),
        Fraction(5, 8),
    ]


def test_convergents_sqrt2():
    assert SQRT2_MINUS_1.convergents(3) == [
        Fraction(1, 2),
        Fraction(2, 5),
        Fraction(5, 12),
    ]


def test_convergents_base_case():
    for alpha in (GOLDEN, SQRT2_MINUS_1, RotationNumber((3, 7), period=(2,))):
        assert alpha.convergents(1) == [Fraction(1, alpha.quotient(1))]


def test_convergent_recurrence_and_quality():
    alpha = RotationNumber((1, 2), period=(3, 1))
    ref = alpha.approx(Fraction(1, 10**60))
    for k in range(1, 12):
        p, q = alpha.numerator(k), alpha.denominator(k)
        assert p == alpha.quotient(k) * alpha.numerator(k - 1) + (alpha.numerator(k - 2) if k >= 2 else 1)
        assert abs(ref - Fraction(p, q)) < Fraction(1, q * alpha.denominator(k + 1))


def test_alternating_sides():
    # q_k*alpha - p_k alternates in sign starting positive at k = 0
    ref = GOLDEN.approx(Fraction(1, 10**40))
    for k in range(8):
        s = GOLDEN.denominator(k) * ref - GOLDEN.numerator(k)
        assert (s > 0) == (k % 2 == 0)


def test_compare_examples():
    x = point(GOLDEN, 1)
    assert x.compare(x) == 0
    assert point(GOLDEN, 1).compare(point(GOLDEN, 0, Fraction(1, 2))) == 1
    assert point(GOLDEN, 2, -1).compare(point(GOLDEN, 1)) == -1


def test_reduction_canonical():
    # 2*alpha reduces to (2, -1); adding integers to b is absorbed
    p = point(GOLDEN, 2)
    assert (p.a, p.b) == (2, Fraction(-1))
    q = CirclePoint(GOLDEN, 2, Fraction(5))
    assert (q.a, q.b) == (2, Fraction(-1))
    r = CirclePoint(GOLDEN, 0, Fraction(7, 3))
    assert (r.a, r.b) == (0, Fraction(1, 3))


def test_value_enclosure_contains_truth():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randint(-30, 30)
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 17))
        p = CirclePoint(GOLDEN, a, b)
        lo, hi = p.bounds(Fraction(1, 10**30))
        truth = (a * GOLDEN_50 + p.b)  # b already reduced: truth in [0,1) up to 1e-50
        assert lo - Fraction(1, 10**45) <= truth <= hi + Fraction(1, 10**45)
        assert hi - lo <= Fraction(1, 10**30)


@settings(max_examples=60, deadline=None)
@given(
    a1=st.integers(-1000, 1000),
    a2=st.integers(-1000, 1000),
    n1=st.integers(-10**6, 10**6),
    d1=st.integers(1, 10**6),
    n2=st.integers(-10**6, 10**6),
    d2=st.integers(1, 10**6),
)
def test_compare_agrees_with_50_digit_evaluation(a1, a2, n1, d1, n2, d2):
    x = CirclePoint(GOLDEN, a1, Fraction(n1, d1))
    y = CirclePoint(GOLDEN, a2, Fraction(n2, d2))
    vx = (a1 * GOLDEN_50 + Fraction(n1, d1)) % 1
    vy = (a2 * GOLDEN_50 + Fraction(n2, d2)) % 1
    if abs(vx - vy) > Fraction(1, 10**30):
        expected = -1 if vx < vy else 1
        assert x.compare(y) == expected


def test_compare_transitive_antisymmetric():
    rng = random.Random(11)
    pts = [CirclePoint(GOLDEN, rng.randint(-50, 50), Fraction(rng.randint(-9, 9), rng.randint(1, 11))) for _ in range(30)]
    for _ in range(200):
        x, y, z = rng.sample(pts, 3)
        cxy, cyz, cxz = x.compare(y), y.compare(z), x.compare(z)
        assert cxy == -y.compare(x)
        if cxy <= 0 and cyz <= 0:
            assert cxz <= 0
        if cxy >= 0 and cyz >= 0:
            assert cxz >= 0


def test_orbit_predicates():
    assert point(GOLDEN, 5).on_orbit
    assert point(GOLDEN, 5).orbit_index == 5
    assert not point(GOLDEN, 5, Fraction(1, 3)).on_orbit
    assert point(GOLDEN, 0, Fraction(1, 3)).is_rational


def test_approach_zero_above():
    seq = one_sided_approach(zero(GOLDEN), "above", 6)
    # even-index denominators 1, 2, 5, 13, 34, 89 with q_k*alpha - p_k > 0
    assert seq.times == (1, 2, 5, 13, 34, 89)
    for k, bound in zip(range(0, 12, 2), seq.error_bounds):
        assert bound == Fraction(1, GOLDEN.denominator(k + 1))
    assert seq.verify()


def test_approach_zero_below_wraps_to_one():
    seq = one_sided_approach(zero(GOLDEN), "below", 5)
    assert seq.verify()
    ref = GOLDEN.approx(Fraction(1, 10**40))
    for n in seq.times:
        frac = (n * ref) % 1
        assert frac > Fraction(1, 2)  # approaches 1 from below


def test_approach_translation_equivariance():
    base = one_sided_approach(zero(GOLDEN), "above", 5)
    shifted = one_sided_approach(orbit_point(GOLDEN, 7), "above", 5)
    assert tuple(t - 7 for t in shifted.times) == base.times
    assert shifted.error_bounds == base.error_bounds


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize(
    "target",
    [
        (0, Fraction(1, 3)),
        (1, Fraction(1, 3)),
        (2, Fraction(-1, 7)),
        (-3, Fraction(2, 5)),
    ],
)
def test_approach_general_targets_certified(side, target):
    a, b = target
    seq = one_sided_approach(CirclePoint(GOLDEN, a, b), side, 10)
    assert seq.verify()
    assert list(seq.times) == sorted(seq.times)
    assert all(x < y for x, y in zip(seq.error_bounds[1:], seq.error_bounds))
    assert seq.error_bounds[-1] < Fraction(1, 100)


def test_approach_bounds_shrink_to_zero():
    seq = one_sided_approach(point(GOLDEN, 0, Fraction(1, 3)), "below", 25)
    assert seq.error_bounds[-1] < Fraction(1, 10**6)


def test_parse_round_trip():
    alpha = parse_rotation_number("cf:[0;2,(1,3)]")
    assert alpha.prefix == (2,) and alpha.period == (1, 3)
    alpha2 = parse_rotation_number("cf:[0;1,1,1,...]")
    assert alpha2.period == (1,)
    assert parse_rotation_number(alpha2.describe()) == alpha2 == GOLDEN
    assert parse_rotation_number(alpha.describe()) == alpha
    with pytest.raises(ValueError):
        parse_rotation_number("cf:[1;2]")


def test_quotients_exhausted():
    from tamecert.errors import QuotientsExhausted

    alpha = RotationNumber((1, 2, 3))
    assert alpha.quotients(3) == [1, 2, 3]
    with pytest.raises(QuotientsExhausted):
        alpha.quotient(4)


@pytest.mark.parametrize("k", [30, 31])  # convergents on either side of alpha
def test_refinement_limit_reached(monkeypatch, k):
    from tamecert.errors import RefinementLimit

    c = GOLDEN.convergent(k)  # alpha - c is within 1/q_k^2 of 0
    x, y = point(GOLDEN, 1), point(GOLDEN, 0, c)
    assert _floor_linear(GOLDEN, 1, -c.numerator, c.denominator) == (0 if k % 2 == 0 else -1)
    assert x.compare(y) == (1 if k % 2 == 0 else -1)
    monkeypatch.setattr(exactarith, "REFINEMENT_CAP", 1)  # one enclosure, far wider than |alpha - c|
    with pytest.raises(RefinementLimit):
        _floor_linear(GOLDEN, 1, -c.numerator, c.denominator)
    with pytest.raises(RefinementLimit):
        x.compare(y)


def test_invalid_quotients_rejected():
    with pytest.raises(ValueError):
        RotationNumber((0,))
    with pytest.raises(ValueError):
        RotationNumber((), period=())
    with pytest.raises(ValueError):
        RotationNumber(())


@settings(max_examples=60, deadline=None)
@given(
    a1=st.integers(-200, 200), n1=st.integers(-30, 30), d1=st.integers(1, 19),
    a2=st.integers(-200, 200), n2=st.integers(-30, 30), d2=st.integers(1, 19),
    a3=st.integers(-50, 50), n3=st.integers(-9, 9), d3=st.integers(1, 7),
    k=st.integers(-40, 40),
)
def test_group_laws(a1, n1, d1, a2, n2, d2, a3, n3, d3, k):
    x = CirclePoint(GOLDEN, a1, Fraction(n1, d1))
    y = CirclePoint(GOLDEN, a2, Fraction(n2, d2))
    z = CirclePoint(GOLDEN, a3, Fraction(n3, d3))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == zero(GOLDEN)
    assert (x - y) + y == x
    assert x.translate(k) == x + orbit_point(GOLDEN, k)
    # canonical values stay in [0, 1)
    lo, hi = (x + y).bounds(Fraction(1, 10**12))
    assert 0 <= lo and hi < 1 + Fraction(1, 10**10)


# ---------------------------------------------------------------------------
# the integer convergent paths against independent definitions
# ---------------------------------------------------------------------------

CF_SAMPLES = [
    ((), (1,)),
    ((), (2,)),
    ((1, 2), (3, 1, 4)),
    ((5, 1, 1, 7), (2, 9)),
]
# warm caches, shared by every example (fresh instances start cold)
SHARED = {cf: RotationNumber(*cf) for cf in CF_SAMPLES}


def _level_linear(alpha, width):
    """Smallest k >= 1 with 1/(q_k q_{k+1}) <= width, by a linear scan."""
    k = 1
    while alpha.denominator(k) * alpha.denominator(k + 1) * width.numerator < width.denominator:
        k += 1
    return k


def _decimal_alpha(prefix, period, digits):
    """alpha to ``digits`` digits from 200 partial quotients, evaluated
    bottom-up without the RotationNumber convergent cache."""
    quotients = list(prefix) + list(period) * 200
    value = Fraction(0)
    for a in reversed(quotients[:200]):
        value = 1 / (a + value)
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(value.numerator) / Decimal(value.denominator)


@settings(max_examples=200, deadline=None)
@given(
    cf=st.sampled_from(CF_SAMPLES),
    num=st.integers(1, 10**6),
    exp=st.integers(0, 80),
    cold=st.booleans(),
)
def test_level_for_matches_linear_scan(cf, num, exp, cold):
    alpha = RotationNumber(*cf) if cold else SHARED[cf]
    width = Fraction(num, 10**exp)
    got = alpha.level_for(width)
    assert got == _level_linear(RotationNumber(*cf), width)
    assert got == _level_linear(alpha, width)


@settings(max_examples=200, deadline=None)
@given(
    cf=st.sampled_from(CF_SAMPLES),
    k=st.integers(1, 60),
    j=st.integers(1, 6),
    r=st.integers(-5, 5),
)
def test_level_for_at_enclosure_widths(cf, k, j, r):
    # widths j/(j*q_k*q_{k+1} + r) straddle the level-k width 1/(q_k q_{k+1})
    alpha = SHARED[cf]
    den = j * alpha.denominator(k) * alpha.denominator(k + 1) + r
    assume(den > 0)
    width = Fraction(j, den)
    level = alpha.level_for(width)
    assert level == _level_linear(RotationNumber(*cf), width)
    assert (level > k) == (r > 0)


def test_level_for_exhausts_like_linear_scan():
    from tamecert.errors import QuotientsExhausted

    alpha = RotationNumber((3, 1, 4, 1, 5))
    assert alpha.level_for(Fraction(1, 20)) == _level_linear(alpha, Fraction(1, 20))
    with pytest.raises(QuotientsExhausted):
        alpha.level_for(Fraction(1, 10**9))
    with pytest.raises(ValueError):
        alpha.level_for(Fraction(0))


def _approach_linear(target, side, depth):
    """The greedy walk of ``one_sided_approach`` for an off-orbit target, with
    each step's convergent found by a linear scan from the walk's parity."""
    alpha, n, times, bounds, prev = target.alpha, target.a, [], [], None
    gap = CirclePoint(alpha, 0, target.b if side == "below" else -target.b)
    parity = 0 if side == "below" else 1
    while len(times) < depth:
        eps = Fraction(1, 10**6)
        while gap.bounds(eps)[0] <= 0:
            eps /= 10**6
        glo = gap.bounds(eps)[0]
        k = parity
        while alpha.gap_upper(k) >= glo:
            k += 2
        n += alpha.denominator(k)
        gap = gap - exactarith._delta_point(alpha, k)
        eps = alpha.gap_upper(k)
        while True:
            lo, hi = gap.bounds(eps)
            if lo > 0 and (prev is None or hi < prev):
                break
            eps /= 16
        times.append(n)
        bounds.append(hi)
        prev = hi
    return tuple(times), tuple(bounds)


@settings(max_examples=60, deadline=None)
@given(
    cf=st.sampled_from(CF_SAMPLES),
    a=st.integers(-50, 50),
    num=st.integers(1, 10**6),
    den=st.integers(2, 10**6),
    side=st.sampled_from(["below", "above"]),
    depth=st.sampled_from([1, 2, 7, 30, 60]),
)
def test_approach_level_matches_linear_scan(cf, a, num, den, side, depth):
    assume(num % den)  # an off-orbit target takes the greedy walk
    target = CirclePoint(SHARED[cf], a, Fraction(num, den))
    seq = one_sided_approach(target, side, depth)
    assert (seq.times, seq.error_bounds) == _approach_linear(target, side, depth)


@settings(max_examples=200, deadline=None)
@given(
    cf=st.sampled_from(CF_SAMPLES),
    shared=st.booleans(),
    a=st.integers(-10**12, 10**12),
    n=st.integers(-10**9, 10**9),
    d=st.integers(1, 10**9),
)
def test_floor_linear_matches_60_digit_decimal(cf, shared, a, n, d):
    alpha = SHARED[cf] if shared else RotationNumber(*cf)
    with localcontext() as ctx:
        ctx.prec = 60
        value = a * _decimal_alpha(*cf, 60) + Decimal(n) / Decimal(d)
        floor = int(value.to_integral_value(rounding=ROUND_FLOOR))
        # a*alpha + b is an integer only for a == 0; keep off the 60-digit noise
        assume(a == 0 or abs(value - floor) > Decimal(10) ** -40)
    assert _floor_linear(alpha, a, n, d) == floor  # n/d as drawn, not reduced


@settings(max_examples=200, deadline=None)
@given(
    cf=st.sampled_from(CF_SAMPLES),
    a=st.integers(-10**9, 10**9),
    n=st.integers(-10**6, 10**6),
    d=st.integers(1, 10**6),
)
def test_as_float_is_midpoint_of_bounds(cf, a, n, d):
    p = CirclePoint(RotationNumber(*cf), a, Fraction(n, d))
    lo, hi = p.bounds(Fraction(1, 10**22))
    assert p.as_float().hex() == float((lo + hi) / 2).hex()


# ---------------------------------------------------------------------------
# point arrays against the per-point CirclePoint path
# ---------------------------------------------------------------------------


@st.composite
def array_row(draw, alpha):
    """(a, num, den) of a point a*alpha + num/den, from one of six families."""
    kind = draw(st.sampled_from(["small", "wide", "orbit", "integer", "near_integer", "outside"]))
    if kind == "small":  # small-rational b, negative a included
        return (draw(st.integers(-10**4, 10**4)), draw(st.integers(-10**6, 10**6)),
                draw(st.integers(1, 60)))
    if kind == "wide":  # up to the edges of the array range
        return (draw(st.integers(-ARRAY_A_MAX, ARRAY_A_MAX)), draw(st.integers(-2**62, 2**62)),
                draw(st.sampled_from([ARRAY_DEN_MAX - 1, draw(st.integers(1, ARRAY_DEN_MAX - 1))])))
    if kind == "orbit":  # b an integer: the fractional part of b is exactly 0
        return draw(st.integers(-10**9, 10**9)), draw(st.integers(-5, 5)), 1
    if kind == "integer":  # the value itself is exactly 0
        return 0, draw(st.integers(-5, 5)), 1
    if kind == "outside":  # one value just past the range
        return draw(st.sampled_from([(1, 1, ARRAY_DEN_MAX), (ARRAY_A_MAX + 1, 0, 1),
                                     (-ARRAY_A_MAX - 1, 1, 3), (2, 2**63, 5)]))
    # a = s*q_k and m/d the nearest multiple of 1/d to -(a*alpha - s*p_k):
    # the value is within 1/(2d) <= 5e-14 of an integer
    k = draw(st.integers(2, alpha.denominator_level(2**40) - 1))
    s, d = draw(st.sampled_from([-1, 1])), draw(st.integers(10**13, 10**15))
    a, p = s * alpha.denominator(k), s * alpha.numerator(k)
    m = round(-(a * alpha.convergent(alpha.level_for(Fraction(1, 10**40))) - p) * d)
    return a, (m - p * d) % d, d


def assert_array_matches(arr: PointArray, want: list[CirclePoint]):
    assert len(arr) == len(want)
    for i, p in enumerate(want):
        q = arr[i]  # one point, built on its own
        assert (q.a, q.b) == (p.a, p.b) and q == p and hash(q) == hash(p)
        assert arr.positions[i].hex() == p.as_float().hex()
    assert arr.objects == want and [hash(q) for q in arr] == [hash(p) for p in want]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), alpha=st.sampled_from([GOLDEN, SQRT2_MINUS_1]))
def test_point_array_matches_per_point_path(data, alpha):
    rows = data.draw(st.lists(array_row(alpha), min_size=1, max_size=12))
    arr = PointArray.build(alpha, *zip(*rows))
    assert (arr is not None) == all(abs(a) <= ARRAY_A_MAX and abs(n) < 2**63 and
                                    1 <= d < ARRAY_DEN_MAX for a, n, d in rows)
    want = [CirclePoint(alpha, a, Fraction(n, d)) for a, n, d in rows]
    of = PointArray.of(alpha, want)  # reads b mod 1, so num is never out of range
    assert (of is not None) == all(abs(p.a) <= ARRAY_A_MAX and p.b.denominator < ARRAY_DEN_MAX
                                   for p in want)
    if arr is None:
        return
    assert_array_matches(arr, want)
    assert_array_matches(of, want)
    g = CirclePoint(alpha, data.draw(st.integers(-40, 40)),
                    Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 12))))
    shifted = arr.shift(g)
    fits = all(math.lcm(p.b.denominator, g.b.denominator) < ARRAY_DEN_MAX and
               abs(p.a + g.a) <= ARRAY_A_MAX for p in want)
    assert (shifted is not None) == fits
    if fits:
        assert_array_matches(shifted, [p + g for p in want])


def test_point_array_range_is_checked():
    assert PointArray.build(GOLDEN, [-ARRAY_A_MAX, ARRAY_A_MAX], [1, 1], [3, ARRAY_DEN_MAX - 1])
    assert PointArray.build(GOLDEN, [0], [1], [ARRAY_DEN_MAX]) is None
    assert PointArray.build(GOLDEN, [ARRAY_A_MAX + 1], [0], [1]) is None
    assert PointArray.of(GOLDEN, [point(GOLDEN, 0, Fraction(1, 3**40))]) is None
    arr = PointArray.build(GOLDEN, [1, 2], [1, 1], [3**33, 7])  # 3^33 < 2^53 < 5 * 3^33
    assert arr.shift(point(GOLDEN, 0, Fraction(1, 3))) is not None
    assert arr.shift(point(GOLDEN, 0, Fraction(1, 5))) is None  # the lcm leaves the range
    assert arr.shift(point(GOLDEN, ARRAY_A_MAX, 0)) is None


def test_screen_defers_exactly_the_rows_it_cannot_certify(monkeypatch):
    rows = []

    def counted(alpha, a, num, den):
        rows.extend(zip(a, num, den))
        return exact_rows(alpha, a, num, den)

    exact_rows = exactarith._exact_rows
    monkeypatch.setattr(exactarith, "_exact_rows", counted)
    k = np.arange(10_000)
    PointArray.build(GOLDEN, k % 7 - 3, k, 0 * k + 10_001)
    assert rows == []  # far from every integer and rounding boundary
    q, p = GOLDEN.denominator(40), GOLDEN.numerator(40)  # q*alpha - p is ~1e-17 from 0
    arr = PointArray.build(GOLDEN, [q, 0, 1], [-p, 0, 0], [1, 1, 1])
    assert rows == [(q, 0, 1)]  # num is b mod 1; the value 0 is rational and needs no fallback
    assert arr.positions[1] == 0.0 and arr[1] == exactarith.zero(GOLDEN)
    assert arr[0] == CirclePoint(GOLDEN, q, Fraction(-p))


def test_short_quotient_supply_decides_every_row_exactly():
    # 60 quotients resolve as_float (1e-22) for small a but not the screen's 2^-120
    alpha = RotationNumber((1,) * 60)
    rows = [(1, 1, 3), (-2, 0, 1), (0, 2, 5), (5, -7, 9)]
    assert_array_matches(PointArray.build(alpha, *zip(*rows)),
                         [CirclePoint(alpha, a, Fraction(n, d)) for a, n, d in rows])
