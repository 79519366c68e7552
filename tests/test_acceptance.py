"""Acceptance suite: every criterion as a dedicated test with its stated
tolerance, printing one pass line per criterion (run with -s to see them)."""

import json
import math
import random
from fractions import Fraction

import pytest

import tamecert.envelope as envelope
import tamecert.order as order
import tamecert.rank as rank
import tamecert.systems as systems
import tamecert.tameness as tameness
from tamecert.boundary import ReducedWord, boundary_sample, loxodromic_rank_arrays, power_limit
from tamecert.cli import report_payload, run_config
from tamecert.exactarith import GOLDEN, SQRT2_MINUS_1, CirclePoint, one_sided_approach, orbit_point, zero
from tamecert.linear import (
    MatrixSequenceSpec,
    PartialLinearMap,
    affine_catalog_element,
    affine_catalog_limit,
    matrix_limit,
    partial_compose,
    pinned_by_three,
)
from tamecert.systems import MINUS, PLAIN, PLUS, CosFiber, CosSystem, RotationSystem, SplitCircleSystem

F = Fraction


def _pass(n: int, text: str) -> None:
    print(f"[PASS] criterion {n:02d}: {text}")


@pytest.fixture(scope="module")
def sturmian():
    return SplitCircleSystem(GOLDEN)


def test_criterion_01_sturmian_envelope_catalog(sturmian):
    """limit_map along one-sided approaches reproduces the one-sided limit
    elements exactly on a 500-point sample for 20 targets; classification is
    one_sided every time."""
    rng = random.Random(1)
    gammas = [orbit_point(GOLDEN, k) for k in range(-2, 3)]
    while len(gammas) < 20:
        gammas.append(CirclePoint(GOLDEN, rng.randint(-6, 6), F(rng.randint(1, 8), rng.choice([3, 5, 7, 9, 11]))))
    checked = 0
    for gamma in gammas:
        side = "below" if checked % 2 == 0 else "above"
        tag = MINUS if side == "below" else PLUS
        extra = [(-gamma).translate(k) for k in range(-3, 4)]
        sample = envelope.split_sample(sturmian, plain_count=470, split_range=8, extra_bases=extra)
        assert len(sample) >= 500
        element = envelope.limit_map(sturmian, one_sided_approach(gamma, side, 8), sample)
        assert element.backend == "exact"
        for x, im in zip(sample.points, element.images):
            base = x.base + gamma  # independent restatement of the limit rule
            want_side = tag if sturmian.splits(base) else PLAIN
            assert im.base == base and im.side == want_side
        cls = envelope.classify(element)
        assert cls.tag == "one_sided"
        assert cls.params["gamma"] == gamma
        assert cls.params["side"] == ("minus" if side == "below" else "plus")
        checked += 1
    assert checked == 20
    _pass(1, "20 one-sided limit elements reproduced exactly and classified one_sided")


def test_criterion_02_split_fibers(sturmian):
    """Fibers have size 2 over the orbit (|n| <= 50) and 1 off it."""
    for n in range(-50, 51):
        fib = sturmian.split_fiber(orbit_point(GOLDEN, n))
        assert [p.side for p in fib] == [MINUS, PLUS]
    rng = random.Random(2)
    for _ in range(50):
        b = F(rng.randint(1, 10**6), 10**6 + 1)
        a = rng.randint(-20, 20)
        assert len(sturmian.split_fiber(CirclePoint(GOLDEN, a, b))) == 1
    _pass(2, "fiber size 2 over 101 orbit points, 1 at 50 random off-orbit points")


def test_criterion_03_sorgenfrey_discreteness():
    """All 100 sampled flipped-diagonal members isolated with exact order
    arithmetic; the single-circle family is correctly reported non-isolated."""
    gammas = [CirclePoint(GOLDEN, k, F(k % 29, 29)) for k in range(100)]
    rep = envelope.sorgenfrey_isolation(envelope.flipped_diagonal(gammas), eps=F(1, 4))
    assert rep.all_isolated and all(rep.isolated)
    dense = [((CirclePoint(GOLDEN, 0, F(k, 100)), PLUS),) for k in range(100)]
    single = envelope.sorgenfrey_isolation(dense, eps=F(1, 4))
    assert not single.all_isolated
    assert not any(single.isolated)
    assert all(c is not None for c in single.conflicts)
    _pass(3, "100 product-diagonal members isolated exactly; single circle non-isolated")


def test_criterion_04_beta_ranks(sturmian):
    """Rank 1 for rotations, 2 for Sturmian one-sided limits at eps in
    {0.1, 0.01} on a 10^4-point grid with a 3-step schedule, 2 for the
    free-group loxodromic at depth 16."""
    rot = RotationSystem(GOLDEN)
    rs = envelope.rotation_sample(rot, 2000)
    rot_el = envelope.limit_map(rot, one_sided_approach(CirclePoint(GOLDEN, 0, F(1, 3)), "above", 8), rs)
    for eps in (0.1, 0.01):
        t = rank.beta_rank(rot_el, eps)
        assert len(t.schedule) == 3
        assert t.beta == 1 and t.stabilized

    sample = envelope.split_sample(sturmian, plain_count=10_000, split_range=8, horizon=12)
    assert len(sample) >= 10_000
    p_minus = envelope.limit_map(sturmian, one_sided_approach(zero(GOLDEN), "below", 10), sample)
    inst = rank.build_instance(p_minus)
    for eps in (0.1, 0.01):
        t = rank.beta_rank(inst, eps)
        assert len(t.schedule) == 3
        assert t.beta == 2 and t.stabilized
        assert t.verify_witnesses(inst)

    lox = power_limit(ReducedWord.parse("ab"), depth=16)
    pts = boundary_sample(16, base_length=5, lox=lox)
    P, I = loxodromic_rank_arrays(lox, pts)
    binst = rank.prefix_instance(pts, P, I)
    for eps in (0.1, 0.01):
        t = rank.beta_rank(binst, eps)
        assert t.beta == 2 and t.stabilized
    _pass(4, "rank 1 rotations, 2 Sturmian one-sided (10^4 grid), 2 loxodromic (depth 16)")


def test_criterion_05_independence_contrast(sturmian):
    """Full shift |I| = L; Sturmian |I| <= ceil(log2(L+1)); Cantor-window
    coding strictly above the Sturmian value and nondecreasing; branch and
    bound equals exhaustive search for L <= 12."""
    windows = (8, 12, 16, 20)
    sturm_word = sturmian.word(sturmian.orbit_pt(0, PLUS), 10_000)
    cantor = systems.CutProjectCoding(GOLDEN, cantor_generation=6)
    cantor_word = cantor.word(100_000)

    sturm_sizes, cantor_sizes = {}, {}
    for L in windows:
        full = tameness.max_independence(systems.full_shift_word(L), L)
        assert full.size == L
        s = tameness.max_independence(sturm_word, L)
        assert s.size <= math.ceil(math.log2(L + 1))
        sturm_sizes[L] = s.size
        c = tameness.max_independence(cantor_word, L)
        cantor_sizes[L] = c.size
        assert c.verify(cantor_word)
    assert all(cantor_sizes[L] > sturm_sizes[L] for L in windows)
    sizes = [cantor_sizes[L] for L in windows]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    for word in (sturm_word, cantor_word):
        for L in (8, 12):
            assert tameness.max_independence(word, L).positions == tameness.exhaustive_max_independence(word, L)
    _pass(5, f"independence contrast sturmian={sturm_sizes} < cantor={cantor_sizes}; b&b == exhaustive at L<=12")


def test_criterion_06_sturmian_complexity(sturmian):
    """p(L) = L + 1 for 1 <= L <= 30 at horizon 10^4."""
    word = sturmian.word(sturmian.orbit_pt(0, PLUS), 10_000)
    prof = tameness.complexity(word, 30)
    for L in range(1, 31):
        assert prof[L] == L + 1
    _pass(6, "golden coding has p(L) = L+1 for L = 1..30 at horizon 10^4")


def test_criterion_07_cos_fiber():
    """Upper-region approaches give coordinate-0 value 2; a 21-point sweep of
    [-1,1] lands within 0.01 of every target; the idempotent law holds on all
    sampled pairs; decomposition round-trips."""
    cs = CosSystem(GOLDEN, horizon=6)
    pts = [CosFiber(k, v) for k in range(-2, 3) for v in (2.0, -1.0, 0.0, 1.0)]
    sample = envelope.SampleSet(pts, lambda x, y: cs.metric(x, y))
    x0 = cs.generator_point()

    upper = one_sided_approach(zero(GOLDEN), "below", 25)
    exact = envelope.limit_map(cs, upper, sample)
    assert cs.coordinate(exact.image_of(x0), 0) == 2.0
    numeric = envelope.limit_map(cs, list(upper.times), sample, tolerance=1e-3)
    assert abs(cs.coordinate(numeric.image_of(x0), 0) - 2.0) < 0.01

    for i in range(21):
        t = -1.0 + i / 10.0
        times = envelope.cos_target_times(GOLDEN, t)
        p = envelope.limit_map(cs, times, sample, tolerance=0.01, max_stages=5)
        got = cs.coordinate(p.image_of(x0), 0)
        assert abs(got - t) < 0.01

    eps_grid = [2.0, -1.0, -0.5, 0.0, 0.5, 1.0]
    for e in eps_grid:
        for h in eps_grid:
            ve, vh = envelope.CosElement(e, zero(GOLDEN)), envelope.CosElement(h, zero(GOLDEN))
            assert [ve.apply(cs, vh.apply(cs, x)) for x in pts] == [ve.apply(cs, x) for x in pts]

    dec = envelope.decompose_minimal(numeric, cs, gamma=zero(GOLDEN))
    assert dec.epsilon == pytest.approx(2.0, abs=0.01)
    recomposed = dec.recompose(cs, sample)
    assert max(cs.metric(a, b) for a, b in zip(recomposed, numeric.images)) < 0.01
    dec_exact = envelope.decompose_minimal(exact, cs)
    assert dec_exact.recompose(cs, sample) == exact.images
    _pass(7, "cos fiber: value 2 upper region, 21-target sweep within 0.01, idempotent law, round trip")


def test_criterion_08_determining_sets():
    """Rotation family determined by one point; the discrete family needs
    m-1 or m points (exhaustive); staircase determining sets defeat 1000
    adversaries for 20 random staircases."""
    pool = [CirclePoint(GOLDEN, 0, F(k, 23)) for k in range(23)][:11]
    gammas = [CirclePoint(GOLDEN, 0, F(k, 9)) for k in range(9)]
    family = [lambda x, g=g: x + g for g in gammas]
    for p in family:
        assert len(envelope.determining_set(family, pool, p).points) == 1

    for m in (6, 11, 16, 20):
        grid = [F(k, m) for k in range(m)]
        bumps = order.discrete_family(grid)
        res = envelope.determining_set(bumps + [order.zero_map], grid, order.zero_map)
        assert res.optimal and len(res.points) == m
        res2 = envelope.determining_set(bumps, [g for g in grid if g != grid[0]], bumps[0])
        assert res2.optimal and len(res2.points) == m - 1

    rng = random.Random(8)
    dom = order.OrderedDomain.interval(sample_level=5)
    from tests.test_order import random_staircase

    for _ in range(20):
        f = random_staircase(rng)
        res = order.helly_determining_set(f, dom, adversaries=1000)
        assert res.sound and res.adversaries_defeated == 1000
    _pass(8, "rotation |C|=1; discrete family m-1/m exhaustively; 20 staircases defeat 1000 adversaries")


def test_criterion_09_no_countable_basis_witnesses():
    """Witness construction succeeds for 100 random finite excluded sets of
    size up to 50 in both scenarios, re-verified by evaluation."""
    rng = random.Random(9)
    for trial in range(100):
        size = rng.randint(1, 50)
        cset = [F(rng.randint(1, 997), 997) for _ in range(size)]
        w = envelope.no_countable_basis_witness(cset, "circle_parabolic")
        assert w.sound
        assert all(w.witness(c) == F(0) for c in w.agrees_on)
        assert w.witness(w.differs_at) == w.differs_at != F(0)
    for trial in range(100):
        size = rng.randint(1, 50)
        pts = [(rng.randint(-200, 200), rng.randint(-200, 200)) for _ in range(size)]
        pts = [p for p in pts if p != (0, 0)] or [(1, 2)]
        w = envelope.no_countable_basis_witness(pts, "projective_p_infty")
        assert w.sound
        assert all(w.witness.apply(c) == "inf" for c in w.agrees_on)
        assert w.witness.apply(w.differs_at) == w.differs_at
    _pass(9, "100 random witness sets per scenario, all sound by re-evaluation")


def test_criterion_10_partial_linear_semigroup():
    """Scalar family collapses to the origin; diag(1,n) leaves the axis
    identity; composition is associative on 50 random triples and matches
    product limits within 1e-8; catalog elements are pinned by 3 values."""
    p_inf = matrix_limit(MatrixSequenceSpec("scalar", 2), stages=8)
    assert p_inf.domain_dim == 0 and p_inf.apply((1, 1)) == "inf"
    q = matrix_limit(MatrixSequenceSpec("diagonal", 2, entries=[lambda s: 1.0, lambda s: float(s)]))
    assert q.apply((4, 0)) == (4, 0) and q.apply((0, 1)) == "inf"

    rng = random.Random(10)
    for _ in range(50):
        maps = [
            PartialLinearMap.diagonal(
                [rng.choice([None, F(0), F(1), F(2), F(1, 2), F(-1)]) for _ in range(3)]
            )
            for _ in range(3)
        ]
        a, b, c = maps
        assert partial_compose(partial_compose(a, b), c) == partial_compose(a, partial_compose(b, c))

    from tests.test_linear import TestCompose

    helper = TestCompose()
    for _ in range(20):
        sa, sb = helper._compatible_family_pair(rng)
        pa = matrix_limit(MatrixSequenceSpec("diagonal", 3, entries=sa), stages=30)
        pb = matrix_limit(MatrixSequenceSpec("diagonal", 3, entries=sb), stages=30)
        prod = [lambda s, f1=f1, f2=f2: f1(s) * f2(s) for f1, f2 in zip(sa, sb)]
        pprod = matrix_limit(MatrixSequenceSpec("diagonal", 3, entries=prod), stages=40)
        comp = partial_compose(pa, pb)
        for axis in range(3):
            e = tuple(F(int(axis == j)) for j in range(3))
            got, want = comp.apply(e), pprod.apply(e)
            if got == "inf" or want == "inf":
                assert got == want
            else:
                assert all(abs(float(x - y)) < 1e-8 for x, y in zip(got, want))

    grid = [-1.0, 0.0, 1.0]
    catalog = (
        [affine_catalog_element("jump", r=r, s=s) for r in grid for s in grid]
        + [affine_catalog_element("const", s=s) for s in grid]
        + [affine_catalog_element("const_inf", sign=sg) for sg in (1, -1)]
        + [affine_catalog_element("jump_inf", s=s, sign=sg) for s in grid for sg in (1, -1)]
    )
    for m in catalog:
        if m.kind == "three_region":
            assert pinned_by_three(m, catalog, [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    computed = affine_catalog_limit("jump", r=0.5, s=-1.0)
    assert computed.kind == "three_region" and computed.at_jump == pytest.approx(0.5, abs=1e-6)
    _pass(10, "partial linear semigroup: domains, associativity, product limits 1e-8, 3-point pinning")


def test_criterion_11_semicocycle_fibers():
    """Computed cardinality k over marked points for k <= 6 at depth 20, and
    1 at 50 random unmarked points."""
    sc = systems.SemicocycleCascade(n_max=6, depth=24)
    assert sc.fiber_cardinalities(6, 20) == {k: k for k in range(1, 7)}
    rng = random.Random(11)
    for _ in range(50):
        assert sc.unmarked_fiber_cardinality(rng.randint(-(10**9), 10**9)) == 1
    _pass(11, "marked fibers have cardinality k (k <= 6, depth 20); 50 unmarked points give 1")


def test_criterion_12_rigidity_probe(sturmian):
    """Rotation minimum along denominators drops below 1e-6 by k = 25; the
    Sturmian minimum over n <= 10^4 stays at the split-gap floor."""
    rot = RotationSystem(SQRT2_MINUS_1)
    rs = envelope.rotation_sample(rot, 16)
    times = [SQRT2_MINUS_1.denominator(k) for k in range(1, 26)]
    rep = envelope.rigidity_probe(rot, rs, times)
    assert rep.minimum[1] < 1e-6

    s = envelope.SampleSet(
        [sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS),
         sturmian.pt(CirclePoint(GOLDEN, 0, F(1, 7))), sturmian.pt(CirclePoint(GOLDEN, 0, F(2, 5)))],
        envelope.CodingMetric(sturmian, 6),
    )
    gap = s.metric(sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS))
    rep2 = envelope.rigidity_probe(sturmian, s, range(1, 10_001))
    assert rep2.minimum[1] >= gap > 0
    _pass(12, f"rotation rigidity min {rep.minimum[1]:.2e} < 1e-6 by k=25; Sturmian floor {rep2.minimum[1]} >= split gap {gap}")


def test_criterion_13_asymptotic_pairs(sturmian):
    """cos fiber pairs differ exactly at coordinate 0; Sturmian split pairs
    differ on a finite window set."""
    cs = CosSystem(GOLDEN, horizon=6)
    pairs = [(cs.fiber_point(0, 2.0), cs.fiber_point(0, -1.0)),
             (cs.fiber_point(0, 0.25), cs.fiber_point(0, 2.0)),
             (cs.fiber_point(3, 1.0), cs.fiber_point(3, 0.5))]
    for x, y in pairs:
        d = systems.asymptotic_defect(cs, x, y, (-20, 20))
        assert d == {-x.k}
    d0 = systems.asymptotic_defect(cs, cs.fiber_point(0, 2.0), cs.fiber_point(0, -0.5), (-20, 20))
    assert d0 == {0}
    d = systems.asymptotic_defect(sturmian, sturmian.orbit_pt(0, MINUS), sturmian.orbit_pt(0, PLUS), (-100, 100))
    assert d == {0, 1} and len(d) < 10
    _pass(13, "cos pairs differ exactly at the defect coordinate; Sturmian pair defect {0,1} in [-100,100]")


ACCEPTANCE_BATCH = {
    "seed": 14,
    "experiments": [
        {"kind": "limit", "id": "lim", "params": {"system": "sturmian", "target": {"a": 0, "b": 0},
                                                  "side": "below", "plain_count": 60, "split_range": 4}},
        {"kind": "independence", "id": "ind",
         "params": {"coding": {"system": "sturmian"}, "horizon": 3000, "windows": [6, 9, 12]}},
        {"kind": "rank", "id": "rk",
         "params": {"system": "sturmian", "plain_count": 2500, "epsilons": [0.05],
                    "translations": [1], "one_sided": [{"a": 0, "b": 0, "side": "below"}]}},
        {"kind": "fibers", "id": "fib", "params": {"system": "semicocycle", "k_max": 4, "depth": 16}},
        {"kind": "determine", "id": "det", "params": {"family": "discrete", "size": 9}},
        {"kind": "isolation", "id": "iso", "params": {"count": 40}},
        {"kind": "counterexample", "id": "cex",
         "params": {"scenario": "circle_parabolic", "count": 20, "size": 30}},
        {"kind": "rigidity", "id": "rig", "params": {"system": "rotation-sqrt2", "denominators": 20}},
        {"kind": "catalog", "id": "cat", "params": {}},
    ],
}


def test_criterion_14_determinism():
    """Identical configs and seeds give byte-identical payloads across
    reruns (wall time aside)."""
    r1, c1 = run_config(ACCEPTANCE_BATCH)
    r2, c2 = run_config(ACCEPTANCE_BATCH)
    assert c1 == c2 == 0
    b1 = json.dumps(report_payload(r1), sort_keys=True).encode()
    assert json.dumps(report_payload(r2), sort_keys=True).encode() == b1
    _pass(14, "batch reports byte-identical across reruns")
