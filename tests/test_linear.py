import random
from fractions import Fraction

import pytest

from tamecert.errors import NotStabilized
from tamecert.linear import (
    INF,
    LineLimitMap,
    MatrixSequenceSpec,
    PartialLinearMap,
    affine_catalog_element,
    affine_catalog_limit,
    line_missing,
    matrix_limit,
    partial_compose,
    pinned_by_three,
)


class TestPartialLinearMap:
    def test_zero_domain_is_p_infty(self):
        p = PartialLinearMap.zero_domain(2)
        assert p.apply((1, 1)) == INF
        assert p.apply((0, 0)) == (0, 0)
        assert p.apply(INF) == INF

    def test_line_identity(self):
        q = PartialLinearMap.line_identity((1, 0))
        assert q.apply((3, 0)) == (3, 0)
        assert q.apply((1, 1)) == INF

    def test_linearity_on_domain(self):
        rng = random.Random(0)
        p = PartialLinearMap.from_pairs(
            3, [((1, 0, 0), (2, 1, 0)), ((0, 1, 1), (0, 0, 3))]
        )
        for _ in range(30):
            c1, c2 = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            u = (c1, c2, c2)
            img = p.apply(u)
            expect = tuple(c1 * a + c2 * b for a, b in zip((2, 1, 0), (0, 0, 3)))
            assert img == expect


class TestMatrixLimit:
    def test_scalar_family_collapses_to_origin(self):
        p = matrix_limit(MatrixSequenceSpec("scalar", 2), stages=8)
        assert p.domain_dim == 0
        assert p.apply((1, 0)) == INF

    def test_diagonal_one_n_gives_axis_identity(self):
        spec = MatrixSequenceSpec("diagonal", 2, entries=[lambda s: 1.0, lambda s: float(s)])
        q = matrix_limit(spec, stages=12)
        assert q.apply((5, 0)) == (5, 0)
        assert q.apply((0, 1)) == INF

    def test_diagonal_unstable_raises(self):
        spec = MatrixSequenceSpec(
            "diagonal", 1, entries=[lambda s: (-1.0) ** s * (1 + 1.0 / (1 + s))]
        )
        with pytest.raises(NotStabilized):
            matrix_limit(spec, stages=10)


class TestCompose:
    def test_identity_neutral(self):
        spec = MatrixSequenceSpec("diagonal", 2, entries=[lambda s: float(s), lambda s: 2.0**-s])
        p = matrix_limit(spec)
        assert p.apply((1, 0)) == INF and p.apply((0, 7)) == (0, 0)
        ident = PartialLinearMap.diagonal([Fraction(1), Fraction(1)])
        assert partial_compose(p, ident) == p

    def test_qL_after_p_infty_zero_domain(self):
        q = PartialLinearMap.line_identity((1, 0))
        p_inf = PartialLinearMap.zero_domain(2)
        assert partial_compose(q, p_inf).domain_dim == 0
        assert partial_compose(p_inf, q).domain_dim == 0

    def test_idempotents(self):
        p_inf = PartialLinearMap.zero_domain(3)
        assert partial_compose(p_inf, p_inf) == p_inf
        for direction in ((1, 0, 0), (1, 2, 3)):
            q = PartialLinearMap.line_identity(direction)
            assert partial_compose(q, q) == q

    @staticmethod
    def _axis_seq(rng, kind):
        if kind == "conv":
            c = rng.randint(1, 5)
            return lambda s, c=c: c + 2.0**-s
        if kind == "div":
            r = rng.randint(1, 3)
            return lambda s, r=r: r * float(s)
        c = rng.randint(1, 4)
        return lambda s, c=c: c * 2.0**-s

    def _compatible_family_pair(self, rng, dim=3):
        """Axis kinds for (p, q) in p-after-q order.  A divergent q-axis under
        a finite p-axis breaks the limit interchange (the product can still
        converge while the composition escapes), so that combination is the
        one pairing excluded from the premise."""
        sa, sb = [], []
        for _ in range(dim):
            kb = rng.choice(["conv", "div", "zero"])
            ka = rng.choice(["conv", "div", "zero"]) if kb != "div" else "div"
            sa.append(self._axis_seq(rng, ka))
            sb.append(self._axis_seq(rng, kb))
        return sa, sb

    def test_compose_matches_limit_of_products(self):
        rng = random.Random(5)
        for _ in range(20):
            sa, sb = self._compatible_family_pair(rng)
            pa = matrix_limit(MatrixSequenceSpec("diagonal", 3, entries=sa), stages=30)
            pb = matrix_limit(MatrixSequenceSpec("diagonal", 3, entries=sb), stages=30)
            prod = [lambda s, f=f, g=g: f(s) * g(s) for f, g in zip(sa, sb)]
            pprod = matrix_limit(MatrixSequenceSpec("diagonal", 3, entries=prod), stages=40)
            comp = partial_compose(pa, pb)
            assert comp.domain_dim == pprod.domain_dim
            for axis in range(3):
                e = tuple(Fraction(int(axis == j)) for j in range(3))
                a, b = comp.apply(e), pprod.apply(e)
                if a == INF or b == INF:
                    assert a == b
                else:
                    assert all(abs(float(x - y)) < 1e-8 for x, y in zip(a, b))

    def test_associative_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(50):
            maps = []
            for _ in range(3):
                vals = [
                    rng.choice([None, Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)])
                    for _ in range(3)
                ]
                maps.append(PartialLinearMap.diagonal(vals))
            a, b, c = maps
            assert partial_compose(partial_compose(a, b), c) == partial_compose(
                a, partial_compose(b, c)
            )


class TestLineMissing:
    def test_avoids_all_points(self):
        rng = random.Random(3)
        for _ in range(30):
            pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(12)]
            pts = [p for p in pts if p != (0, 0)] or [(2, 1)]
            d = line_missing(pts)
            for x, y in pts:
                # not parallel: determinant nonzero
                assert d[0] * Fraction(y) - d[1] * Fraction(x) != 0


class TestAffineCatalog:
    def test_jump_element(self):
        m = affine_catalog_limit("jump", r=0.25, s=1.5)
        assert m.kind == "three_region"
        assert m.evaluate(2.0) == "+inf" and m.evaluate(1.0) == "-inf"
        assert m.evaluate(1.5) == pytest.approx(0.25, abs=1e-6)

    def test_constant_element(self):
        m = affine_catalog_limit("const", s=-0.75)
        assert m.kind == "constant"
        assert m.const == pytest.approx(-0.75, abs=1e-6)

    def test_constant_infinity_as_s_limit_of_jumps(self):
        # moving the jump to -infinity leaves the constant +inf map
        values = [affine_catalog_limit("jump", r=0.0, s=s).evaluate(0.0) for s in (-1.0, -2.0, -4.0)]
        assert values == ["+inf"] * 3
        m = affine_catalog_limit("const_inf", sign=1)
        assert m.const == "+inf"

    def test_jump_inf_elements(self):
        for sign, tag in ((1, "+inf"), (-1, "-inf")):
            m = affine_catalog_limit("jump_inf", s=0.5, sign=sign)
            assert m.kind == "three_region"
            assert abs(m.jump - 0.5) < 1e-9
            assert m.at_jump == tag

    def test_catalog_pinned_by_three_points(self):
        grid = [-1.0, 0.0, 1.0]
        catalog = (
            [affine_catalog_element("jump", r=r, s=s) for r in grid for s in grid]
            + [affine_catalog_element("const", s=s) for s in grid]
            + [affine_catalog_element("const_inf", sign=1), affine_catalog_element("const_inf", sign=-1)]
            + [affine_catalog_element("jump_inf", s=s, sign=sg) for s in grid for sg in (1, -1)]
        )
        probes = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        for m in catalog:
            if m.kind == "three_region":
                assert pinned_by_three(m, catalog, probes)
