"""Partial linear endomorphisms of R^n u {inf} as limits of matrix sequences.

A limit of invertible matrices inside the one-point compactification is
finite exactly on a linear subspace; the element is the pair (domain
subspace, linear map on it), with everything else and infinity itself sent
to infinity.  Maps are stored with exact rational basis/image vectors so
composition and membership are decided by Gaussian elimination, not floats;
floats enter only in the numeric limit detection.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NotStabilized

INF = "inf"

Vec = tuple[Fraction, ...]


def _vec(v) -> Vec:
    return tuple(Fraction(x) for x in v)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals (in place copy)."""
    m = [row[:] for row in rows]
    lead = 0
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    for r in range(nrows):
        if lead >= ncols:
            break
        i = r
        while m[i][lead] == 0:
            i += 1
            if i == nrows:
                i = r
                lead += 1
                if lead == ncols:
                    return [row for row in m if any(row)]
        m[i], m[r] = m[r], m[i]
        piv = m[r][lead]
        m[r] = [x / piv for x in m[r]]
        for j in range(nrows):
            if j != r and m[j][lead] != 0:
                f = m[j][lead]
                m[j] = [a - f * b for a, b in zip(m[j], m[r])]
        lead += 1
    return [row for row in m if any(row)]


def _kernel(rows: list[list[Fraction]], ncols: int) -> list[Vec]:
    """Basis of {c : M c = 0} for the matrix with the given rows."""
    red = _rref(rows) if rows else []
    pivots = []
    for row in red:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, pj in zip(red, pivots):
            v[pj] = -row[f]
        basis.append(tuple(v))
    return basis


def solve_in_span(basis: Sequence[Vec], v: Vec) -> list[Fraction] | None:
    """Coefficients expressing v in the span of basis, or None."""
    if not any(v):
        return [Fraction(0)] * len(basis)
    if not basis:
        return None
    n = len(v)
    rows = [[basis[i][r] for i in range(len(basis))] + [v[r]] for r in range(n)]
    red = _rref(rows)
    coeffs = [Fraction(0)] * len(basis)
    for row in red:
        piv = next((j for j, x in enumerate(row[:-1]) if x != 0), None)
        if piv is None:
            if row[-1] != 0:
                return None
            continue
        if any(row[piv + 1 : -1]):
            # free combination; take the particular solution with zeros
            pass
        coeffs[piv] = row[-1]
    # verify (guards the under-determined branch)
    for r in range(n):
        if sum(c * basis[i][r] for i, c in enumerate(coeffs)) != v[r]:
            return None
    return coeffs


def annihilator(basis: Sequence[Vec], dim: int) -> list[Vec]:
    """Basis of the vectors orthogonal to every basis vector."""
    rows = [list(b) for b in basis]
    return _kernel(rows, dim)


class PartialLinearMap:
    """Finite exactly on span(basis); basis[i] maps to images[i], rest to inf."""

    __slots__ = ("dim", "basis", "images")

    def __init__(self, dim: int, basis: tuple[Vec, ...], images: tuple[Vec, ...]):
        if len(basis) != len(images):
            raise ValueError("basis/images length mismatch")
        for b in basis + images:
            if len(b) != dim:
                raise ValueError("vector dimension mismatch")
        self.dim = dim
        self.basis = basis
        self.images = images

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim, self.basis, self.images) == (other.dim, other.basis, other.images)
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, self.basis, self.images))

    @classmethod
    def from_pairs(cls, dim, pairs):
        bs, ims = zip(*pairs) if pairs else ((), ())
        return cls(dim, tuple(_vec(b) for b in bs), tuple(_vec(i) for i in ims))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | None]) -> "PartialLinearMap":
        """Axis i in the domain iff values[i] is not None (the multiplier)."""
        dim = len(values)
        pairs = []
        for i, v in enumerate(values):
            if v is not None:
                e = [Fraction(0)] * dim
                e[i] = Fraction(1)
                img = [Fraction(0)] * dim
                img[i] = Fraction(v)
                pairs.append((tuple(e), tuple(img)))
        return cls.from_pairs(dim, pairs)

    @classmethod
    def zero_domain(cls, dim: int) -> "PartialLinearMap":
        """Everything except the origin goes to infinity."""
        return cls(dim, (), ())

    @classmethod
    def line_identity(cls, direction) -> "PartialLinearMap":
        d = _vec(direction)
        return cls(len(d), (d,), (d,))

    @property
    def domain_dim(self) -> int:
        return len(self.basis)

    def apply(self, v):
        if v == INF:
            return INF
        vv = _vec(v)
        coeffs = solve_in_span(self.basis, vv)
        if coeffs is None:
            return INF
        out = [Fraction(0)] * self.dim
        for c, img in zip(coeffs, self.images):
            if c:
                out = [o + c * x for o, x in zip(out, img)]
        return tuple(out)


def partial_compose(p: PartialLinearMap, q: PartialLinearMap) -> PartialLinearMap:
    """p after q: domain {v in dom(q) : q(v) in dom(p)} (possibly zero)."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if not q.basis:
        return PartialLinearMap.zero_domain(p.dim)
    ann = annihilator(p.basis, p.dim)
    if ann:
        rows = [[sum(a[r] * img[r] for r in range(p.dim)) for img in q.images] for a in ann]
        coeff_kernel = _kernel(rows, len(q.basis))
    else:
        coeff_kernel = [
            tuple(Fraction(1 if i == j else 0) for i in range(len(q.basis)))
            for j in range(len(q.basis))
        ]
    pairs = []
    for k in coeff_kernel:
        vec = [Fraction(0)] * q.dim
        for c, b in zip(k, q.basis):
            vec = [x + c * y for x, y in zip(vec, b)]
        img = p.apply(q.apply(tuple(vec)))
        if img == INF:
            raise AssertionError("kernel construction violated the domain condition")
        pairs.append((tuple(vec), img))
    return PartialLinearMap.from_pairs(p.dim, pairs)


# ---------------------------------------------------------------------------
# matrix-sequence limits
# ---------------------------------------------------------------------------


class MatrixSequenceSpec:
    """kind: 'scalar' (s*I) or 'diagonal' (per-axis callables of the stage)."""

    __slots__ = ("kind", "dim", "entries")

    def __init__(self, kind: str, dim: int, entries: object = None):
        self.kind = kind
        self.dim = dim
        self.entries = entries


DIVERGE_AT = 1e9
TOLERANCE = 1e-9


def matrix_limit(spec: MatrixSequenceSpec, stages: int = 12) -> PartialLinearMap:
    """Limit of the matrix sequence inside the one-point compactification.

    The scalar family collapses to the origin.  A diagonal axis diverges,
    or converges to its last stage value when two consecutive stages agree
    within ``TOLERANCE``; anything else is ``NotStabilized``.
    """
    if stages < 2:
        raise ValueError("need at least two stages")
    if spec.kind == "scalar":
        return PartialLinearMap.zero_domain(spec.dim)
    if spec.kind == "diagonal":
        vals: list[Fraction | None] = []
        for f in spec.entries:
            hist = [float(f(2**j)) for j in range(max(4, stages))]
            if abs(hist[-1]) > DIVERGE_AT or (
                abs(hist[-1]) > 10 * abs(hist[0]) + 1 and abs(hist[-1]) > abs(hist[-2]) > abs(hist[-3])
            ):
                vals.append(None)
            elif abs(hist[-1] - hist[-2]) <= TOLERANCE * (1 + abs(hist[-1])):
                vals.append(Fraction(hist[-1]))
            else:
                raise NotStabilized(f"diagonal entry neither converges nor diverges: {hist[-3:]}")
        return PartialLinearMap.diagonal(vals)
    raise ValueError(f"unknown kind {spec.kind!r}")


def line_missing(points: Sequence[tuple]) -> Vec:
    """Direction of a line through the origin avoiding all given points."""
    slopes = set()
    for x, y in points:
        if x != 0:
            slopes.add(Fraction(y) / Fraction(x))
    s = 0
    while Fraction(s) in slopes:
        s += 1
    return (Fraction(1), Fraction(s))


# ---------------------------------------------------------------------------
# the compactified affine line and its limit catalog
# ---------------------------------------------------------------------------

PLUS_INF = "+inf"
MINUS_INF = "-inf"


class LineLimitMap:
    """Limit of order-preserving affine maps on the two-point compactified line.

    kind 'three_region': +inf above the jump s, -inf below, ``at_jump`` at it
    (a finite value, '+inf', or '-inf').  kind 'constant': the constant map.
    """

    __slots__ = ("kind", "jump", "at_jump", "const")

    def __init__(self, kind: str, jump: float | None = None, at_jump: object = None,
                 const: object = None):
        self.kind = kind
        self.jump = jump
        self.at_jump = at_jump
        self.const = const

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.kind, self.jump, self.at_jump, self.const)
                    == (other.kind, other.jump, other.at_jump, other.const))
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.jump, self.at_jump, self.const))

    def evaluate(self, t):
        if self.kind == "constant":
            return self.const
        if t == PLUS_INF:
            return PLUS_INF
        if t == MINUS_INF:
            return MINUS_INF
        if t > self.jump:
            return PLUS_INF
        if t < self.jump:
            return MINUS_INF
        return self.at_jump

    def agrees_at(self, other: "LineLimitMap", t) -> bool:
        a, b = self.evaluate(t), other.evaluate(t)
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return abs(a - b) <= 1e-9


def affine_catalog_element(kind: str, r=None, s=None, sign=None) -> LineLimitMap:
    """Catalog members: 'jump' (r at s), 'const' (value s), 'const_inf'
    (sign), 'jump_inf' (sign at s)."""
    if kind == "jump":
        return LineLimitMap("three_region", jump=float(s), at_jump=float(r))
    if kind == "const":
        return LineLimitMap("constant", const=float(s))
    if kind == "const_inf":
        return LineLimitMap("constant", const=PLUS_INF if sign > 0 else MINUS_INF)
    if kind == "jump_inf":
        return LineLimitMap("three_region", jump=float(s), at_jump=PLUS_INF if sign > 0 else MINUS_INF)
    raise ValueError(f"unknown catalog kind {kind!r}")


CATALOG_STAGES = 40  # the stage each catalog limit is read at; the jump bisection reads 60


def affine_catalog_limit(kind: str, r=None, s=None, sign=None) -> LineLimitMap:
    """Compute the requested catalog element as an actual limit of affine maps
    t -> a_n t + b_n, classified from the pointwise limits on a probe grid."""
    if kind == "jump":
        seqs = lambda n: (2.0**n, -(2.0**n) * s + r + 2.0**-n)  # noqa: E731
        probes = [s - 1.0, s, s + 1.0]
    elif kind == "const":
        seqs = lambda n: (2.0**-n, s + 2.0**-n)  # noqa: E731
        probes = [-1.0, 0.0, 1.0, s]
    elif kind == "const_inf":
        seqs = lambda n: (2.0**n, sign * (4.0**n))  # noqa: E731
        probes = [-1.0, 0.0, 1.0]
    elif kind == "jump_inf":
        seqs = lambda n: (4.0**n, -(4.0**n) * s + sign * (2.0**n))  # noqa: E731
        probes = [s - 1.0, s, s + 1.0]
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")

    def pointwise_limit(t, depth=CATALOG_STAGES):
        v_prev, v_last = None, None
        for n in (depth - 1, depth):
            a, b = seqs(n)
            v_prev, v_last = v_last, a * t + b
        if v_last > DIVERGE_AT and v_last >= v_prev:
            return PLUS_INF
        if v_last < -DIVERGE_AT and v_last <= v_prev:
            return MINUS_INF
        if abs(v_last - v_prev) <= max(TOLERANCE, 1e-6 * (1 + abs(v_last))):
            return v_last
        raise NotStabilized(f"affine probe at t={t} undecided: {v_prev} -> {v_last}")

    limits = [pointwise_limit(t) for t in probes]
    finite = [(t, v) for t, v in zip(probes, limits) if not isinstance(v, str)]
    if not any(isinstance(v, str) for v in limits):
        if max(v for _, v in finite) - min(v for _, v in finite) <= 1e-6:
            return LineLimitMap("constant", const=limits[-1])
        raise NotStabilized("finite limits do not cluster; not a catalog element")
    if all(v == PLUS_INF for v in limits):
        return LineLimitMap("constant", const=PLUS_INF)
    if all(v == MINUS_INF for v in limits):
        return LineLimitMap("constant", const=MINUS_INF)
    if len(finite) == 1:
        return LineLimitMap("three_region", jump=finite[0][0], at_jump=finite[0][1])
    if not finite:
        # bisect the sign flip; a finite midpoint value pins the jump directly
        lo = max(t for t, v in zip(probes, limits) if v == MINUS_INF)
        hi = min(t for t, v in zip(probes, limits) if v == PLUS_INF)
        for _ in range(64):
            mid = (lo + hi) / 2
            v = pointwise_limit(mid, depth=60)
            if v == PLUS_INF:
                hi = mid
            elif v == MINUS_INF:
                lo = mid
            else:
                return LineLimitMap("three_region", jump=mid, at_jump=v)
            if hi - lo <= 1e-12 * (1 + abs(hi)):
                break
        jump = (lo + hi) / 2
        # at-jump sign: scan depths for a stable diverging value whose
        # magnitude dominates the location error
        signs = []
        for depth in range(16, 61):
            a, b = seqs(depth)
            v = a * jump + b
            if abs(v) > DIVERGE_AT:
                signs.append(v > 0)
                if len(signs) >= 3 and signs[-1] == signs[-2] == signs[-3]:
                    return LineLimitMap(
                        "three_region",
                        jump=jump,
                        at_jump=PLUS_INF if signs[-1] else MINUS_INF,
                    )
        raise NotStabilized("at-jump sign did not settle")
    raise NotStabilized("could not classify the affine limit")


def pinned_by_three(subject: LineLimitMap, catalog: Sequence[LineLimitMap], probes) -> bool:
    """True when some 3 probe points distinguish the subject from every other
    catalog member."""
    import itertools as it

    others = [m for m in catalog if m != subject]
    for trio in it.combinations(probes, 3):
        if all(any(not subject.agrees_at(m, t) for t in trio) for m in others):
            return True
    return False
