"""Partial linear endomorphisms of R^n u {inf} as limits of matrix sequences.

A limit of invertible matrices inside the one-point compactification is
finite exactly on a linear subspace; the element is the pair (domain
subspace, linear map on it), with everything else and infinity itself sent
to infinity.  Maps are stored with exact rational basis/image vectors so
composition and membership are decided by Gaussian elimination, not floats;
floats enter only in the numeric limit detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import AmbiguousSubspace, NotStabilized

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


@dataclass(frozen=True)
class PartialLinearMap:
    """Finite exactly on span(basis); basis[i] maps to images[i], rest to inf."""

    dim: int
    basis: tuple[Vec, ...]
    images: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.images):
            raise ValueError("basis/images length mismatch")
        for b in self.basis + self.images:
            if len(b) != self.dim:
                raise ValueError("vector dimension mismatch")

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

    def orthonormal_domain(self) -> np.ndarray:
        """Float orthonormal basis of the domain (QR), for reporting."""
        if not self.basis:
            return np.zeros((0, self.dim))
        q, _ = np.linalg.qr(np.array(self.basis, dtype=float).T)
        return q.T[: self.domain_dim]

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


@dataclass(frozen=True)
class MatrixSequenceSpec:
    """kind: 'scalar' (s*I), 'diagonal' (per-axis callables of the stage),
    'powers' (g**s), or 'explicit' (a list of matrices)."""

    kind: str
    dim: int
    entries: object = None

    def stage(self, s: int) -> np.ndarray:
        if self.kind == "scalar":
            return float(s) * np.eye(self.dim)
        if self.kind == "diagonal":
            return np.diag([float(f(s)) for f in self.entries])
        if self.kind == "powers":
            g = np.array(self.entries, dtype=float)
            return np.linalg.matrix_power(g, s)
        if self.kind == "explicit":
            return np.array(self.entries[min(s, len(self.entries) - 1)], dtype=float)
        raise ValueError(f"unknown kind {self.kind!r}")


SIGMA_BOUNDED = 1e-6
SIGMA_GUARD = 1e-4
DIVERGE_AT = 1e9


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    ni, di = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if ni * ni == x.numerator and di * di == x.denominator:
        return Fraction(ni, di)
    return None


def _exact_power_limit(g: list[list[Fraction]]) -> PartialLinearMap | None:
    """Limit of g^s for rational g with rational eigenstructure (2x2 or diagonal)."""
    dim = len(g)
    if all(g[i][j] == 0 for i in range(dim) for j in range(dim) if i != j):
        vals = []
        for i in range(dim):
            lam = g[i][i]
            if abs(lam) < 1:
                vals.append(Fraction(0))
            elif lam == 1:
                vals.append(Fraction(1))
            else:
                vals.append(None)
        return PartialLinearMap.diagonal(vals)
    if dim != 2:
        return None
    a, b, c, d = g[0][0], g[0][1], g[1][0], g[1][1]
    disc = (a + d) ** 2 - 4 * (a * d - b * c)
    root = _rational_sqrt(disc)
    if root is None:
        return None
    lams = [((a + d) + root) / 2, ((a + d) - root) / 2]
    if abs(lams[0]) == abs(lams[1]) and lams[0] != lams[1]:
        return None
    pairs = []
    for lam in sorted(set(lams), key=lambda x: abs(x)):
        # eigenvector of [[a-lam, b], [c, d-lam]]
        if b != 0 or a - lam != 0:
            v = (b, lam - a) if b != 0 else (Fraction(0), Fraction(1))
        else:
            v = (Fraction(1), Fraction(0))
        if c != 0 and (c * v[0] + (d - lam) * v[1]) != 0:
            v = (lam - d, c)
        if abs(lam) < 1:
            pairs.append((v, (Fraction(0), Fraction(0))))
        elif lam == 1:
            pairs.append((v, v))
    return PartialLinearMap.from_pairs(2, pairs)


def matrix_limit(
    spec: MatrixSequenceSpec, stages: int = 12, tolerance: float = 1e-9
) -> PartialLinearMap:
    """Limit of the matrix sequence inside the one-point compactification.

    Closed-form kinds (scalar, diagonal, rational-eigenstructure powers) are
    resolved exactly.  Explicit sequences go through the late-stage singular
    value split: relative singular values below 1e-6 mark bounded directions,
    the band [1e-6, 1e-4] is ambiguous, and the restriction to the candidate
    subspace must be Cauchy within the tolerance.
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
            elif abs(hist[-1] - hist[-2]) <= tolerance * (1 + abs(hist[-1])):
                vals.append(Fraction(hist[-1]))
            else:
                raise NotStabilized(f"diagonal entry neither converges nor diverges: {hist[-3:]}")
        return PartialLinearMap.diagonal(vals)
    if spec.kind == "powers":
        g = [[Fraction(x) for x in row] for row in spec.entries]
        exact = _exact_power_limit(g)
        if exact is not None:
            return exact
        mats = [np.linalg.matrix_power(np.array(spec.entries, dtype=float), 2**j) for j in range(stages)]
        return _svd_limit(mats, spec.dim, tolerance)
    if spec.kind == "explicit":
        mats = [np.array(m, dtype=float) for m in spec.entries]
        if len(mats) < 2:
            raise ValueError("explicit sequence needs at least two matrices")
        return _svd_limit(mats, spec.dim, tolerance)
    raise ValueError(f"unknown kind {spec.kind!r}")


def _svd_limit(mats: list[np.ndarray], dim: int, tolerance: float) -> PartialLinearMap:
    last, prev = mats[-1], mats[-2]
    if np.max(np.abs(last - prev)) <= tolerance * (1 + np.max(np.abs(last))):
        # the whole sequence converges: the limit is finite everywhere
        pairs = []
        for i in range(dim):
            e = [Fraction(0)] * dim
            e[i] = Fraction(1)
            pairs.append((tuple(e), tuple(Fraction(x) for x in last[:, i])))
        return PartialLinearMap.from_pairs(dim, pairs)
    _u, sig, vt = np.linalg.svd(last)
    lead = sig[0] if sig[0] > 0 else 1.0
    rel = sig / lead
    if np.any((rel > SIGMA_BOUNDED) & (rel < SIGMA_GUARD)):
        raise AmbiguousSubspace(
            f"relative singular values {rel} inside the guard band "
            f"[{SIGMA_BOUNDED}, {SIGMA_GUARD}]"
        )
    bounded = [vt[i] for i in range(dim) if rel[i] <= SIGMA_BOUNDED]
    pairs = []
    for v in bounded:
        iv_last, iv_prev = last @ v, prev @ v
        if np.max(np.abs(iv_last - iv_prev)) > tolerance * (1 + np.max(np.abs(iv_last))):
            raise NotStabilized("restriction to the candidate subspace is not Cauchy")
        pairs.append((tuple(Fraction(x) for x in v), tuple(Fraction(x) for x in iv_last)))
    return PartialLinearMap.from_pairs(dim, pairs)


# ---------------------------------------------------------------------------
# the projective line under matrix powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """A point of the projective line: nonzero (x, y) up to scale, stored in
    the canonical form with the first nonzero coordinate equal to 1."""

    x: Fraction
    y: Fraction

    @classmethod
    def make(cls, x, y) -> "Direction":
        x, y = Fraction(x), Fraction(y)
        if x != 0:
            return cls(Fraction(1), y / x)
        if y == 0:
            raise ValueError("the zero vector spans no direction")
        return cls(Fraction(0), Fraction(1))

    def vector(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


def projective_action(g, d: Direction) -> Direction:
    gx = g[0][0] * d.x + g[0][1] * d.y
    gy = g[1][0] * d.x + g[1][1] * d.y
    return Direction.make(gx, gy)


def projective_power_element(g, directions: Sequence[Direction], stages: int = 40, tol: float = 1e-9):
    """Images of sampled directions under the limit of the projective action
    of g^n: everything falls onto the top eigendirection except the bottom
    one, which stays fixed.

    The pair comes from the exact eigen analysis (rational eigenvalues with
    distinct moduli required); every sampled image is then cross-checked by
    float power iteration.
    """
    g = [[Fraction(x) for x in row] for row in g]
    a, b, c, d = g[0][0], g[0][1], g[1][0], g[1][1]
    disc = (a + d) ** 2 - 4 * (a * d - b * c)
    root = _rational_sqrt(disc)
    if root is None:
        raise NotStabilized("matrix has no rational eigenstructure; no exact route")
    lams = sorted({((a + d) + root) / 2, ((a + d) - root) / 2}, key=abs)
    if len(lams) != 2 or abs(lams[0]) == abs(lams[1]):
        raise NotStabilized("eigenvalue moduli coincide; powers do not converge projectively")

    def eigvec(lam):
        if b != 0:
            return Direction.make(b, lam - a)
        if c != 0:
            return Direction.make(lam - d, c)
        return Direction.make(1, 0) if lam == a else Direction.make(0, 1)

    repulsing = eigvec(lams[0])  # bottom modulus
    attracting = eigvec(lams[1])  # top modulus
    images = [repulsing if v == repulsing else attracting for v in directions]

    # the repulsing direction repels forward iteration (float noise along the
    # top eigendirection doubles each step), so its fixedness is checked
    # exactly; everything else is cross-checked by float power iteration
    if projective_action(g, repulsing) != repulsing:
        raise NotStabilized("bottom eigendirection is not projectively fixed")
    gm = np.array([[float(x) for x in row] for row in g])
    for v, im in zip(directions, images):
        if v == repulsing:
            continue
        w = np.array([float(v.x), float(v.y)])
        for _ in range(stages):
            w = gm @ w
            n = np.linalg.norm(w)
            if n == 0:
                raise NotStabilized("direction collapsed numerically")
            w /= n
        expect = np.array([float(im.x), float(im.y)])
        expect /= np.linalg.norm(expect)
        if min(np.linalg.norm(w - expect), np.linalg.norm(w + expect)) > tol:
            raise NotStabilized(f"power iteration disagrees with the eigen route at {v}")
    return images, attracting, repulsing


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


@dataclass(frozen=True)
class LineLimitMap:
    """Limit of order-preserving affine maps on the two-point compactified line.

    kind 'three_region': +inf above the jump s, -inf below, ``at_jump`` at it
    (a finite value, '+inf', or '-inf').  kind 'constant': the constant map.
    """

    kind: str
    jump: float | None = None
    at_jump: object = None
    const: object = None

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


def affine_catalog_limit(
    kind: str, r=None, s=None, sign=None, stages: int = 40, tolerance: float = 1e-9
) -> LineLimitMap:
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

    def pointwise_limit(t, depth=stages):
        v_prev, v_last = None, None
        for n in (depth - 1, depth):
            a, b = seqs(n)
            v_prev, v_last = v_last, a * t + b
        if v_last > DIVERGE_AT and v_last >= v_prev:
            return PLUS_INF
        if v_last < -DIVERGE_AT and v_last <= v_prev:
            return MINUS_INF
        if abs(v_last - v_prev) <= max(tolerance, 1e-6 * (1 + abs(v_last))):
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
            v = pointwise_limit(mid, depth=max(stages, 60))
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
