"""Ternary quadratic forms over Q.

Evaluation, the associated bilinear form, the reflection operator
psi(x, y) = B(x, y) x - q(x) y, kernel computation, detection of rational
zeros (Legendre's local conditions plus a bounded witness search), and
reduction to one of three canonical shapes:

    parabola        x0*x2 - x1**2
    pair-of-lines   x0**2 - b*x1**2            (b > 1 square-free)
    anisotropic     x0**2 - b*x1**2 - c*x2**2  (b, c > 1 square-free)

All arithmetic is exact (ints and Fractions).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

from .arith import is_qr_mod_squarefree, squarefree_decompose, squarefree_scale, vec_gcd

Vec3 = tuple[int, int, int]
RatVec3 = tuple[Fraction, Fraction, Fraction]
Mat3 = tuple[RatVec3, RatVec3, RatVec3]  # rows


class FormRejected(ValueError):
    """The form falls outside the class handled by the reduction pipeline."""


class ReducibleFormError(FormRejected):
    pass


class DegenerateFormError(FormRejected):
    pass


class DefiniteFormError(FormRejected):
    pass


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------

def mat_from_columns(cols) -> Mat3:
    c0, c1, c2 = [tuple(Fraction(x) for x in c) for c in cols]
    return tuple((c0[i], c1[i], c2[i]) for i in range(3))  # type: ignore[return-value]


def mat_columns(T: Mat3) -> list[RatVec3]:
    return [tuple(T[i][j] for i in range(3)) for j in range(3)]  # type: ignore[misc]


def mat_det(T) -> Fraction:
    a, b, c = T
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def det3(u, v, w):
    return mat_det((u, v, w))


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def max_norm(v) -> int:
    return max(map(abs, v))


def primitive(v) -> Vec3:
    """Primitive integer vector proportional to v, first non-zero coordinate positive."""
    fracs = [Fraction(x) for x in v]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = vec_gcd(*ints)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)  # type: ignore[return-value]


def _nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Nullspace basis of a matrix with Fraction entries (row count arbitrary, 3 cols)."""
    m = [row[:] for row in rows]
    ncols = 3
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TernaryQuadraticForm:
    """a00*x0^2 + a11*x1^2 + a22*x2^2 + a01*x0*x1 + a02*x0*x2 + a12*x1*x2."""

    a00: int
    a11: int
    a22: int
    a01: int = 0
    a02: int = 0
    a12: int = 0

    def __post_init__(self) -> None:
        if not any(self.coeffs()):
            raise ValueError("identically zero form")

    def coeffs(self) -> tuple[int, int, int, int, int, int]:
        return (self.a00, self.a11, self.a22, self.a01, self.a02, self.a12)

    def __call__(self, x):
        """q(x); each diagonal term squares its coordinate before scaling it,
        so CPython takes its faster squaring path for x_j * x_j."""
        x0, x1, x2 = x
        return (
            self.a00 * (x0 * x0)
            + self.a11 * (x1 * x1)
            + self.a22 * (x2 * x2)
            + self.a01 * x0 * x1
            + self.a02 * x0 * x2
            + self.a12 * x1 * x2
        )

    def bilinear(self, x, y):
        """B(x, y), symmetric, with B(x, x) = 2*q(x).

        Each coefficient multiplies into its own products, left to right, so a
        zero coefficient turns them into products with 0 and costs O(1).
        """
        x0, x1, x2 = x
        y0, y1, y2 = y
        return (
            2 * self.a00 * x0 * y0
            + 2 * self.a11 * x1 * y1
            + 2 * self.a22 * x2 * y2
            + self.a01 * x0 * y1 + self.a01 * x1 * y0
            + self.a02 * x0 * y2 + self.a02 * x2 * y0
            + self.a12 * x1 * y2 + self.a12 * x2 * y1
        )

    def gram(self) -> list[list[int]]:
        """Integer matrix of the bilinear form."""
        return [
            [2 * self.a00, self.a01, self.a02],
            [self.a01, 2 * self.a11, self.a12],
            [self.a02, self.a12, 2 * self.a22],
        ]

    @cached_property
    def gram_det(self) -> int:
        """det of `gram()`, computed once per form."""
        return mat_det(self.gram())

    def transformed_coeffs(self, T: Mat3) -> tuple[Fraction, ...]:
        """Coefficients of q(T x) in the same (a00, a11, a22, a01, a02, a12) order."""
        c = mat_columns(T)
        q = self
        return (
            Fraction(q(c[0])),
            Fraction(q(c[1])),
            Fraction(q(c[2])),
            Fraction(q.bilinear(c[0], c[1])),
            Fraction(q.bilinear(c[0], c[2])),
            Fraction(q.bilinear(c[1], c[2])),
        )

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        keys = ("a00", "a11", "a22", "a01", "a02", "a12")
        return json.dumps({k: str(v) for k, v in zip(keys, self.coeffs())}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TernaryQuadraticForm":
        obj = json.loads(text)
        keys = ("a00", "a11", "a22", "a01", "a02", "a12")
        return TernaryQuadraticForm(*(int(obj.get(k, "0")) for k in keys))


def psi(phi: TernaryQuadraticForm, x, y):
    """B(x, y) x - q(x) y; satisfies q(psi(x,y)) = q(x)^2 q(y) and psi(x, psi(x,y)) = q(x)^2 y."""
    s = phi.bilinear(x, y)
    t = phi(x)
    return tuple(s * a - t * b for a, b in zip(x, y))


def kernel(phi: TernaryQuadraticForm) -> list[Vec3]:
    """Basis of the radical {v : B(v, w) = 0 for all w}, as primitive integer vectors."""
    rows = [[Fraction(x) for x in row] for row in phi.gram()]
    return [primitive(v) for v in _nullspace(rows)]


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def _project_complement(phi: TernaryQuadraticForm, v, space: list) -> list:
    """Orthogonal complement of v (with q(v) != 0) inside span(space)."""
    qv2 = Fraction(phi.bilinear(v, v))  # = 2 q(v)
    projected = []
    for w in space:
        coef = Fraction(phi.bilinear(v, w)) / qv2
        projected.append(tuple(Fraction(a) - coef * Fraction(b) for a, b in zip(w, v)))
    # drop dependent vectors
    out: list = []
    for w in projected:
        if any(x != 0 for x in w):
            if not out:
                out.append(w)
            elif len(out) == 1 and any(x != 0 for x in cross(out[0], w)):
                out.append(w)
    return out


def _pick_anisotropic(phi: TernaryQuadraticForm, space: list):
    for v in space:
        if phi(v) != 0:
            return v
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            s = tuple(Fraction(a) + Fraction(b) for a, b in zip(space[i], space[j]))
            if phi(s) != 0:
                return s
    return None


def diagonalize(phi: TernaryQuadraticForm) -> tuple[list[RatVec3], list[Fraction]]:
    """Orthogonal basis (v0, v1, v2) and the values q(v_i); kernel vectors get value 0."""
    space: list = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    basis: list[RatVec3] = []
    values: list[Fraction] = []
    while space:
        v = _pick_anisotropic(phi, space)
        if v is None:
            # bilinear form vanishes identically on the remaining space
            for w in space:
                basis.append(w)
                values.append(Fraction(0))
            break
        basis.append(v)
        values.append(Fraction(phi(v)))
        space = _project_complement(phi, v, space)
    return basis, values


def is_reducible_over_q(phi: TernaryQuadraticForm) -> bool:
    """Whether the form factors into two rational linear forms."""
    _, values = diagonalize(phi)
    nonzero = [v for v in values if v != 0]
    rank = len(nonzero)
    if rank == 3:
        return False
    if rank <= 1:
        return True  # scalar times the square of one linear form
    ratio = -nonzero[1] / nonzero[0]
    if ratio <= 0:
        return False
    s, f = squarefree_scale(ratio)
    return f == 1


# ---------------------------------------------------------------------------
# rational zeros
# ---------------------------------------------------------------------------

def _legendre_normalize(d: list[int]) -> tuple[list[int], list[int]]:
    """Make square-free pairwise-coprime diagonal coefficients.

    Returns (coeffs, scale) where a solution (x, y, z) of the new equation maps
    to (scale[0]*x, scale[1]*y, scale[2]*z) for the old one.
    """
    coeffs = d[:]
    scale = [1, 1, 1]
    changed = True
    while changed:
        changed = False
        g = vec_gcd(*coeffs)
        if g > 1:
            coeffs = [x // g for x in coeffs]
            changed = True
        for i in range(3):
            for j in range(i + 1, 3):
                g = gcd(coeffs[i], coeffs[j])
                if g > 1:
                    k = 3 - i - j
                    coeffs[i] //= g
                    coeffs[j] //= g
                    coeffs[k] *= g
                    scale[k] *= g
                    changed = True
    return coeffs, scale


def _holzer_search(f: list[int]) -> Vec3 | None:
    """Witness for f0 x^2 + f1 y^2 + f2 z^2 = 0 within the Holzer box."""
    f0, f1, f2 = f
    bx = isqrt(abs(f1 * f2)) + 1
    by = isqrt(abs(f0 * f2)) + 1
    for x in range(bx + 1):
        for y in range(by + 1):
            if x == 0 and y == 0:
                continue
            rest = -(f0 * x * x + f1 * y * y)
            if rest % f2:
                continue
            z2 = rest // f2
            if z2 < 0:
                continue
            z = isqrt(z2)
            if z * z == z2:
                return (x, y, z)
    return None


def rational_zero(phi: TernaryQuadraticForm) -> Vec3 | None:
    """A primitive isotropic integer vector, or None when no rational zero exists.

    Requires phi irreducible over Q.
    """
    ker = kernel(phi)
    if len(ker) >= 2:
        raise DegenerateFormError("form has rank at most 1")
    if len(ker) == 1:
        # the radical line is the unique rational zero of an irreducible degenerate form
        v = ker[0]
        assert phi(v) == 0
        return v

    basis, values = diagonalize(phi)
    assert all(v != 0 for v in values)
    if all(v > 0 for v in values) or all(v < 0 for v in values):
        return None  # definite: no real zero at all

    # clear squares: value_i * s_i^2 = f_i square-free integer
    scales: list[Fraction] = []
    fs: list[int] = []
    for v in values:
        s, f = squarefree_scale(abs(v))
        if v < 0:
            f = -f
        scales.append(s)
        fs.append(f)

    coeffs, descent_scale = _legendre_normalize(fs)
    f0, f1, f2 = coeffs
    if not (
        is_qr_mod_squarefree(-f1 * f2, f0)
        and is_qr_mod_squarefree(-f0 * f2, f1)
        and is_qr_mod_squarefree(-f0 * f1, f2)
    ):
        return None
    witness = _holzer_search(coeffs)
    if witness is None:  # pragma: no cover - Legendre guarantees a witness in the box
        raise AssertionError("local conditions hold but Holzer search found nothing")
    coords = [witness[i] * descent_scale[i] * scales[i] for i in range(3)]
    vec = tuple(
        sum(coords[i] * basis[i][j] for i in range(3)) for j in range(3)
    )
    out = primitive(vec)
    assert phi(out) == 0
    return out


# ---------------------------------------------------------------------------
# canonical reduction
# ---------------------------------------------------------------------------

CASE_PARABOLA = "parabola"
CASE_PAIR_OF_LINES = "pair-of-lines"
CASE_ANISOTROPIC = "anisotropic"

_CANONICAL = {
    CASE_PARABOLA: lambda b, c: (0, -1, 0, 0, 1, 0),
    CASE_PAIR_OF_LINES: lambda b, c: (1, -b, 0, 0, 0, 0),
    CASE_ANISOTROPIC: lambda b, c: (1, -b, -c, 0, 0, 0),
}


@dataclass(frozen=True)
class CanonicalReduction:
    case: str
    T: Mat3
    mu: Fraction
    b: int = 0
    c: int = 0

    def canonical_coeffs(self) -> tuple[int, ...]:
        return _CANONICAL[self.case](self.b, self.c)

    def verify(self, phi: TernaryQuadraticForm) -> bool:
        """Exact polynomial identity mu * (phi o T) == canonical form."""
        got = tuple(self.mu * x for x in phi.transformed_coeffs(self.T))
        return got == tuple(Fraction(x) for x in self.canonical_coeffs())


def _orthogonal_line(phi: TernaryQuadraticForm, u, v) -> RatVec3:
    # B(w, u) = sum_j w_j B(e_j, u); nullspace over w
    rows_t = [
        [Fraction(phi.bilinear(e, u)) for e in _STD],
        [Fraction(phi.bilinear(e, v)) for e in _STD],
    ]
    ns = _nullspace(rows_t)
    assert len(ns) == 1
    return tuple(ns[0])  # type: ignore[return-value]


_STD = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def reduce_form(phi: TernaryQuadraticForm) -> CanonicalReduction:
    """Reduce an irreducible indefinite form to its canonical shape.

    Raises FormRejected subclasses for reducible, definite, or rank <= 1 forms.
    """
    ker = kernel(phi)
    if len(ker) >= 2:
        raise DegenerateFormError("form has rank at most 1")
    if is_reducible_over_q(phi):
        raise ReducibleFormError("form factors over Q")

    if len(ker) == 1:
        # rank 2: candidate pair-of-lines; diagonalize the complement
        basis, values = diagonalize(phi)
        nz = [(v, val) for v, val in zip(basis, values) if val != 0]
        assert len(nz) == 2
        kvec = next(v for v, val in zip(basis, values) if val == 0)
        (v0, r), (v1, s) = nz
        if r * s > 0:
            raise DefiniteFormError("real zero set is a single point")
        s1, b = squarefree_scale(-s / r)
        if b == 1:  # would factor as difference of squares
            raise ReducibleFormError("form factors over Q")
        v1 = tuple(s1 * x for x in v1)
        T = mat_from_columns([v0, v1, kvec])
        red = CanonicalReduction(CASE_PAIR_OF_LINES, T, 1 / r, b=b)
        if not red.verify(phi):  # pragma: no cover
            raise AssertionError("reduction identity failed")
        return red

    # nondegenerate
    basis, values = diagonalize(phi)
    if all(v > 0 for v in values) or all(v < 0 for v in values):
        raise DefiniteFormError("empty real zero set")

    zero = rational_zero(phi)
    if zero is not None:
        # hyperbolic plane through the rational zero
        v0 = zero
        w = next(e for e in _STD if phi.bilinear(v0, e) != 0)
        tcoef = Fraction(phi(w), phi.bilinear(v0, w))
        v2 = tuple(Fraction(a) - tcoef * b for a, b in zip(w, v0))
        assert phi(v2) == 0
        v1 = _orthogonal_line(phi, v0, v2)
        qv1 = Fraction(phi(v1))
        assert qv1 != 0
        scale = -qv1 / Fraction(phi.bilinear(v0, v2))
        v2 = tuple(scale * x for x in v2)
        T = mat_from_columns([v0, v1, v2])
        red = CanonicalReduction(CASE_PARABOLA, T, -1 / qv1)
        if not red.verify(phi):  # pragma: no cover
            raise AssertionError("reduction identity failed")
        return red

    # anisotropic: order so the first diagonal value has the minority sign
    pos = [i for i, v in enumerate(values) if v > 0]
    neg = [i for i, v in enumerate(values) if v < 0]
    first, others = (pos[0], neg) if len(pos) == 1 else (neg[0], pos)
    v0 = basis[first]
    mu = 1 / values[first]
    scaled = []
    bc = []
    for i in others:
        s_i, f_i = squarefree_scale(-mu * values[i])
        scaled.append(tuple(s_i * x for x in basis[i]))
        bc.append(f_i)
    b, c = bc
    assert b > 1 and c > 1, "b or c equal to 1 contradicts absence of rational zeros"
    T = mat_from_columns([v0, scaled[0], scaled[1]])
    red = CanonicalReduction(CASE_ANISOTROPIC, T, mu, b=b, c=c)
    if not red.verify(phi):  # pragma: no cover
        raise AssertionError("reduction identity failed")
    return red
