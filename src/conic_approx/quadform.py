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

from fractions import Fraction
from functools import cached_property
from itertools import islice, product
from math import gcd, isqrt, lcm

from . import arith
from .arith import is_qr_mod_squarefree, squarefree_scale
from .records import FrozenRecord

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


class ReductionIdentityError(RuntimeError):
    """The identity mu * (phi o T) == canonical form failed for the reduction found."""


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
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------

class TernaryQuadraticForm(FrozenRecord):
    """a00*x0^2 + a11*x1^2 + a22*x2^2 + a01*x0*x1 + a02*x0*x2 + a12*x1*x2."""

    __slots__ = ("a00", "a11", "a22", "a01", "a02", "a12", "__dict__")  # __dict__ for gram_det

    def __init__(
        self, a00: int, a11: int, a22: int, a01: int = 0, a02: int = 0, a12: int = 0
    ) -> None:
        if not (a00 or a11 or a22 or a01 or a02 or a12):
            raise ValueError("identically zero form")
        super().__init__(a00, a11, a22, a01, a02, a12)

    def __call__(self, x):
        """q(x), on int or Fraction coordinates.  Each diagonal term squares
        its coordinate before scaling it, with `arith.square`, which takes
        Toom-3 on the construction's big members and CPython's faster squaring
        path for x_j * x_j on everything else."""
        x0, x1, x2 = x
        s0, s1, s2 = arith.square(x0), arith.square(x1), arith.square(x2)
        return (
            self.a00 * s0
            + self.a11 * s1
            + self.a22 * s2
            + self.a01 * x0 * x1
            + self.a02 * x0 * x2
            + self.a12 * x1 * x2
        )

    def bilinear(self, x, y):
        """B(x, y), symmetric, with B(x, x) = 2*q(x), on int or Fraction
        coordinates.

        Each coefficient multiplies into its own products, left to right, so a
        zero coefficient turns them into products with 0 and costs O(1).  The
        products are CPython's: the construction's B(y_i, y_{i-2}) multiplies
        coordinates about 2.6:1 apart in bits, past the 2:1 that `arith.mul`
        splits.
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


def psi(phi: TernaryQuadraticForm, x, y):
    """B(x, y) x - q(x) y; satisfies q(psi(x,y)) = q(x)^2 q(y) and psi(x, psi(x,y)) = q(x)^2 y."""
    s = phi.bilinear(x, y)
    t = phi(x)
    return tuple(s * a - t * b for a, b in zip(x, y))


def kernel(phi: TernaryQuadraticForm) -> list[Vec3]:
    """Basis of the radical {v : B(v, w) = 0 for all w}, as primitive integer
    vectors: the zero-valued vectors of `diagonalize`."""
    return [primitive(v) for v, val in zip(*diagonalize(phi)) if val == 0]


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def _pick_anisotropic(phi: TernaryQuadraticForm, space: list):
    """(v, k) with q(v) != 0: v is space[k], or space[j] + space[k] with j < k,
    so v in place of space[k] spans what space spans.  None when q vanishes
    on all of it."""
    for k, v in enumerate(space):
        if phi(v) != 0:
            return v, k
    for j in range(len(space)):
        for k in range(j + 1, len(space)):
            s = tuple(a + b for a, b in zip(space[j], space[k]))
            if phi(s) != 0:
                return s, k
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
        pick = _pick_anisotropic(phi, space)
        if pick is None:
            # bilinear form vanishes identically on the remaining space
            for w in space:
                basis.append(w)
                values.append(Fraction(0))
            break
        v, k = pick
        basis.append(v)
        values.append(Fraction(phi(v)))
        # the other vectors, projected onto the orthogonal complement of v,
        # span it, and stay independent
        qv2 = Fraction(phi.bilinear(v, v))  # = 2 q(v)
        space = [
            tuple(a - Fraction(phi.bilinear(v, w)) / qv2 * b for a, b in zip(w, v))
            for w in space[:k] + space[k + 1:]
        ]
    return basis, values


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
        g = gcd(*coeffs)
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


def _factorable(v, what: str):
    """v, once its numerator and denominator, which `arith` factors, are found
    below 2^FACTOR_BITS in absolute value; else FormRejected naming v `what`."""
    q = Fraction(v)
    if max(abs(q.numerator), q.denominator) >= 1 << arith.FACTOR_BITS:
        raise FormRejected(
            f"{what} {v} is too large to factor: its numerator and denominator "
            f"must be below 2^{arith.FACTOR_BITS}"
        )
    return v


# Points of a Holzer box searched before the form is refused: 2^21 of them took
# 0.31-0.59 s in 10 runs (2-core x86_64, Python 3.11.7, 150-280 ns a point);
# twice as many could pass a second when the machine is slow.
HOLZER_MAX_POINTS = 1 << 21


def _holzer_search(f: list[int]) -> Vec3 | None:
    """Witness for f0 x^2 + f1 y^2 + f2 z^2 = 0 among the first `HOLZER_MAX_POINTS`
    points of the Holzer box; FormRejected if those hold none and it has more."""
    f0, f1, f2 = f
    bx = isqrt(abs(f1 * f2)) + 1
    by = isqrt(abs(f0 * f2)) + 1
    for x, y in islice(product(range(bx + 1), range(by + 1)), HOLZER_MAX_POINTS):
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
    if (bx + 1) * (by + 1) > HOLZER_MAX_POINTS:
        raise FormRejected(
            f"the Holzer box of the diagonal values ({f0}, {f1}, {f2}) has "
            f"{(bx + 1) * (by + 1)} points; the first {HOLZER_MAX_POINTS} searched hold no zero"
        )
    return None


def rational_zero(phi: TernaryQuadraticForm) -> Vec3 | None:
    """A primitive isotropic integer vector, or None when no rational zero exists.

    Requires phi irreducible over Q.
    """
    return _rational_zero(phi, *diagonalize(phi))


def _rational_zero(phi: TernaryQuadraticForm, basis, values) -> Vec3 | None:
    """`rational_zero` of phi, given `diagonalize(phi)`."""
    radical = [v for v, val in zip(basis, values) if val == 0]
    if len(radical) >= 2:
        raise DegenerateFormError("form has rank at most 1")
    if radical:
        # the radical line is the unique rational zero of an irreducible degenerate form
        v = primitive(radical[0])
        if phi(v) != 0:
            raise AssertionError
        return v

    if all(v > 0 for v in values) or all(v < 0 for v in values):
        return None  # definite: no real zero at all

    # clear squares: value_i * s_i^2 = f_i square-free integer
    scales: list[Fraction] = []
    fs: list[int] = []
    for v in values:
        s, f = squarefree_scale(abs(_factorable(v, "diagonal value")))
        if v < 0:
            f = -f
        scales.append(s)
        fs.append(f)

    coeffs, descent_scale = _legendre_normalize(fs)
    f0, f1, f2 = (_factorable(f, "normalized diagonal value") for f in coeffs)
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
    if phi(out) != 0:
        raise AssertionError
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


class CanonicalReduction(FrozenRecord):
    __slots__ = ("case", "T", "mu", "b", "c")

    def __init__(self, case: str, T: Mat3, mu: Fraction, b: int = 0, c: int = 0) -> None:
        super().__init__(case, T, mu, b, c)

    def canonical_coeffs(self) -> tuple[int, ...]:
        return _CANONICAL[self.case](self.b, self.c)

    def verify(self, phi: TernaryQuadraticForm) -> bool:
        """Exact polynomial identity mu * (phi o T) == canonical form."""
        got = tuple(self.mu * x for x in phi.transformed_coeffs(self.T))
        return got == tuple(Fraction(x) for x in self.canonical_coeffs())


def _orthogonal_line(phi: TernaryQuadraticForm, u, v) -> RatVec3:
    """The line B-orthogonal to u and v, scaled so its last non-zero coordinate is 1."""
    # B(w, x) = sum_j w_j B(e_j, x), so w is orthogonal to the rows G u and G v
    gu, gv = ([phi.bilinear(e, x) for e in _STD] for x in (u, v))
    w = cross(gu, gv)
    last = next(Fraction(x) for x in reversed(w) if x)
    return tuple(x / last for x in w)  # type: ignore[return-value]


_STD = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def reduce_form(phi: TernaryQuadraticForm) -> CanonicalReduction:
    """Reduce an irreducible indefinite form to its canonical shape.

    Raises FormRejected subclasses for reducible, definite, or rank <= 1 forms,
    and ReductionIdentityError if the exact check of the result fails.
    """
    basis, values = diagonalize(phi)
    nz = [(v, val) for v, val in zip(basis, values) if val != 0]
    if len(nz) <= 1:
        raise DegenerateFormError("form has rank at most 1")

    if len(nz) == 2:
        # rank 2: candidate pair-of-lines
        kvec = next(v for v, val in zip(basis, values) if val == 0)
        (v0, r), (v1, s) = nz
        if r * s > 0:
            raise DefiniteFormError("real zero set is a single point")
        s1, b = squarefree_scale(_factorable(-s / r, "ratio of diagonal values"))
        if b == 1:  # -s/r a square; of all forms of rank >= 2 only these factor over Q
            raise ReducibleFormError("form factors over Q")
        v1 = tuple(s1 * x for x in v1)
        red = CanonicalReduction(CASE_PAIR_OF_LINES, mat_from_columns([v0, v1, kvec]), 1 / r, b=b)
    elif all(v > 0 for v in values) or all(v < 0 for v in values):
        raise DefiniteFormError("empty real zero set")
    elif (zero := _rational_zero(phi, basis, values)) is not None:
        # hyperbolic plane through the rational zero
        v0 = zero
        w = next(e for e in _STD if phi.bilinear(v0, e) != 0)
        tcoef = Fraction(phi(w), phi.bilinear(v0, w))
        v2 = tuple(Fraction(a) - tcoef * b for a, b in zip(w, v0))
        if phi(v2) != 0:
            raise AssertionError
        v1 = _orthogonal_line(phi, v0, v2)
        qv1 = Fraction(phi(v1))
        if qv1 == 0:
            raise AssertionError
        scale = -qv1 / Fraction(phi.bilinear(v0, v2))
        v2 = tuple(scale * x for x in v2)
        red = CanonicalReduction(CASE_PARABOLA, mat_from_columns([v0, v1, v2]), -1 / qv1)
    else:
        # anisotropic: order so the first diagonal value has the minority sign
        pos = [i for i, v in enumerate(values) if v > 0]
        neg = [i for i, v in enumerate(values) if v < 0]
        first, others = (pos[0], neg) if len(pos) == 1 else (neg[0], pos)
        mu = 1 / values[first]
        scaled = [basis[first]]
        bc = []
        for i in others:
            s_i, f_i = squarefree_scale(_factorable(-mu * values[i], "ratio of diagonal values"))
            scaled.append(tuple(s_i * x for x in basis[i]))
            bc.append(f_i)
        b, c = bc
        if not (b > 1 and c > 1):
            raise AssertionError("b or c equal to 1 contradicts absence of rational zeros")
        red = CanonicalReduction(CASE_ANISOTROPIC, mat_from_columns(scaled), mu, b=b, c=c)
    if not red.verify(phi):
        raise ReductionIdentityError("reduction identity mu * (phi o T) = canonical form failed")
    return red
