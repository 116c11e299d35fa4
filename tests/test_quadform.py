"""Ternary forms: evaluation, the reflection operator, reduction, rational zeros."""
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from conic_approx import quadform
from conic_approx.formats import read_form
from conic_approx.quadform import (
    CASE_ANISOTROPIC,
    CASE_PARABOLA,
    DefiniteFormError,
    DegenerateFormError,
    FormRejected,
    ReducibleFormError,
    TernaryQuadraticForm,
    _orthogonal_line,
    cross,
    diagonalize,
    kernel,
    mat_det,
    primitive,
    psi,
    rational_zero,
    reduce_form,
)

DIAG_23 = TernaryQuadraticForm(1, -2, -3)
PARABOLA = TernaryQuadraticForm(0, -1, 0, 0, 1, 0)  # x0*x2 - x1^2


class TestEvalAndBilinear:
    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="identically zero form"):
            TernaryQuadraticForm(0, 0, 0)

    def test_unit_vector_on_diagonal(self):
        assert DIAG_23((1, 0, 0)) == 1

    def test_large_unit_vector(self):
        assert DIAG_23((198, 140, 1)) == 198**2 - 2 * 140**2 - 3 == 1

    def test_point_on_parabola(self):
        assert PARABOLA((1, 1, 1)) == 0

    def test_bilinear_diagonal(self):
        assert DIAG_23.bilinear((1, 0, 0), (1, 0, 0)) == 2

    def test_bilinear_mixed(self):
        assert DIAG_23.bilinear((198, 140, 1), (1, 0, 0)) == 396
        assert DIAG_23.bilinear((3, 2, 0), (198, 140, 1)) == 2 * (3 * 198 - 2 * 2 * 140) == 68

    @given(st.tuples(*[st.integers(-100, 100)] * 3), st.tuples(*[st.integers(-100, 100)] * 3))
    def test_bilinear_symmetric_and_doubles_form(self, x, y):
        assert DIAG_23.bilinear(x, y) == DIAG_23.bilinear(y, x)
        assert DIAG_23.bilinear(x, x) == 2 * DIAG_23(x)


int_vec = st.tuples(*[st.integers(-200, 200)] * 3)
small_form = (
    st.tuples(*[st.integers(-9, 9) for _ in range(6)])
    .filter(any)
    .map(lambda cs: TernaryQuadraticForm(*cs))
)
nonzero = st.integers(-9, 9).filter(bool)
off_diagonal_form = st.builds(
    TernaryQuadraticForm, st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
    nonzero, nonzero, nonzero,
)
big_vec = st.tuples(*[st.integers(-(2**200), 2**200)] * 3)


class TestBilinearOffDiagonal:
    @given(off_diagonal_form, big_vec, big_vec)
    def test_matches_symmetric_matrix_formula(self, f, x, y):
        g = [
            [2 * f.a00, f.a01, f.a02],
            [f.a01, 2 * f.a11, f.a12],
            [f.a02, f.a12, 2 * f.a22],
        ]
        want = sum(g[i][j] * x[i] * y[j] for i in range(3) for j in range(3))
        assert f.bilinear(x, y) == want

    @given(off_diagonal_form, big_vec)
    def test_doubles_form_on_diagonal(self, f, x):
        assert f.bilinear(x, x) == 2 * f(x)

    @given(off_diagonal_form, big_vec)
    def test_form_matches_unsquared_formula(self, f, x):
        x0, x1, x2 = x
        want = (
            f.a00 * x0 * x0 + f.a11 * x1 * x1 + f.a22 * x2 * x2
            + f.a01 * x0 * x1 + f.a02 * x0 * x2 + f.a12 * x1 * x2
        )
        assert f(x) == want

    @given(off_diagonal_form)
    def test_gram_det_is_det_of_gram(self, f):
        assert f.gram_det == mat_det(f.gram())


class TestPsi:
    def test_worked_example(self):
        z = psi(DIAG_23, (198, 140, 1), (1, 0, 0))
        assert z == (78407, 55440, 396)
        assert DIAG_23(z) == 1  # phi(x)^2 * phi(y)

    @given(small_form, int_vec, int_vec)
    @settings(max_examples=300)
    def test_identities(self, f, x, y):
        z = psi(f, x, y)
        fx = f(x)
        assert f(z) == fx**2 * f(y)
        assert psi(f, x, z) == tuple(fx**2 * c for c in y)

    @given(small_form, int_vec)
    def test_psi_self(self, f, x):
        assert psi(f, x, x) == tuple(f(x) * c for c in x)

    @given(small_form, int_vec, int_vec, int_vec, st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=200)
    def test_bilinear_in_second_argument(self, f, x, y, z, a, b):
        combo = tuple(a * u + b * v for u, v in zip(y, z))
        left = psi(f, x, combo)
        py, pz = psi(f, x, y), psi(f, x, z)
        assert left == tuple(a * u + b * v for u, v in zip(py, pz))


def _product(l, m, k=1) -> tuple[int, ...]:
    """Coefficients of k * (l.x) * (m.x)."""
    return (
        k * l[0] * m[0], k * l[1] * m[1], k * l[2] * m[2],
        k * (l[0] * m[1] + l[1] * m[0]),
        k * (l[0] * m[2] + l[2] * m[0]),
        k * (l[1] * m[2] + l[2] * m[1]),
    )


linear = st.tuples(*[st.integers(-5, 5)] * 3).filter(any)
rank_one_form = st.builds(lambda l, k: TernaryQuadraticForm(*_product(l, l, k)), linear, nonzero)
rank_two_form = st.builds(
    lambda l, m, j, k: tuple(x + y for x, y in zip(_product(l, l, j), _product(m, m, k))),
    linear, linear, nonzero, nonzero,
).filter(any).map(lambda cs: TernaryQuadraticForm(*cs))
any_rank_form = st.one_of(small_form, rank_one_form, rank_two_form)
STD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rank(f: TernaryQuadraticForm) -> int:
    return sum(1 for v in diagonalize(f)[1] if v)


class TestKernel:
    def test_missing_variable(self):
        assert kernel(TernaryQuadraticForm(1, -2, 0)) == [(0, 0, 1)]

    def test_nondegenerate_diagonal(self):
        assert kernel(DIAG_23) == []

    def test_parabola_nondegenerate(self):
        assert kernel(PARABOLA) == []

    @pytest.mark.parametrize(
        "coeffs,basis",
        [
            ((4, 9, 25, -12, 20, -30), [(3, 2, 0), (5, 0, -2)]),  # (2x0 - 3x1 + 5x2)^2
            ((1, 0, 0), [(0, 1, 0), (0, 0, 1)]),
            ((0, 3, -2, -2, -4, 5), [(7, 4, -2)]),
            ((5, -3, -11, 4, 2, -2), []),
        ],
    )
    def test_pinned_basis(self, coeffs, basis):
        assert kernel(TernaryQuadraticForm(*coeffs)) == basis

    @given(any_rank_form)
    @settings(max_examples=300)
    def test_primitive_basis_of_the_radical(self, f):
        ker = kernel(f)
        assert len(ker) == 3 - rank(f)
        for v in ker:
            assert math.gcd(*v) == 1 and next(x for x in v if x) > 0
            assert all(f.bilinear(v, e) == 0 for e in STD)
        if len(ker) == 2:
            assert any(cross(*ker))

    @given(any_rank_form)
    @settings(max_examples=300)
    def test_equals_the_gram_row_kernel(self, f):
        assert kernel(f) == gram_row_kernel(f)


def gram_row_kernel(phi: TernaryQuadraticForm) -> list:
    """The radical from the Gram rows g_i, the oracle for `kernel`: none at
    rank 3, the cross product of two independent rows at rank 2, and at rank
    1, with g a non-zero row and p its first non-zero column,
    g_p e_f - g_f e_p for each other column f."""
    if phi.gram_det:
        return []
    g = phi.gram()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = cross(g[i], g[j])
        if any(w):
            return [primitive(w)]
    row = next(r for r in g if any(r))
    p = next(k for k in range(3) if row[k])
    return [
        primitive([row[p] * (k == f) - row[f] * (k == p) for k in range(3)])
        for f in range(3)
        if f != p
    ]


class TestOrthogonalLine:
    @given(small_form, int_vec, int_vec, st.integers(1, 9))
    @settings(max_examples=300)
    def test_orthogonal_to_both_and_last_coordinate_one(self, f, u, v, den):
        v = tuple(Fraction(x, den) for x in v)
        assume(any(cross(*([f.bilinear(e, x) for e in STD] for x in (u, v)))))
        w = _orthogonal_line(f, u, v)
        assert f.bilinear(w, u) == 0 and f.bilinear(w, v) == 0
        assert next(x for x in reversed(w) if x) == 1


class TestRationalZero:
    @pytest.mark.parametrize(
        "coeffs,zero",
        [
            ((-10, -9, -3, -9, 2, -12), (3, -2, 6)),
            ((0, 3, -2, -2, -4, 5), (7, 4, -2)),  # rank 2: the radical line
            ((5, -3, -11, 4, 2, -2), None),
        ],
    )
    def test_pinned(self, coeffs, zero):
        assert rational_zero(TernaryQuadraticForm(*coeffs)) == zero

    def test_rank_one_rejected(self):
        with pytest.raises(DegenerateFormError, match="^form has rank at most 1$"):
            rational_zero(TernaryQuadraticForm(4, 9, 25, -12, 20, -30))

    def test_parabola(self):
        v = rational_zero(PARABOLA)
        assert v is not None and PARABOLA(v) == 0

    def test_anisotropic_23(self):
        assert rational_zero(DIAG_23) is None

    def test_definite(self):
        # no real zero, so no rational one
        assert rational_zero(TernaryQuadraticForm(1, 1, 1)) is None

    def test_isotropic_22(self):
        f = TernaryQuadraticForm(1, -2, -2)
        v = rational_zero(f)
        assert v is not None and f(v) == 0
        from math import gcd

        assert gcd(gcd(v[0], v[1]), v[2]) == 1

    @pytest.mark.parametrize("coeffs", [(1, -2, -5), (1, -3, -5), (1, -5, -6), (1, -2, -3)])
    def test_no_zero_matches_exhaustive_search(self, coeffs):
        f = TernaryQuadraticForm(*coeffs)
        assert rational_zero(f) is None
        bound = 60
        for x0 in range(bound + 1):
            for x1 in range(-bound, bound + 1):
                for x2 in range(-bound, bound + 1):
                    if (x0, x1, x2) != (0, 0, 0):
                        assert f((x0, x1, x2)) != 0

    @pytest.mark.parametrize(
        "coeffs", [(1, -2, -2), (1, -2, -7), (1, -6, -3), (2, -3, -5), (1, -1, 1)]
    )
    def test_found_zero_is_isotropic_and_primitive(self, coeffs):
        f = TernaryQuadraticForm(*coeffs)
        v = rational_zero(f)
        assert v is not None
        assert f(v) == 0
        from math import gcd

        assert gcd(gcd(v[0], v[1]), v[2]) == 1

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    def test_wrong_witness_raises_under_optimize(self, optimize):
        # the exact check phi(v) = 0 was an `assert`, which -O removes: a wrong
        # Holzer witness then came back as a zero, where phi = 3
        probe = (
            f"import sys; sys.path.insert(0, {str(Path(quadform.__file__).parents[1])!r}); "
            "from conic_approx import quadform; "
            "quadform._holzer_search = lambda coeffs: (2, 1, 1); "
            "quadform.rational_zero(quadform.TernaryQuadraticForm(1, 1, -2))"
        )
        run = subprocess.run(
            [sys.executable, *optimize, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == "AssertionError"


S5_SUBSTITUTION = (
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(1), Fraction(-1), Fraction(-1)),
)


class TestReduceForm:
    def test_fixed_substitution_identity(self):
        # (x0+x1+x2)(x0-x1-x2) - (x1-x2)^2 == x0^2 - 2x1^2 - 2x2^2
        target = TernaryQuadraticForm(1, -2, -2)
        got = PARABOLA.transformed_coeffs(S5_SUBSTITUTION)
        want = (target.a00, target.a11, target.a22, target.a01, target.a02, target.a12)
        assert got == tuple(Fraction(w) for w in want)

    def test_pair_of_lines_already_canonical(self):
        r = reduce_form(TernaryQuadraticForm(1, -2, 0))
        assert r.case == "pair-of-lines"
        assert r.b == 2 and r.c == 0
        assert r.verify(TernaryQuadraticForm(1, -2, 0))

    def test_anisotropic_with_content(self):
        f = TernaryQuadraticForm(3, -6, -9)
        r = reduce_form(f)
        assert r.case == CASE_ANISOTROPIC
        assert (r.mu, r.b, r.c) == (Fraction(1, 3), 2, 3)
        assert r.verify(f)

    def test_parabola(self):
        r = reduce_form(PARABOLA)
        assert r.case == CASE_PARABOLA
        assert r.verify(PARABOLA)

    def test_isotropic_nondegenerate_is_parabola(self):
        f = TernaryQuadraticForm(1, -2, -2)
        r = reduce_form(f)
        assert r.case == CASE_PARABOLA
        assert r.verify(f)

    def test_definite_rejected(self):
        with pytest.raises(DefiniteFormError):
            reduce_form(TernaryQuadraticForm(1, 1, 1))

    def test_rank_one_rejected(self):
        with pytest.raises(DegenerateFormError):
            reduce_form(TernaryQuadraticForm(1, 0, 0))

    def test_rational_factorization_rejected(self):
        # x0^2 - x1^2 = (x0-x1)(x0+x1)
        with pytest.raises(ReducibleFormError):
            reduce_form(TernaryQuadraticForm(1, -1, 0))


F = Fraction
# (case, T, mu, b, c), or (exception, message), of each outcome
PINNED_REDUCTIONS = {
    (-10, -9, -3, -9, 2, -12): (
        CASE_PARABOLA,
        ((3, F(2, 11), 0), (-2, F(-2, 11), F(-19, 1089)), (6, 1, F(19, 363))),
        F(121, 95), 0, 0,
    ),
    (-2, -2, -2, -10, -4, -10): (
        "pair-of-lines", ((1, -5, -1), (0, 2, 0), (0, 0, 1)), F(-1, 2), 21, 0,
    ),
    (5, -3, -11, 4, 2, -2): (
        CASE_ANISOTROPIC, ((1, -2, -5), (0, 5, -35), (0, 0, 95)), F(1, 5), 19, 19285,
    ),
    (4, 9, 25, -12, 20, -30): (DegenerateFormError, "form has rank at most 1"),
    (0, 3, -2, -2, -4, 5): (ReducibleFormError, "form factors over Q"),
    (12, 10, 3, -4, 12, -2): (DefiniteFormError, "real zero set is a single point"),
    (5, 11, 12, 12, 3, 12): (DefiniteFormError, "empty real zero set"),
}


@pytest.mark.parametrize("coeffs", sorted(PINNED_REDUCTIONS))
class TestPinnedReductions:
    def test_same_reduction_or_rejection(self, coeffs):
        f = TernaryQuadraticForm(*coeffs)
        want = PINNED_REDUCTIONS[coeffs]
        if isinstance(want[0], str):
            r = reduce_form(f)
            assert (r.case, r.T, r.mu, r.b, r.c) == want
            assert all(type(x) is Fraction for row in r.T for x in row)
        else:
            with pytest.raises(want[0]) as info:
                reduce_form(f)
            assert str(info.value) == want[1]

    def test_one_diagonalization_and_no_kernel(self, coeffs, monkeypatch):
        calls = []
        diagonalize = quadform.diagonalize
        monkeypatch.setattr(quadform, "diagonalize", lambda f: calls.append("d") or diagonalize(f))
        monkeypatch.setattr(quadform, "kernel", lambda f: calls.append("k") or kernel(f))
        try:
            reduce_form(TernaryQuadraticForm(*coeffs))
        except FormRejected:
            pass
        assert calls == ["d"]


def _random_gl3(rng: random.Random):
    while True:
        T = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(3)
        )
        if mat_det(T) != 0:
            return T


class TestCaseTagInvariance:
    @pytest.mark.parametrize(
        "base,expected",
        [
            (PARABOLA, CASE_PARABOLA),
            (TernaryQuadraticForm(1, -2, 0), "pair-of-lines"),
            (DIAG_23, CASE_ANISOTROPIC),
        ],
    )
    def test_case_survives_coordinate_change(self, base, expected):
        rng = random.Random(12345)
        for _ in range(15):
            T = _random_gl3(rng)
            coeffs = base.transformed_coeffs(T)
            den = 1
            for q in coeffs:
                den = den * q.denominator // __import__("math").gcd(den, q.denominator)
            f = TernaryQuadraticForm(*[int(q * den) for q in coeffs])
            r = reduce_form(f)
            assert r.case == expected
            assert r.verify(f)


class TestSerialization:
    """A form file, as `formats.read_form` reads it."""

    def test_round_trip(self):
        text = '{"a00": "1", "a11": "-2", "a22": "-3", "a01": "4", "a02": "-5", "a12": "6"}'
        assert read_form(text) == TernaryQuadraticForm(1, -2, -3, 4, -5, 6)

    @pytest.mark.parametrize("key", ["a99", "a21", "A00", ""])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            read_form(f'{{"a00": 1, "a11": -2, "a22": -3, "{key}": 0}}')

    def test_decimal_strings(self):
        # decimal strings and JSON integers read alike; a missing key is 0
        assert read_form('{"a00": "1", "a11": -2, "a22": "-3"}') == DIAG_23
