"""The exact Toom-3 products `arith.square` and `arith.mul`, and their use by
the identity checks."""
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conic_approx import arith, extremal, pell, quadform
from conic_approx.arith import mul, square
from conic_approx.cli import main
from conic_approx.extremal import InvariantViolation, extend, seed_triple
from conic_approx.quadform import TernaryQuadraticForm

# low enough that operands of a few thousand bits recurse several levels
SMALL_TOOM = 64


@pytest.fixture
def small_toom(monkeypatch):
    """`arith.TOOM_MIN_BITS`, which the kernel and its callers read, at
    `SMALL_TOOM`."""
    monkeypatch.setattr(arith, "TOOM_MIN_BITS", SMALL_TOOM)


@st.composite
def operands(draw, max_bits=2000):
    """An int of up to max_bits bits and either sign, its bits drawn from a
    seeded PRNG."""
    v = draw(st.randoms(use_true_random=False)).getrandbits(draw(st.integers(0, max_bits)))
    return -v if draw(st.booleans()) else v


def _bits(n: int) -> int:
    """An int of exactly n bits with its top and bottom bits set."""
    return (1 << (n - 1)) | 1


KERNEL = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestKernel:
    @KERNEL
    @given(operands())
    @example(0)
    @example(-1)
    @example(_bits(SMALL_TOOM - 1))
    @example(_bits(SMALL_TOOM))
    @example(-((1 << 3000) - 1))
    def test_square_is_the_product(self, small_toom, x):
        assert square(x) == x * x

    @pytest.mark.parametrize(
        "x",
        [
            Fraction(-7, 3),
            0,
            -_bits(arith.TOOM_MIN_BITS - 1),
            -_bits(arith.TOOM_MIN_BITS),
            -_bits(3 * arith.TOOM_MIN_BITS),
        ],
        ids=["fraction", "zero", "below", "at", "above"],
    )
    def test_square_takes_any_number(self, x):
        # at the real constant: the kernel alone decides how to multiply
        assert square(x) == x * x
        assert type(square(x)) is type(x * x)

    @KERNEL
    @given(operands(), operands())
    @example(0, _bits(500))
    @example(-1, -1)
    @example(_bits(SMALL_TOOM), -_bits(SMALL_TOOM))
    @example(_bits(SMALL_TOOM - 1), _bits(SMALL_TOOM))
    @example(_bits(1000), _bits(500))  # exactly 2:1, one Toom-3 step
    @example(-_bits(1001), _bits(500))  # just past 2:1, CPython's product
    @example((1 << 3000) - 1, -((1 << 1500) - 1))
    def test_mul_is_the_product(self, small_toom, a, b):
        assert mul(a, b) == a * b
        assert mul(b, a) == a * b

    def test_each_side_of_the_size_and_ratio_tests(self, small_toom, monkeypatch):
        steps = []
        real = arith._toom3_join
        monkeypatch.setattr(arith, "_toom3_join", lambda *v: steps.append(v[-1]) or real(*v))
        square(_bits(SMALL_TOOM - 1))
        mul(_bits(SMALL_TOOM), _bits(SMALL_TOOM - 1))
        mul(_bits(2 * SMALL_TOOM + 1), _bits(SMALL_TOOM))
        assert steps == []
        square(_bits(SMALL_TOOM))
        assert steps == [(SMALL_TOOM + 2) // 3]
        steps.clear()
        mul(_bits(2 * SMALL_TOOM), _bits(SMALL_TOOM))
        assert steps == [(2 * SMALL_TOOM + 2) // 3]


ints = st.integers(-(2**700), 2**700)
coefficients = st.integers(-5, 5)
forms = st.tuples(*[coefficients] * 6).filter(any).map(lambda cs: TernaryQuadraticForm(*cs))
fractions = st.fractions(min_value=-(2**80), max_value=2**80, max_denominator=2**40)


class TestFormThroughTheKernel:
    """The form and its bilinear form give the plain sums of products whether
    or not the form's one size test sends its squares to the kernel."""

    @KERNEL
    @given(forms, st.tuples(ints, ints, ints), st.tuples(ints, ints, ints))
    def test_equal_the_plain_sums(self, small_toom, f, x, y):
        g = f.gram()
        assert f(x) == sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3)) // 2
        assert f.bilinear(x, y) == sum(g[i][j] * x[i] * y[j] for i in range(3) for j in range(3))

    @KERNEL
    @given(
        forms,
        st.tuples(ints, st.one_of(ints, fractions), fractions),
        st.tuples(fractions, ints, st.one_of(ints, fractions)),
    )
    def test_rational_and_mixed_vectors(self, small_toom, f, x, y):
        # `reduce_form` and `transformed_coeffs` evaluate on Fraction vectors
        g = f.gram()
        assert f(x) == sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3)) / 2
        assert f.bilinear(x, y) == sum(g[i][j] * x[i] * y[j] for i in range(3) for j in range(3))

    def test_fraction_forms_still_reduce(self, small_toom):
        red = quadform.reduce_form(TernaryQuadraticForm(5, -3, -11, 4, 2, -2))
        assert (red.b, red.c, red.mu) == (19, 19285, Fraction(1, 5))


def _square_off_by_one(x):
    return x * x + 1


def _mul_off_by_one(a, b):
    return a * b + 1


# (2, 3) at depth 20: q reaches the kernel from index 18, the products of
# t's and members from index 20
FAULT_DEPTH = 20


@pytest.fixture(scope="module")
def good_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("good")
    argv = ["construct", "--b", "2", "--c", "3", "--depth", str(FAULT_DEPTH), "--out", str(out)]
    assert main(argv) == 0
    return out / "sequence.jsonl"


@pytest.mark.usefixtures("extend_path")
@pytest.mark.parametrize("name,fault", [("square", _square_off_by_one), ("mul", _mul_off_by_one)])
class TestKernelFault:
    """An off-by-one kernel, where `quadform` and `extremal` read it from
    `arith`, fails an identity: the recurrence multiplies with `*`, so the
    checks that redo its products with the kernel disagree with it."""

    PATH = "serial"

    def _fault(self, monkeypatch, name, fault):
        monkeypatch.setattr(arith, name, fault)

    def test_extend_raises(self, monkeypatch, name, fault):
        seq = extend(seed_triple(2, 3), 16)
        self._fault(monkeypatch, name, fault)
        with pytest.raises(InvariantViolation):
            extend(seq, FAULT_DEPTH)

    def test_verify_exits_4_on_a_good_file(self, monkeypatch, capsys, good_file, name, fault):
        self._fault(monkeypatch, name, fault)
        assert main(["verify", "--in", str(good_file)]) == 4
        assert capsys.readouterr().err.startswith("invariant failure: ")


class TestKernelFaultForked(TestKernelFault):
    PATH = "forked"


def test_the_good_file_verifies(good_file, capsys):
    assert main(["verify", "--in", str(good_file)]) == 0
    rows = [json.loads(line) for line in good_file.read_text().splitlines()]
    assert int(rows[-1]["y"][0], 16).bit_length() >= arith.TOOM_MIN_BITS


@pytest.mark.usefixtures("extend_path")
class TestIdentitiesThroughTheKernel:
    PATH = "serial"

    @pytest.mark.parametrize("pair", [(2, 3), (3, 7)])
    def test_extend_at_a_small_constant_equals_the_plain_one(self, small_toom, pair):
        seq = extend(seed_triple(*pair), 6)
        extend(seq, 14)
        with pytest.MonkeyPatch.context() as plain:
            plain.setattr(arith, "TOOM_MIN_BITS", 1 << 62)
            want = extend(seed_triple(*pair), 14)
        assert (seq.ys, seq.ts) == (want.ys, want.ts)

class TestIdentitiesThroughTheKernelForked(TestIdentitiesThroughTheKernel):
    PATH = "forked"


@pytest.mark.parametrize(
    "product,kernel_calls",
    [
        (lambda w: w.form(w.y(w.i)), ["square"] * 3),
        (lambda w: w.t_product, ["mul"]),
        (lambda w: w.t_y, ["mul"] * 3),
        (extremal._constant_determinant, ["mul", "square", "square"]),
        # b = 2 has period 1: the convergent (1, 1) squared, then the check
        (lambda w: pell.fundamental_solution(2), ["square"] * 4),
    ],
    ids=["q", "t_product", "t_y", "determinant", "pell"],
)
def test_each_caller_leaves_the_size_test_to_the_kernel(monkeypatch, product, kernel_calls):
    # at index 14 every member is far below `arith.TOOM_MIN_BITS`, yet each
    # caller goes through the kernel, the one place that reads the constant
    seq = extend(seed_triple(2, 3), 14)
    w = extremal.Window(seq, 14, 12)
    calls = []
    monkeypatch.setattr(arith, "square", lambda x: calls.append("square") or x * x)
    monkeypatch.setattr(arith, "mul", lambda a, b: calls.append("mul") or a * b)
    product(w)
    assert sorted(calls) == kernel_calls
