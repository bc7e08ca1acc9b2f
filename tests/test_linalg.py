"""The exact elimination engine: Span, kernel and rank, with sympy as the
reference, and the radical built on kernel."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat.algkit import end_algebra_partition, end_algebra_tl, radical
from partcat.coeff import RATFUN_T, RingElement, bound_q
from partcat.linalg import Span, kernel, rank
from partcat.pcat import gram_matrix

ZERO, ONE = Fraction(0), Fraction(1)

scalars = st.one_of(
    st.just(ZERO), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def matrices(draw, max_rows=7, max_cols=6):
    """Rows spanned by a few base rows, mixed with zero and repeated rows,
    so rank deficiency is the common case."""
    cols = draw(st.integers(1, max_cols))
    base = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        shape = draw(st.sampled_from(["combination", "zero", "repeat"]))
        if shape == "zero":
            rows.append([ZERO] * cols)
        elif shape == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            weights = draw(st.lists(scalars, min_size=len(base), max_size=len(base)))
            rows.append([sum((w * b[j] for w, b in zip(weights, base)), ZERO) for j in range(cols)])
    return rows


def sparse(row, keys=None) -> dict:
    keys = range(len(row)) if keys is None else keys
    return {k: x for k, x in zip(keys, row) if x}


def sympy_nullspace(rows) -> list:
    out = []
    for vec in sympy.Matrix(rows).nullspace():
        out.append({i: Fraction(int(x.p), int(x.q)) for i, x in enumerate(vec) if x != 0})
    return out


def rebuild(coords, vectors) -> dict:
    acc: dict = {}
    for c, vec in zip(coords, vectors):
        for k, x in vec.items():
            acc[k] = acc.get(k, ZERO) + c * x
    return {k: x for k, x in acc.items() if x}


def assert_kernel_key_order(basis):
    """Each vector lists its free column first, then pivot columns ascending."""
    for vec in basis:
        first, *rest = vec
        assert vec[first] == ONE
        assert rest == sorted(rest)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(rows=matrices())
    def test_equals_sympy_nullspace(self, rows):
        basis = kernel(rows, ZERO, ONE)
        assert basis == sympy_nullspace(rows)
        assert_kernel_key_order(basis)

    @settings(max_examples=100, deadline=None)
    @given(rows=matrices())
    def test_vectors_are_annihilated(self, rows):
        for vec in kernel(rows, ZERO, ONE):
            assert all(sum((r[j] * x for j, x in vec.items()), ZERO) == 0 for r in rows)

    def test_zero_matrix_is_all_free(self):
        assert kernel([[ZERO] * 3] * 2, ZERO, ONE) == [{0: ONE}, {1: ONE}, {2: ONE}]


class TestRank:
    @settings(max_examples=200, deadline=None)
    @given(rows=matrices())
    def test_equals_sympy_rank(self, rows):
        assert rank(rows) == sympy.Matrix(rows).rank()

    @settings(max_examples=50, deadline=None)
    @given(rows=matrices())
    def test_ring_elements(self, rows):
        tag = bound_q(1)
        assert rank([[RingElement(tag, x) for x in r] for r in rows]) == rank(rows)

    def test_rational_function_gram(self):
        assert rank(gram_matrix(1, 1, RATFUN_T)) == 2
        assert rank(gram_matrix(1, 1, bound_q(1))) == 1

    def test_all_zero(self):
        assert rank([]) == 0
        assert rank([[ZERO, ZERO]]) == 0


class TestSpan:
    @settings(max_examples=200, deadline=None)
    @given(rows=matrices(), data=st.data())
    def test_coordinates_rebuild_and_follow_attempts(self, rows, data):
        vectors = [sparse(r) for r in rows]
        span = Span(ZERO, ONE)
        accepted = [span.add(v) for v in vectors]
        assert span.count == len(vectors)
        assert span.dim == sum(accepted) == sympy.Matrix(rows).rank()
        for i, v in enumerate(vectors):
            coords = span.coordinates(v)
            assert len(coords) == len(vectors)
            assert rebuild(coords, vectors) == v
            if accepted[i]:  # an accepted vector is its own coordinate
                assert coords == [ONE if j == i else ZERO for j in range(len(vectors))]
        weights = data.draw(st.lists(scalars, min_size=len(vectors), max_size=len(vectors)))
        target = rebuild(weights, vectors)
        coords = span.coordinates(target)
        assert rebuild(coords, vectors) == target
        assert all(not c for c, kept in zip(coords, accepted) if not kept)
        assert span.contains(target) and not span.residual(target)

    @settings(max_examples=100, deadline=None)
    @given(rows=matrices())
    def test_outside_the_span(self, rows):
        cols = len(rows[0])
        span = Span(ZERO, ONE)
        for r in rows:
            span.add(sparse(r))
        for j in range(cols):
            e = {j: ONE}
            rest = span.residual(e)
            pivots = {p for p, _, _ in span.rows}
            assert not pivots & set(rest)
            assert (span.coordinates(e) is None) == bool(rest) == (not span.contains(e))

    @settings(max_examples=100, deadline=None)
    @given(rows=matrices())
    def test_tuple_keys(self, rows):
        """Keys only need an order: (parity, column) puts even columns first."""
        cols = len(rows[0])
        keys = [(j % 2, j) for j in range(cols)]
        vectors = [sparse(r, keys) for r in rows]
        span = Span(ZERO, ONE)
        for v in vectors:
            span.add(v)
        assert span.dim == rank(rows)
        for pivot, row, _ in span.rows:
            assert pivot == min(row) and row[pivot] == ONE
        for v in vectors:
            assert rebuild(span.coordinates(v), vectors) == v


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: end_algebra_tl(5, bound_q(1, "d")), id="tl5-d1"),
        pytest.param(lambda: end_algebra_tl(6, bound_q(1, "d")), id="tl6-d1"),
        pytest.param(lambda: end_algebra_partition(2, 0), id="a2-t0"),
    ],
)
def test_radical_is_sympy_nullspace_of_trace_form(build):
    A = build()
    basis = radical(A)
    assert basis == sympy_nullspace(A.trace_form())
    assert_kernel_key_order(basis)
