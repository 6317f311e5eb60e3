import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bjorth as bj
from bjorth import spaces
from bjorth.errors import (
    BadDimension,
    DimensionMismatch,
    EmptySum,
    InvalidExponent,
    NotAPlane,
    NotSmooth,
    ParseError,
    ZeroVector,
)

from conftest import SPACE_ZOO, outcome, random_nonzero


# ---------------------------------------------------------------------------
# Independent oracles: finite differences of the norm itself.


def central_diff_gradient(space, x, h=1e-6):
    """Gradient of the norm by central differences, coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (space.norm(x + e) - space.norm(x - e)) / (2 * h)
    return out


def one_sided_quotients(space, x, d, h=1e-8):
    """(left, right) difference quotients of the norm at x along d."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    n0 = space.norm(x)
    right = (space.norm(x + h * d) - n0) / h
    left = (n0 - space.norm(x - h * d)) / h
    return left, right


# ---------------------------------------------------------------------------
# Construction and validation.


def test_validate_wellformed_lp():
    s = bj.validate_space({"type": "lp", "dim": 2, "p": 3})
    assert isinstance(s, bj.Lp) and s.dim == 2 and s.p == 3.0


def test_dayjames_conjugate_flag():
    assert bj.DayJames(3.0, 1.5).radon_candidate
    assert bj.DayJames(2.0, 2.0).radon_candidate
    assert not bj.DayJames(3.0, 2.0).radon_candidate


def test_invalid_exponents():
    with pytest.raises(InvalidExponent):
        bj.Lp(2, 0.5)
    with pytest.raises(InvalidExponent):
        bj.Lp(2, 1.0)
    with pytest.raises(InvalidExponent):
        bj.Lp(2, math.inf)
    with pytest.raises(InvalidExponent):
        bj.DayJames(3.0, 1.0)


def test_bad_dimension_and_empty_sum():
    with pytest.raises(BadDimension):
        bj.Lp(0, 2.0)
    with pytest.raises(BadDimension):
        bj.LInf(-1)
    with pytest.raises(EmptySum):
        bj.InfSum((bj.Lp(2, 2.0),))
    with pytest.raises(ParseError):
        bj.validate_space({"type": "nope"})


@pytest.mark.parametrize("make", [lambda d: bj.Lp(d, 3.0), bj.LInf], ids=["lp", "linf"])
def test_a_bool_is_not_a_dimension(make):
    # The constructors refuse what _parse_int and check_count refuse: True
    # equals 1 as an int, but is no dimension.
    for flag in (True, False):
        with pytest.raises(BadDimension, match=f"got {flag}"):
            make(flag)
    assert make(np.int64(2)).dim == 2 and type(make(np.int64(2)).dim) is int


# ---------------------------------------------------------------------------
# Norm values.


def test_norm_euclid():
    assert bj.Lp(2, 2.0).norm([3, 4]) == pytest.approx(5.0, abs=1e-12)


def test_norm_dayjames_quadrants():
    dj = bj.DayJames(3.0, 1.5)
    assert dj.norm([1, 1]) == pytest.approx(2 ** (1 / 3), abs=1e-12)
    assert dj.norm([1, -1]) == pytest.approx(2 ** (2 / 3), abs=1e-12)


def test_norm_inf_sum_max():
    s = bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1)))
    assert s.norm([3, 4, 2]) == pytest.approx(5.0, abs=1e-12)


def test_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bj.Lp(2, 2.0).norm([1, 2, 3])


def test_axis_vectors_have_exact_norm():
    for space in SPACE_ZOO:
        for i in range(space.dim):
            e = np.zeros(space.dim)
            e[i] = 0.3
            assert space.norm(e) == 0.3


# ---------------------------------------------------------------------------
# Support sets.


def test_support_euclid_is_normalized_vector():
    fs = bj.Lp(2, 2.0).support_set([3, 4])
    assert len(fs) == 1
    np.testing.assert_allclose(fs[0], [0.6, 0.8], atol=1e-12)


def test_support_lp3_matches_central_differences():
    space = bj.Lp(2, 3.0)
    x = np.array([1.0, 1.0])
    fs = space.support_set(x)
    assert len(fs) == 1
    np.testing.assert_allclose(fs[0], [2 ** (-2 / 3), 2 ** (-2 / 3)], atol=1e-12)
    np.testing.assert_allclose(fs[0], central_diff_gradient(space, x), atol=1e-5)


def test_support_linf_vertices_match_quotients():
    space = bj.LInf(2)
    x = np.array([1.0, 1.0])
    fs = space.support_set(x)
    assert sorted(tuple(f) for f in fs) == [(0.0, 1.0), (1.0, 0.0)]
    # One-sided quotients along each axis recover max/min of f(e_i).
    for i, e in enumerate(np.eye(2)):
        left, right = one_sided_quotients(space, x, e)
        vals = [f[i] for f in fs]
        assert right == pytest.approx(max(vals), abs=1e-6)
        assert left == pytest.approx(min(vals), abs=1e-6)


def test_support_inf_sum_tie_embeds_both_parts():
    s = bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1)))
    x = np.array([1.0, 0.0, 1.0])
    fs = s.support_set(x)
    assert sorted(tuple(f) for f in fs) == [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
    for f in fs:
        assert float(np.dot(f, x)) == pytest.approx(s.norm(x), abs=1e-12)


def test_support_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        bj.Lp(2, 2.0).support_set([0, 0])


def test_dayjames_axis_gradient_formulas_agree():
    from bjorth.spaces import _pgrad2

    dj = bj.DayJames(3.0, 1.5)
    for t in (0.5, 1.0, 7.25):
        for x in ((t, 0.0), (-t, 0.0), (0.0, t), (0.0, -t)):
            fp = _pgrad2(x[0], x[1], dj.p)
            fq = _pgrad2(x[0], x[1], dj.q)
            assert max(abs(fp[0] - fq[0]), abs(fp[1] - fq[1])) <= 1e-10
            fs = dj.support_set(np.array(x))
            assert len(fs) == 1


def test_dayjames_axis_gradient_disagreement_raises(monkeypatch):
    # A typed error, not an assert, so the check survives python -O.
    real = spaces._pgrad2

    def skewed(a, b, r):
        fa, fb = real(a, b, r)
        return (fa + 1e-3, fb) if r == 1.5 else (fa, fb)

    monkeypatch.setattr(spaces, "_pgrad2", skewed)
    dj = bj.DayJames(3.0, 1.5)
    with pytest.raises(NotSmooth):
        dj.support_set([2.0, 0.0])
    assert len(dj.support_set([2.0, 1.0])) == 1


@pytest.mark.parametrize(
    "space",
    [bj.Lp(2, 3.0), bj.Lp(3, 2.5), bj.DayJames(3.0, 1.5), bj.DayJames(1.5, 3.0)],
    ids=str,
)
def test_gradient_matches_central_differences(space):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = rng.standard_normal(space.dim)
        # Keep clear of the axes so both central steps stay in one quadrant.
        x = np.where(np.abs(x) < 0.05, 0.05 * np.sign(x) + (x == 0) * 0.05, x)
        f = space.support_set(x)[0]
        np.testing.assert_allclose(f, central_diff_gradient(space, x), atol=1e-5)


# ---------------------------------------------------------------------------
# Unit circle parametrization.


def test_unit_vector_examples():
    np.testing.assert_allclose(
        bj.unit_vector_at_angle(bj.Lp(2, 2.0), math.pi / 4),
        [math.sqrt(2) / 2, math.sqrt(2) / 2],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        bj.unit_vector_at_angle(bj.DayJames(3.0, 1.5), math.pi / 4),
        [2 ** (-1 / 3), 2 ** (-1 / 3)],
        atol=1e-12,
    )


def test_unit_vector_at_half_pi_is_axis():
    for space in (bj.Lp(2, 2.0), bj.Lp(2, 3.0), bj.LInf(2), bj.DayJames(3.0, 1.5)):
        u = bj.unit_vector_at_angle(space, math.pi / 2)
        np.testing.assert_allclose(u, [0.0, 1.0], atol=1e-12)
        assert space.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_unit_vector_requires_plane():
    with pytest.raises(NotAPlane):
        bj.unit_vector_at_angle(bj.Lp(3, 2.0), 0.1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_unit_vector_rejects_a_non_finite_angle(theta):
    # A NaN angle used to come back as the vector [nan, nan].
    with pytest.raises(bj.NonFiniteInput):
        bj.unit_vector_at_angle(bj.DayJames(3.0, 1.5), theta)


# ---------------------------------------------------------------------------
# Dual pairing.


def test_support_functional_pairing():
    # The norming functional at x pairs with x to its norm and annuls its
    # orthogonal directions.
    (f,) = bj.Lp(2, 2.0).support_set([3, 4])
    assert float(np.dot(f, [3, 4])) == pytest.approx(5.0)
    (f,) = bj.Lp(2, 2.0).support_set([1, 0])
    assert float(np.dot(f, [0, 1])) == 0.0
    (f,) = bj.Lp(2, 3.0).support_set([1, 1])
    np.testing.assert_allclose(f, [2 ** (-2 / 3), 2 ** (-2 / 3)], rtol=1e-15)
    assert float(np.dot(f, [1, -1])) == 0.0


# ---------------------------------------------------------------------------
# Norm and support-set properties.

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_homogeneity(data, space):
    v = np.array(data.draw(st.lists(coords, min_size=space.dim, max_size=space.dim)))
    c = data.draw(
        st.floats(min_value=-100.0, max_value=100.0).filter(lambda t: abs(t) > 1e-6)
    )
    n = space.norm(v)
    assert abs(space.norm(c * v) - abs(c) * n) <= 1e-12 * max(abs(c) * n, 1e-300)


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_triangle_inequality(data, space):
    vecs = st.lists(coords, min_size=space.dim, max_size=space.dim)
    u = np.array(data.draw(vecs))
    v = np.array(data.draw(vecs))
    assert space.norm(u + v) <= space.norm(u) + space.norm(v) + 1e-12


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_zero_iff_zero_norm(data, space):
    v = np.array(data.draw(st.lists(coords, min_size=space.dim, max_size=space.dim)))
    if np.all(v == 0.0):
        assert space.norm(v) == 0.0
    elif np.max(np.abs(v)) > 1e-6:
        assert space.norm(v) > 0.0


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_support_norming_and_dual_feasibility(space):
    rng = np.random.default_rng(7)
    probes = [random_nonzero(space, rng) for _ in range(1000)]
    for _ in range(50):
        x = random_nonzero(space, rng)
        nx = space.norm(x)
        for f in space.support_set(x):
            assert abs(float(np.dot(f, x)) - nx) <= bj.TAU_SUP * nx
        f = space.support_set(x)[0]
        for v in probes[:20]:
            assert float(np.dot(f, v)) <= space.norm(v) * (1 + bj.TAU_SUP)
    # Full probe sweep with one fixed functional per space.
    x = random_nonzero(space, rng)
    for f in space.support_set(x):
        for v in probes:
            assert float(np.dot(f, v)) <= space.norm(v) * (1 + bj.TAU_SUP)


# ---------------------------------------------------------------------------
# Descriptor round trips.


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_compact_format_round_trip(space):
    assert bj.parse_space(bj.format_space(space)) == space


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_json_round_trip(space):
    assert bj.validate_space(bj.space_to_dict(space)) == space


def test_parse_examples():
    assert bj.parse_space("dayjames:3:1.5") == bj.DayJames(3.0, 1.5)
    s = bj.parse_space("sum(lp:2:2,linf:3)")
    assert isinstance(s, bj.InfSum) and s.dim == 5
    with pytest.raises(InvalidExponent):
        bj.parse_space("lp:2:0.5")
    with pytest.raises(ParseError):
        bj.parse_space("frob:2")
    with pytest.raises(ParseError):
        bj.parse_space("sum(lp:2:2")


def test_parse_error_names_the_piece_and_the_descriptor():
    with pytest.raises(ParseError) as err:
        bj.parse_space("sum(lp:2:2,foo:1)")
    message = str(err.value)
    assert "'foo:1'" in message and "'sum(lp:2:2,foo:1)'" in message
    assert "position" not in message
    with pytest.raises(ParseError) as err:
        bj.parse_space("frob:2")
    assert "position" not in str(err.value)


# ---------------------------------------------------------------------------
# Single vectors run on Python floats, bit for bit the numpy expressions they
# replaced.  The references below are those expressions.


def numpy_norm(space, arr):
    if isinstance(space, bj.LInf):
        return float(np.abs(arr).max())
    if isinstance(space, bj.InfSum):
        return max(numpy_norm(part, piece) for part, piece in zip(space.parts, space.split(arr)))
    if isinstance(space, bj.DayJames):
        return space._norm2(float(arr[0]), float(arr[1]))
    if space.dim == 2:
        return spaces._pnorm2(float(arr[0]), float(arr[1]), space.p)
    return space._norm(arr)  # Lp above dimension 2: tested against _pnorms below


def numpy_support(space, arr):
    if isinstance(space, bj.LInf):
        m = float(np.max(np.abs(arr)))
        out = []
        for i, c in enumerate(arr):
            if abs(c) >= (1.0 - bj.TAU_TIE) * m:
                f = np.zeros(space.dim)
                f[i] = 1.0 if c > 0 else -1.0
                out.append(f)
        return out
    if isinstance(space, bj.InfSum):
        pieces = space.split(arr)
        norms = [numpy_norm(part, piece) for part, piece in zip(space.parts, pieces)]
        total = max(norms)
        if total == math.inf:
            return numpy_support(space, np.ldexp(arr, -spaces.top_exponents(arr)))
        off, out = space._offsets, []
        for k, part in enumerate(space.parts):
            if norms[k] >= (1.0 - bj.TAU_TIE) * total:
                for f in numpy_support(part, pieces[k]):
                    g = np.zeros(space.dim)
                    g[off[k] : off[k + 1]] = f
                    out.append(g)
        return out
    if space.dim == 2:
        # Both Day-James gradients are (+-1, 0) or (0, +-1) exactly on the axes.
        return [np.array(space._grad2(float(arr[0]), float(arr[1])))]
    return space._support(arr)  # as _norm above, against _pbounds


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


SCALAR_SPACES = [
    bj.LInf(1), bj.LInf(4), bj.Lp(2, 2.0), bj.Lp(2, 3.0), bj.DayJames(3.0, 1.5),
    bj.DayJames(1.5, 3.0), bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1))),
    bj.InfSum((bj.DayJames(3.0, 1.5), bj.LInf(2))),
    bj.InfSum((bj.InfSum((bj.LInf(2), bj.Lp(2, 3.0))), bj.Lp(3, 2.5), bj.LInf(1))),
]
# Every magnitude from 2**-1074 to the largest float, with both zeros.
EXTREME = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400)
@given(data=st.data(), space=st.sampled_from(SCALAR_SPACES))
def test_scalar_norms_and_supports_match_their_numpy_forms(data, space):
    v = data.draw(st.lists(EXTREME, min_size=space.dim, max_size=space.dim))
    top = max(map(abs, v))
    # Coordinates tied with the largest one, within TAU_TIE and just beyond.
    for j in data.draw(st.lists(st.integers(0, space.dim - 1), max_size=3)):
        v[j] = top * data.draw(st.sampled_from([1.0, -1.0])) * data.draw(
            st.sampled_from([1.0, 1.0 - 0.5 * bj.TAU_TIE, 1.0 - bj.TAU_TIE, 1.0 - 2.0 * bj.TAU_TIE]))
    arr = space.check_vector(v)
    assert same_bits(space._norm(arr), numpy_norm(space, arr))
    if not arr.any():
        return
    got, want = outcome(space._support, arr), outcome(numpy_support, space, arr)
    if isinstance(want, type):
        assert got is want
        return
    assert len(got) == len(want)
    for f, g in zip(got, want):
        assert f.dtype == g.dtype and f.tobytes() == g.tobytes()


# The scalar plane kernels take one power of the smaller-to-larger ratio
# where the max-scaled form takes one of each scaled coordinate; the larger
# one scales to 1, and pow(1, y) is exactly 1.  The references below are the
# max-scaled forms.


def two_power_pnorm2(a, b, r):
    aa, bb = abs(a), abs(b)
    m = aa if aa >= bb else bb
    if m == 0.0:
        return 0.0
    return m * (math.pow(aa / m, r) + math.pow(bb / m, r)) ** (1.0 / r)


def six_power_pgrad2(a, b, r):
    aa, bb = abs(a), abs(b)
    m = aa if aa >= bb else bb
    ta, tb = aa / m, bb / m
    d = math.pow((math.pow(ta, r) + math.pow(tb, r)) ** (1.0 / r), r - 1.0)
    return (spaces._sign(a) * math.pow(ta, r - 1.0) / d,
            spaces._sign(b) * math.pow(tb, r - 1.0) / d)


def assert_kernels_match(a, b, r):
    assert same_bits(spaces._pnorm2(a, b, r), two_power_pnorm2(a, b, r))
    if a or b:
        got, want = spaces._pgrad2(a, b, r), six_power_pgrad2(a, b, r)
        assert all(map(same_bits, got, want))


KERNEL_EXPONENTS = st.one_of(
    st.sampled_from([1.0000001, 1.1, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 6.0]),
    st.floats(min_value=1.0, max_value=16.0, exclude_min=True))
KERNEL_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=1000)
@given(a=KERNEL_MAGNITUDES, b=KERNEL_MAGNITUDES, signs=st.sampled_from(
    [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]), r=KERNEL_EXPONENTS)
def test_plane_kernels_are_the_max_scaled_forms_bit_for_bit(a, b, signs, r):
    assert_kernels_match(signs[0] * a, signs[1] * b, r)


@pytest.mark.parametrize("r", [1.0000001, 1.1, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_plane_kernels_match_at_ties_axes_zeros_and_subnormals(r):
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
              1.0, -3.0, 1e300, 1.7976931348623157e308, -1.7976931348623157e308]
    for a in values:
        for b in values:
            assert_kernels_match(a, b, r)  # every tie |a| == |b| and every axis


# The plane line objective is _pnorm2 written inline, with 1/p and 1/q taken
# once; the exponent is p where x + t*y's coordinates share a sign, else q.


def reference_line2(x, y, p, q, t):
    a, b = x[0] + t * y[0], x[1] + t * y[1]
    return spaces._pnorm2(a, b, p if (a < 0.0) == (b < 0.0) else q)


SIGNED_MAGNITUDES = st.one_of(st.sampled_from([0.0, -0.0]), KERNEL_MAGNITUDES,
                              KERNEL_MAGNITUDES.map(lambda v: -v))
PLANE_POINTS = st.tuples(SIGNED_MAGNITUDES, SIGNED_MAGNITUDES)


@settings(max_examples=1000)
@given(x=PLANE_POINTS, y=PLANE_POINTS, t=SIGNED_MAGNITUDES, p=KERNEL_EXPONENTS,
       q=KERNEL_EXPONENTS)
def test_line_objective_is_the_scalar_pnorm_bit_for_bit(x, y, t, p, q):
    assert same_bits(spaces._line2(x, y, p, q)(t), reference_line2(x, y, p, q, t))


@pytest.mark.parametrize("p,q", [(3.0, 1.5), (1.5, 3.0), (2.0, 2.0), (1.1, 11.0)])
def test_line_objective_matches_on_axes_signed_zeros_and_extremes(p, q):
    values = [0.0, -0.0, 5e-324, 1e-300, -1.0, 3.0, -1e300, 1.7976931348623157e308]
    for x0 in values:
        for x1 in values:
            for y in [(1.0, 0.0), (0.0, -1.0), (-0.0, 2.0), (3.0, -4.0), (1e300, 1e-300)]:
                line = spaces._line2((x0, x1), y, p, q)
                for t in [0.0, -0.0, 1.0, -2.5, 1e-300, -1e300]:
                    assert same_bits(line(t), reference_line2((x0, x1), y, p, q, t))


# Above dimension 2 the p-norm and its functional take the same max-scaled
# form on Python floats, one power of each scaled coordinate: the largest
# scales to 1, pow(1, y) == 1 and pow(0, y) == 0, so a zero-padded plane
# vector gives the plane kernels' floats.


def ndim_kernels(v, r):
    """(||v||, f) of Lp(len(v), r) at v, on the checked vector; f is None at 0."""
    space = bj.Lp(len(v), r)
    arr = space.check_vector(v)
    (f,) = space._support(arr) if any(v) else (None,)
    return space._norm(arr), f


def assert_padded_is_plane(a, b, r, dim, where):
    v = [0.0] * dim
    v[where[0]], v[where[1]] = a, b
    norm, f = ndim_kernels(v, r)
    assert same_bits(norm, spaces._pnorm2(a, b, r))
    if a or b:
        assert all(map(same_bits, (f[where[0]], f[where[1]]), spaces._pgrad2(a, b, r)))
        assert not np.delete(f, where).any()


NDIM_POSITIONS = st.integers(3, 8).flatmap(
    lambda dim: st.tuples(st.just(dim), st.permutations(range(dim)).map(lambda p: p[:2])))


@settings(max_examples=500)
@given(a=KERNEL_MAGNITUDES, b=KERNEL_MAGNITUDES, signs=st.sampled_from(
    [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]), r=KERNEL_EXPONENTS,
    at=NDIM_POSITIONS)
def test_ndim_kernels_give_the_plane_kernels_on_padded_vectors(a, b, signs, r, at):
    assert_padded_is_plane(signs[0] * a, signs[1] * b, r, *at)


@pytest.mark.parametrize("r", [1.0000001, 1.1, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_ndim_kernels_give_the_plane_kernels_at_ties_zeros_and_subnormals(r):
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
              1.0, -3.0, 1e300, 1.7976931348623157e308, -1.7976931348623157e308]
    for a in values:
        for b in values:
            assert_padded_is_plane(a, b, r, 3, (0, 1))
            assert_padded_is_plane(a, b, r, 8, (6, 2))


@st.composite
def ndim_vectors(draw):
    """Vectors of dimension 3 to 8, magnitudes 1e-300 to 1e300 with zeros,
    subnormals and coordinates tied with the largest, random signs."""
    dim = draw(st.integers(3, 8))
    v = draw(st.lists(st.one_of(KERNEL_MAGNITUDES, st.sampled_from(
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308])), min_size=dim, max_size=dim))
    for j in draw(st.lists(st.integers(0, dim - 1), max_size=3)):
        v[j] = max(v)
    return [draw(st.sampled_from([1.0, -1.0])) * c for c in v]


# Rounding bounds in units of 2**-52, with headroom about 2 over the worst
# of 40 000 standard-normal draws scaled by 1e-300 to 1e300 (the pow of the
# rounded norm by r - 1 multiplies its error by up to 15).
ULP = 2.0**-52


@settings(max_examples=500)
@given(v=ndim_vectors(), r=KERNEL_EXPONENTS)
def test_ndim_kernels_match_the_row_kernels(v, r):
    norm, f = ndim_kernels(v, r)
    X = np.array([v])
    want = spaces._pnorms(X, r)[0]
    assert abs(norm - want) <= 2 * len(v) * ULP * want
    if f is not None:
        # Row i of the functional's bounds against the unit vectors is f_i.
        g, _ = spaces._pbounds(np.repeat(X, len(v), axis=0), np.eye(len(v)), r)
        assert np.abs(f - g).max() <= 2 * (len(v) + r) * ULP * np.abs(g).max()


@settings(max_examples=500)
@given(v=ndim_vectors(), r=KERNEL_EXPONENTS)
def test_ndim_functional_norms_x_and_has_dual_norm_one(v, r):
    norm, f = ndim_kernels(v, r)
    assume(f is not None)
    fx = math.fsum(fi * xi for fi, xi in zip(f.tolist(), v))
    assert abs(fx - norm) <= 2 * (len(v) + r) * ULP * norm + len(v) * 5e-324
    q = r / (r - 1.0)
    dual = bj.Lp(len(v), q).norm(f)
    assert abs(dual - 1.0) <= 2 * (len(v) + r) * ULP


def low_bit(c):
    """The exponent of the lowest set bit of a nonzero float."""
    n, d = abs(c).as_integer_ratio()
    return (n & -n).bit_length() - d.bit_length()


@settings(max_examples=500)
@given(v=ndim_vectors(), r=KERNEL_EXPONENTS, k=st.integers(-900, 900))
def test_ndim_kernels_scale_exactly_by_powers_of_two(v, r, k):
    m = max(map(abs, v))
    assume(m >= 2.2250738585072014e-308)  # a normal largest coordinate
    top = math.frexp(m)[1]
    # k as drawn, clamped so that the norm stays normal and finite and the
    # lowest set bit of every coordinate stays at or above 2**-1074.
    k = min(max(k, -1021 - top, *(-1074 - low_bit(c) for c in v if c)), 1020 - top)
    norm, f = ndim_kernels(v, r)
    scaled_norm, scaled_f = ndim_kernels([math.ldexp(c, k) for c in v], r)
    assert same_bits(scaled_norm, math.ldexp(norm, k))
    assert scaled_f.tobytes() == f.tobytes()


FAMILIES = ([bj.Lp(d, 2.5) for d in range(1, 10)] + [bj.LInf(d) for d in range(1, 10)]
            + [bj.DayJames(3.0, 1.5)]
            + [bj.InfSum((bj.LInf(1), bj.Lp(d - 1, 2.0))) for d in range(2, 10)])


@pytest.mark.parametrize("space", FAMILIES, ids=str)
def test_check_vector_rejects_non_finite_coordinates_anywhere(space):
    for i in range(space.dim):
        for bad in (math.nan, math.inf, -math.inf):
            v = np.ones(space.dim)
            v[i] = bad
            with pytest.raises(bj.NonFiniteInput):
                space.check_vector(v)
            with pytest.raises(bj.NonFiniteInput):
                space.check_vector(v.tolist())
        for extreme in (5e-324, 1.7e308, -5e-324, -1.7e308):
            v = np.ones(space.dim)
            v[i] = extreme
            np.testing.assert_array_equal(space.check_vector(v), v)


# ---------------------------------------------------------------------------
# Row kernels: the two-column p-norm and the max norms' ufunc reductions are,
# bit for bit on finite rows, the general forms they replaced.  The references
# below are those forms.


def pscaled_norms(X, r):
    """_pscaled's general form: scale each row by its largest coordinate and
    take the r-norm of the scaled row (r a number or a column of per-row
    exponents)."""
    A = np.abs(X)
    M = A.max(axis=1, keepdims=True)
    T = A / np.where(M > 0.0, M, 1.0)
    return (M * np.sum(T**r, axis=1, keepdims=True) ** (1.0 / r))[:, 0]


def reference_norms(space, X):
    if isinstance(space, bj.LInf):
        return np.abs(X).max(axis=1)
    if isinstance(space, bj.InfSum):
        return np.max([reference_norms(part, x) for part, x in zip(space.parts, space.split(X))],
                      axis=0)
    if isinstance(space, bj.DayJames):
        same = (X[:, 0] < 0.0) == (X[:, 1] < 0.0)
        return pscaled_norms(X, np.where(same, space.p, space.q)[:, None])
    return pscaled_norms(X, space.p)


def kernel_rows(dim, seed, n=3000):
    """Rows of random signs with magnitudes from 1e-300 to 1e300, and rows
    that are zero, on an axis, exactly tied (|a| == |b|), subnormal, or at
    the top of the float range."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-290, 290, (n, 1))
    X *= 10.0 ** rng.uniform(-10, 10, (n, dim))
    X[::10] = 0.0
    X[1::10, 1:] = 0.0
    X[2::10, 0] = 0.0
    X[3::10, 1] = X[3::10, 0] * rng.choice([-1.0, 1.0], len(X[3::10]))
    X[4::10] = rng.integers(-1000, 1001, (len(X[4::10]), dim)) * 5e-324
    X[5::10, 0] = rng.choice([-1.0, 1.0], len(X[5::10])) * 1.7976931348623157e308
    X[6::10] = rng.choice([-1e-300, 1e-300, -1e300, 1e300], X[6::10].shape)
    return X


@pytest.mark.parametrize("space", [
    bj.DayJames(3.0, 1.5), bj.DayJames(1.5, 3.0), bj.DayJames(4.0, 4.0 / 3.0),
    bj.Lp(2, 3.0), bj.Lp(2, 1.2), bj.Lp(3, 2.5), bj.LInf(2), bj.LInf(3),
    bj.InfSum((bj.DayJames(3.0, 1.5), bj.LInf(2))),
    bj.InfSum((bj.InfSum((bj.LInf(2), bj.Lp(2, 3.0))), bj.Lp(3, 2.5), bj.LInf(1))),
], ids=str)
def test_row_norms_are_their_general_forms_bit_for_bit(space):
    X = kernel_rows(space.dim, seed=space.dim)
    with np.errstate(over="ignore"):
        assert space._norms(X).tobytes() == reference_norms(space, X).tobytes()


# ---------------------------------------------------------------------------
# Module boundaries.


def test_no_module_imports_a_private_name_of_another():
    # A helper two modules share lives, public, in the lower one.
    package = Path(bj.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [(path.name, a.name) for a in node.names
                            if a.name.startswith("_") and a.name != "__version__"]
    assert private == []


def test_only_orthogonality_names_an_angle_tag():
    # The margin rule is written once, in orthogonality.angle_masks; a module
    # that named a tag member would be deciding angles on its own.
    members = set(bj.AngleTag.__members__)
    namers = sorted({name for name, tree in _package_modules() for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in members})
    assert namers == ["orthogonality"]


def test_only_orthogonality_calls_classify_many():
    # The package judges angles on witness_rows and angle_masks; the
    # AngleTag object arrays of classify_many are for callers outside it.
    callers = {name for name, tree in _package_modules() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "classify_many" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers <= {"orthogonality"}


def test_only_spaces_reads_the_max_sum_layout():
    # Other modules reach the parts of a max-sum vector through InfSum.split.
    package = Path(bj.__file__).parent
    readers = sorted({path.name for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr == "_offsets"})
    assert readers == ["spaces.py"]


def test_only_spaces_reads_a_plane_functional():
    # A plane's functional leaves spaces only through the perp kernel perp2,
    # which the plane map, orthogonal_rows and orthogonal_direction share.
    package = Path(bj.__file__).parent
    readers = sorted({path.name for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr == "_grad2"})
    assert readers == ["spaces.py"]


def test_only_spaces_solves_a_pairing():
    # A direction's partner is solved once, in the pairing row partner2,
    # which the Radon scan and pairing_table share.
    package = Path(bj.__file__).parent
    readers = sorted({path.name for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if "pairing_angle" in (getattr(node, "id", None), getattr(node, "attr", None))})
    assert readers == ["spaces.py"]


@pytest.mark.parametrize("plane", [bj.DayJames(3.0, 1.5), bj.DayJames(1.5, 3.0),
                                   bj.Lp(2, 3.0), bj.Lp(2, 2.0)], ids=str)
def test_perp2_is_the_perp_of_the_support_functional(plane):
    rng = np.random.default_rng(3)
    axes = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, 2.5), (3.0, -0.0)]
    for a, b in axes + [tuple(v) for v in rng.standard_normal((50, 2)).tolist()]:
        u, v = spaces.perp2(plane, a, b)
        f = plane.support_set([a, b])[0]
        assert (u, v) == (-f[1], f[0])
        assert f[0] * u + f[1] * v == 0.0
    for a, b in axes:
        assert {abs(c) for c in spaces.perp2(plane, a, b)} == {0.0, 1.0}


def _package_modules():
    package = Path(bj.__file__).parent
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]


def test_no_module_imports_dataclasses():
    # The records are plain frozen classes: dataclasses would generate and
    # compile their methods on every import of the package.
    importers = sorted({name for name, tree in _package_modules() for node in ast.walk(tree)
                        if isinstance(node, ast.Import) and any(
                            a.name.split(".")[0] == "dataclasses" for a in node.names)
                        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"})
    assert importers == []


def test_the_package_has_no_assert_statement():
    # Runtime invariants must hold under python -O, which strips asserts.
    found = [(name, node.lineno) for name, tree in _package_modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_draw_table_and_the_section_search_build_generators():
    # Sweeps read the seeded draw table; the section search keeps one
    # generator per candidate, which keeps its flags prefix-stable.
    callers = set()
    for name, tree in _package_modules():
        for top in tree.body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "attr", getattr(func, "id", None)) == "default_rng":
                    callers.add(f"{name}.{getattr(top, 'name', '<module>')}")
    assert callers == {"sampling.draw_rows", "analysis.section_candidates",
                       "analysis.euclidean_section_search"}
