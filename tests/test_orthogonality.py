import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import bjorth as bj
from bjorth import orthogonality
from bjorth.errors import ZeroDirection, ZeroVector
from bjorth.orthogonality import (
    _INV_PHI,
    _MIN_BRACKET,
    AngleTag,
    _golden_section_rows,
    _min_on_line,
    _min_on_lines,
    golden_section_min,
)

from conftest import SPACE_ZOO, dispatch_envs, draw_vector, outcome, random_nonzero


# ---------------------------------------------------------------------------
# Independent oracle: dense-grid line minimization (no golden section).


def brute_min_on_line(space, x, y, points=4001, refinements=4):
    """min_t ||x + t*y|| by repeated dense-grid refinement of the safe bracket."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = 2.0 * space.norm(x) / space.norm(y)
    lo, hi = -lam, lam
    best_t = best_v = None
    for _ in range(refinements + 1):
        ts = np.linspace(lo, hi, points)
        vals = [space.norm(x + t * y) for t in ts]
        k = int(np.argmin(vals))
        best_t, best_v = float(ts[k]), float(vals[k])
        lo, hi = ts[max(0, k - 1)], ts[min(points - 1, k + 1)]
    return best_t, best_v


# ---------------------------------------------------------------------------
# Directional bounds.


def _bounds(space, x, y):
    rel = bj.classify_angle(space, x, y)
    return rel.min_bound, rel.max_bound


def test_bounds_euclid_singleton():
    assert _bounds(bj.Lp(2, 2.0), [1, 0], [0, 1]) == (0.0, 0.0)
    assert _bounds(bj.Lp(2, 2.0), [1, 0], [1, 1]) == (1.0, 1.0)


def test_bounds_linf_vertices_and_quotients():
    space = bj.LInf(2)
    mn, mx = _bounds(space, [1, 1], [1, -1])
    assert (mn, mx) == (-1.0, 1.0)
    # Cross-check: one-sided difference quotients of the max norm.
    x, y = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    h = 1e-8
    right = (space.norm(x + h * y) - space.norm(x)) / h
    left = (space.norm(x) - space.norm(x - h * y)) / h
    assert right == pytest.approx(mx, abs=1e-6)
    assert left == pytest.approx(mn, abs=1e-6)


def test_bounds_zero_vector():
    rel = bj.classify_angle(bj.Lp(2, 2.0), [0, 0], [1, 0])
    assert rel.tag is AngleTag.DEGENERATE_LEFT and (rel.min_bound, rel.max_bound) == (0.0, 0.0)
    with pytest.raises(ZeroVector):
        bj.Lp(2, 2.0).support_set([0, 0])


# ---------------------------------------------------------------------------
# Classification.


def test_classify_examples():
    l2 = bj.Lp(2, 2.0)
    assert bj.classify_angle(l2, [1, 0], [0, 1]).tag is AngleTag.ORTHOGONAL
    assert bj.classify_angle(l2, [1, 0], [1, 1]).tag is AngleTag.STRICTLY_ACUTE
    assert bj.classify_angle(l2, [1, 0], [-1, 1]).tag is AngleTag.STRICTLY_OBTUSE
    assert bj.classify_angle(bj.LInf(2), [1, 1], [1, -1]).tag is AngleTag.ORTHOGONAL
    assert bj.classify_angle(l2, [0, 0], [1, 1]).tag is AngleTag.DEGENERATE_LEFT


def test_classify_linf_straddle_agrees_with_brute_force():
    # min over t of max(|1+t|, |1-t|) is 1 at t = 0.
    _, val = brute_min_on_line(bj.LInf(2), [1, 1], [1, -1])
    assert val == pytest.approx(1.0, abs=1e-9)


def test_orthogonality_asymmetry_witness():
    l3 = bj.Lp(2, 3.0)
    # f at (2,1) is (4,1)/9^(2/3), which kills (1,-4) exactly.
    assert bj.is_bj_orthogonal(l3, [2, 1], [1, -4])
    # f at (1,-4) is (1,-16)/65^(2/3); on (2,1) it gives -14/65^(2/3).
    mn, mx = _bounds(l3, [1, -4], [2, 1])
    assert mx == pytest.approx(-14 / 65 ** (2 / 3), abs=1e-12)
    assert not bj.is_bj_orthogonal(l3, [1, -4], [2, 1])


def test_zero_vector_conventions():
    l2 = bj.Lp(2, 2.0)
    assert bj.is_bj_orthogonal(l2, [0, 0], [1, 1])
    assert bj.is_bj_orthogonal(l2, [1, 1], [0, 0])


# ---------------------------------------------------------------------------
# Line-minimization oracles.


def test_oracle_min_examples():
    l2 = bj.Lp(2, 2.0)
    # Argmin accuracy at a smooth minimum is limited to ~sqrt(eps) because
    # values flatten to the same double there; value accuracy is unaffected.
    lam, val = bj.oracle_min_over_line(l2, [1, 0], [0, 1])
    assert lam == pytest.approx(0.0, abs=1e-7)
    assert val == pytest.approx(1.0, abs=1e-12)
    lam, val = bj.oracle_min_over_line(l2, [1, 0], [1, 1])
    assert lam == pytest.approx(-0.5, abs=1e-7)
    assert val == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    lam, val = bj.oracle_min_over_line(bj.LInf(2), [1, 1], [1, -1])
    assert val == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ZeroDirection):
        bj.oracle_min_over_line(l2, [1, 0], [0, 0])


@pytest.mark.parametrize("space", [bj.Lp(2, 3.0), bj.DayJames(3.0, 1.5), bj.LInf(2)], ids=str)
def test_oracle_min_matches_brute_force(space):
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = random_nonzero(space, rng)
        y = random_nonzero(space, rng)
        _, val = bj.oracle_min_over_line(space, x, y)
        _, brute = brute_min_on_line(space, x, y)
        assert val == pytest.approx(brute, abs=1e-7)


def test_orthogonality_oracle_examples():
    l2 = bj.Lp(2, 2.0)
    assert bj.is_bj_orthogonal_oracle(l2, [1, 0], [0, 1])
    assert bj.is_bj_orthogonal_oracle(bj.Lp(2, 3.0), [2, 1], [1, -4])
    assert not bj.is_bj_orthogonal_oracle(l2, [1, 0], [1, 1])


def test_one_sided_oracle_examples():
    l2 = bj.Lp(2, 2.0)
    assert bj.one_sided_acute_oracle(l2, [1, 0], [1, 1])
    assert not bj.one_sided_acute_oracle(l2, [1, 0], [-1, 1])
    assert bj.one_sided_acute_oracle(l2, [1, 0], [0, 1])
    with pytest.raises(ZeroVector):
        bj.one_sided_acute_oracle(l2, [0, 0], [1, 1])


# ---------------------------------------------------------------------------
# Mutual orthogonality.


def test_mutual_examples():
    assert bj.is_mutually_orthogonal(bj.Lp(2, 2.0), [1, 0], [0, 1])
    assert not bj.is_mutually_orthogonal(bj.Lp(2, 3.0), [2, 1], [1, -4])
    dj = bj.DayJames(3.0, 1.5)
    x = np.array([1.0, 1.0]) / 2 ** (1 / 3)
    y = np.array([1.0, -1.0]) / 2 ** (2 / 3)
    assert bj.is_mutually_orthogonal(dj, x, y)


# ---------------------------------------------------------------------------
# Structural properties of the classification.

scalars = st.floats(min_value=0.05, max_value=20.0)


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_positive_scaling_preserves_tag(data, space):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = random_nonzero(space, rng)
    y = random_nonzero(space, rng)
    a = data.draw(scalars)
    b = data.draw(scalars)
    tag = bj.classify_angle(space, x, y).tag
    assert bj.classify_angle(space, a * x, b * y).tag is tag


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_reflection_swaps_acute_and_obtuse(data, space):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = random_nonzero(space, rng)
    y = random_nonzero(space, rng)
    tag = bj.classify_angle(space, x, y).tag
    neg = bj.classify_angle(space, x, -y).tag
    flip = {
        AngleTag.STRICTLY_ACUTE: AngleTag.STRICTLY_OBTUSE,
        AngleTag.STRICTLY_OBTUSE: AngleTag.STRICTLY_ACUTE,
        AngleTag.ORTHOGONAL: AngleTag.ORTHOGONAL,
    }
    assert neg is flip[tag]


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_orthogonal_iff_acute_and_obtuse(data, space):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = random_nonzero(space, rng)
    y = random_nonzero(space, rng)
    rel = bj.classify_angle(space, x, y)
    assert rel.is_orthogonal == (rel.is_acute and rel.is_obtuse)


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_self_angle_strictly_acute(data, space):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = random_nonzero(space, rng)
    assert bj.classify_angle(space, x, x).tag is AngleTag.STRICTLY_ACUTE


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_nondegeneracy(space):
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = random_nonzero(space, rng)
        assert not bj.is_bj_orthogonal(space, x, x)


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_constructed_partner_is_orthogonal_and_scale_invariant(space):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = random_nonzero(space, rng)
        y = bj.orthogonal_direction(space, x, rng)
        assert bj.is_bj_orthogonal(space, x, y)
        # Homogeneity: orthogonality survives signed rescaling of both sides.
        for a, b in ((2.5, 0.3), (-1.0, 1.0), (-0.7, -3.0)):
            assert bj.is_bj_orthogonal(space, a * x, b * y)


@pytest.mark.parametrize("space", [bj.Lp(2, 3.0), bj.DayJames(3.0, 1.5), bj.LInf(3)], ids=str)
def test_strict_acute_cone_is_convex(space):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 500:
        x = random_nonzero(space, rng)
        y1 = random_nonzero(space, rng)
        y2 = random_nonzero(space, rng)
        r1 = bj.classify_angle(space, x, y1)
        r2 = bj.classify_angle(space, x, y2)
        if r1.tag is not AngleTag.STRICTLY_ACUTE or r2.tag is not AngleTag.STRICTLY_ACUTE:
            continue
        t = rng.uniform(0.0, 1.0)
        combo = t * y1 + (1 - t) * y2
        assert bj.classify_angle(space, x, combo).tag is AngleTag.STRICTLY_ACUTE
        checked += 1


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_support_test_agrees_with_line_oracles(space):
    band = bj.oracle_exclusion_band()
    rng = np.random.default_rng(23)
    compared = 0
    for _ in range(250):
        x = random_nonzero(space, rng)
        y = random_nonzero(space, rng)
        rel = bj.classify_angle(space, x, y)
        if rel.orthogonality_distance() > band:
            assert bj.is_bj_orthogonal(space, x, y) == bj.is_bj_orthogonal_oracle(space, x, y)
            compared += 1
        if rel.acute_distance() > band:
            assert rel.is_acute == bj.one_sided_acute_oracle(space, x, y)
    assert compared > 200


# ---------------------------------------------------------------------------
# Batched classification against the scalar reference.


def _tied(space, rng):
    """A vector with exact norm ties: every max-norm coordinate and every
    max-sum part at norm one (p-norm parts sit on an axis, where the
    max-scaled norm is exact)."""
    if isinstance(space, bj.InfSum):
        return np.concatenate([_tied(part, rng) for part in space.parts])
    if isinstance(space, bj.LInf):
        return rng.choice([-1.0, 1.0], space.dim)
    v = np.zeros(space.dim)
    v[rng.integers(space.dim)] = rng.choice([-1.0, 1.0])
    return v


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_classify_many_agrees_with_classify_angle(data, space):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    scale = 2.0 ** data.draw(st.integers(-40, 40))
    xs, ys = [], []
    for _ in range(6):
        x = random_nonzero(space, rng)
        xs += [x, x, x, x]
        ys += [random_nonzero(space, rng), bj.orthogonal_direction(space, x, rng), x, -x]
    for _ in range(4):
        t = _tied(space, rng)
        xs += [t, t, t]
        ys += [random_nonzero(space, rng), _tied(space, rng), -t]
    zero = np.zeros(space.dim)
    xs += [zero, zero, random_nonzero(space, rng)]
    ys += [random_nonzero(space, rng), zero, zero]
    X, Y = scale * np.array(xs), np.array(ys)

    many = bj.classify_many(space, X, Y)
    orth_dist, acute_dist = many.orthogonality_distance(), many.acute_distance()
    for i in range(len(X)):
        rel = bj.classify_angle(space, X[i], Y[i])
        assert many.tag[i] is rel.tag, i
        # Bounds are values f(y) with dual norm one, so ||y|| is their unit.
        tol = 1e-12 * rel.scale
        assert math.isclose(many.scale[i], rel.scale, rel_tol=1e-12)
        assert math.isclose(many.min_bound[i], rel.min_bound, rel_tol=1e-12, abs_tol=tol)
        assert math.isclose(many.max_bound[i], rel.max_bound, rel_tol=1e-12, abs_tol=tol)
        assert math.isclose(orth_dist[i], rel.orthogonality_distance(),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(acute_dist[i], rel.acute_distance(), rel_tol=1e-12, abs_tol=1e-12)
        assert many.is_orthogonal[i] == rel.is_orthogonal
        assert many.is_acute[i] == rel.is_acute
        assert many.is_obtuse[i] == rel.is_obtuse


def test_classify_many_shape_checks():
    with pytest.raises(bj.DimensionMismatch):
        bj.classify_many(bj.Lp(2, 2.0), np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(bj.DimensionMismatch):
        bj.classify_many(bj.Lp(2, 2.0), np.ones((3, 2)), np.ones((2, 2)))
    with pytest.raises(bj.DimensionMismatch):
        bj.classify_many(bj.Lp(2, 2.0), np.ones(2), np.ones(2))
    empty = bj.classify_many(bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1))),
                             np.empty((0, 3)), np.empty((0, 3)))
    assert len(empty.tag) == 0


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_classify_many_on_mixed_stacks(space):
    # One array path takes live and zero x rows alike.  Stacks: zero x rows
    # only, an overflowing y on a zero x row only, and one on a live row
    # too.  A max norm's ||y|| never overflows, so there no row rescales.
    rng = np.random.default_rng(29)
    x, y, zero = random_nonzero(space, rng), random_nonzero(space, rng), np.zeros(space.dim)
    huge = np.copysign(np.full(space.dim, 1.7e308), y)
    overflows = space.norm(huge) == math.inf
    stacks = [([x, zero, x, zero], [y, y, -x, zero], False),
              ([x, zero, x], [y, huge, x], False),
              ([zero, x, x, zero], [huge, huge, y, y], overflows)]
    for X, Y, scaled in stacks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = bj.classify_many(space, X, Y)
        assert (many._scaled is not None) == scaled
        orth_dist, acute_dist = many.orthogonality_distance(), many.acute_distance()
        for i, (xi, yi) in enumerate(zip(X, Y)):
            rel = bj.classify_angle(space, xi, yi)
            assert many.tag[i] is rel.tag, i
            if not xi.any():
                assert (many.min_bound[i], many.max_bound[i], many.scale[i]) == (0.0, 0.0, 0.0)
                assert orth_dist[i] == acute_dist[i] == math.inf
                continue
            tol = 1e-12 * rel.scale
            assert math.isclose(many.scale[i], rel.scale, rel_tol=1e-12)
            assert math.isclose(many.min_bound[i], rel.min_bound, rel_tol=1e-12, abs_tol=tol)
            assert math.isclose(many.max_bound[i], rel.max_bound, rel_tol=1e-12, abs_tol=tol)
            assert math.isclose(orth_dist[i], rel.orthogonality_distance(),
                                rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(acute_dist[i], rel.acute_distance(), rel_tol=1e-12, abs_tol=1e-12)


def test_relations_compare_to_one_bool():
    # Array relations compare by their tags and three fields, and give one
    # bool as scalar relations do; the derived _scaled does not count.
    l2 = bj.Lp(2, 2.0)
    X, Y = [[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]
    many = bj.classify_many(l2, X, Y)
    assert (many == bj.classify_many(l2, X, Y)) is True
    assert (many != bj.classify_many(l2, X, Y)) is False
    assert (many == bj.classify_many(l2, X, Y[::-1])) is False
    assert (many == bj.classify_many(l2, X[:1], Y[:1])) is False
    one = bj.classify_angle(l2, X[0], Y[0])
    assert one == bj.classify_angle(l2, X[0], Y[0]) and one != many
    assert one == bj.AngleRelation(one.tag, one.min_bound, one.max_bound, one.scale, (0.0,))
    assert hash(one) == hash(bj.classify_angle(l2, X[0], Y[0]))


# ---------------------------------------------------------------------------
# The input contract: finite coordinates, exact zero, scale invariance.


def test_non_finite_margin_is_rejected():
    # Non-finite vectors: test_vector_entry_points_check_their_input.
    dj = bj.DayJames(3.0, 1.5)
    for margin in (math.nan, math.inf, -math.inf):
        with pytest.raises(bj.NonFiniteInput):
            bj.classify_angle(dj, [1.0, 1.0], [1.0, -1.0], margin)
        with pytest.raises(bj.NonFiniteInput):
            bj.classify_many(dj, [[1.0, 1.0]], [[1.0, -1.0]], margin)


L2 = bj.Lp(2, 2.0)
OBTUSE = ([1.0, 0.0], [-1e-3, 1.0])  # strictly obtuse, within 1e-2 of orthogonal

# Every public entry point that takes a decision margin, called with margin m.
MARGIN_ENTRY_POINTS = {
    "classify_angle": lambda m: bj.classify_angle(L2, *OBTUSE, margin=m),
    "classify_many": lambda m: bj.classify_many(L2, [OBTUSE[0]], [OBTUSE[1]], m),
    "is_bj_orthogonal": lambda m: bj.is_bj_orthogonal(L2, *OBTUSE, margin=m),
    "is_mutually_orthogonal": lambda m: bj.is_mutually_orthogonal(L2, *OBTUSE, margin=m),
    "is_bj_orthogonal_oracle": lambda m: bj.is_bj_orthogonal_oracle(
        L2, [1.0, 0.0], [0.0, 1.0], margin=m),
    "one_sided_acute_oracle": lambda m: bj.one_sided_acute_oracle(L2, *OBTUSE, margin=m),
    "one_sided_acute_many": lambda m: bj.one_sided_acute_many(
        L2, [OBTUSE[0]], [OBTUSE[1]], m),
    "radon_defect": lambda m: bj.radon_defect(DJ, grid=16, margin=m),
    "sum_acute_equivalence_check": lambda m: bj.sum_acute_equivalence_check(
        L2, bj.LInf(1), n_samples=4, margin=m),
    "sample_orthograph": lambda m: bj.sample_orthograph(L2, [0.0, 1.0], margin=m),
    "euclidean_section_search": lambda m: bj.euclidean_section_search(
        L2, [bj.SectionCandidate([1.0, 0.0], [0.0, 1.0])], pair_samples=4, tol=m),
    "verify_preserver": lambda m: bj.verify_preserver(
        bj.IdentityMap(L2), 2, margin=m),
}


@pytest.mark.parametrize("margin", [-1e-2, -1e-8, -5e-324, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(MARGIN_ENTRY_POINTS))
def test_bad_margins_are_rejected_at_every_entry(entry, margin):
    # A negative margin used to tag the obtuse pair strictly acute, report a
    # Radon-plane witness, and so on; a NaN made the oracle answer False.
    error = bj.NonFiniteInput if not math.isfinite(margin) else bj.InvalidMargin
    assert issubclass(bj.InvalidMargin, ValueError)
    with pytest.raises(error):
        MARGIN_ENTRY_POINTS[entry](margin)


@pytest.mark.parametrize("entry", sorted(MARGIN_ENTRY_POINTS))
def test_zero_margins_are_accepted_at_every_entry(entry):
    for margin in (0.0, -0.0):
        MARGIN_ENTRY_POINTS[entry](margin)
    assert bj.classify_angle(L2, *OBTUSE, margin=0.0).tag is AngleTag.STRICTLY_OBTUSE


def test_mutual_orthogonality_checks_each_vector_once(monkeypatch):
    space = bj.InfSum((bj.DayJames(3.0, 1.5), bj.LInf(2)))
    rng = np.random.default_rng(5)
    pairs = [(random_nonzero(space, rng), random_nonzero(space, rng)) for _ in range(20)]
    pairs += [(x, bj.orthogonal_direction(space, x, rng)) for x, _ in pairs]
    pairs += [(np.zeros(4), pairs[0][0]), ([1.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, 0.0])]
    want = [bj.is_bj_orthogonal(space, x, y) and bj.is_bj_orthogonal(space, y, x)
            for x, y in pairs]
    assert any(want) and not all(want)
    calls = []
    original = bj.NormedSpace.check_vector
    monkeypatch.setattr(bj.NormedSpace, "check_vector",
                        lambda self, u: calls.append(self) or original(self, u))
    for (x, y), mutual in zip(pairs, want):
        calls.clear()
        assert bj.is_mutually_orthogonal(space, x, y) == mutual
        assert calls == [space, space]


def test_orthogonal_direction_takes_the_first_dominant_part():
    # Both parts attain the norm: the partner lies in the first, as with np.argmax.
    space = bj.InfSum((bj.LInf(2), bj.Lp(2, 2.0)))
    y = bj.orthogonal_direction(space, [1.0, 0.5, 0.6, 0.8], np.random.default_rng(0))
    assert y[0] == 0.0 and y[1] != 0.0 and not y[2:].any()


def test_tiny_nonzero_vector_is_not_zero():
    l2 = bj.Lp(2, 2.0)
    assert not bj.is_bj_orthogonal(l2, [1e-13, 0.0], [1.0, 0.0])
    assert not l2.is_zero([1e-300, 0.0])
    assert l2.is_zero([0.0, -0.0])
    rels = bj.classify_many(l2, [[1e-13, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])
    assert list(rels.tag) == [AngleTag.STRICTLY_ACUTE, AngleTag.DEGENERATE_LEFT]


# Every entry point with a one-vector zero test, called with the vector v
# and the unit vector e on v's nonzero coordinate, and what each returns (or
# the error it raises) on a zero v and on v = s * 5e-324 * e, s = 1 and -1;
# orthogonal_direction gives the tag of v against its partner.
ZERO_TEST_ENTRY_POINTS = {
    "classify_angle": (lambda sp, v, e: bj.classify_angle(sp, v, e).tag, AngleTag.DEGENERATE_LEFT,
                       {1: AngleTag.STRICTLY_ACUTE, -1: AngleTag.STRICTLY_OBTUSE}),
    "is_bj_orthogonal": (lambda sp, v, e: bj.is_bj_orthogonal(sp, v, e), True,
                         {1: False, -1: False}),
    "is_mutually_orthogonal": (lambda sp, v, e: bj.is_mutually_orthogonal(sp, v, e), True,
                               {1: False, -1: False}),
    "orthogonal_direction": (lambda sp, v, e: bj.classify_angle(sp, v, bj.orthogonal_direction(
        sp, v, np.random.default_rng(0))).tag, ZeroVector,
                             {1: AngleTag.ORTHOGONAL, -1: AngleTag.ORTHOGONAL}),
    "oracle_min_over_line": (lambda sp, v, e: bj.oracle_min_over_line(sp, e, v)[1] < 0.5,
                             ZeroDirection, {1: True, -1: True}),
    "is_bj_orthogonal_oracle-x": (lambda sp, v, e: bj.is_bj_orthogonal_oracle(sp, v, e), True,
                                  {1: False, -1: False}),
    "is_bj_orthogonal_oracle-y": (lambda sp, v, e: bj.is_bj_orthogonal_oracle(sp, e, v), True,
                                  {1: False, -1: False}),
    "one_sided_acute_oracle-x": (lambda sp, v, e: bj.one_sided_acute_oracle(sp, v, e),
                                 ZeroVector, {1: True, -1: False}),
    "one_sided_acute_oracle-y": (lambda sp, v, e: bj.one_sided_acute_oracle(sp, e, v), True,
                                 {1: True, -1: False}),
    "support_set": (lambda sp, v, e: [f.tolist() for f in sp.support_set(v)] == [np.sign(v).tolist()],
                    ZeroVector, {1: True, -1: True}),
    "is_zero": (lambda sp, v, e: sp.is_zero(v), True, {1: False, -1: False}),
}
POINT_QUERY_SPACES = ["lp:2:3", "lp:5:1.5", "linf:4", "dayjames:3:1.5",
                      "sum(dayjames:3:1.5,linf:2)"]


@pytest.mark.parametrize("vector", ["0.0", "-0.0", "5e-324", "-5e-324"])
@pytest.mark.parametrize("text", POINT_QUERY_SPACES)
@pytest.mark.parametrize("entry", sorted(ZERO_TEST_ENTRY_POINTS))
def test_zero_tests_read_only_exact_zeros(entry, text, vector):
    # -0.0 is zero and the smallest subnormal is not, at every coordinate
    # that the zero test reads, in every space the point queries use.
    call, at_zero, at_tiny = ZERO_TEST_ENTRY_POINTS[entry]
    space, c = bj.parse_space(text), float(vector)
    for i in (0, space.dim - 1):
        e = np.eye(space.dim)[i]
        v = np.full(space.dim, c) if c == 0.0 else c * e
        want = at_zero if c == 0.0 else at_tiny[int(math.copysign(1.0, c))]
        assert outcome(call, space, v, e) == want, i


@pytest.mark.parametrize("text", POINT_QUERY_SPACES)
def test_oracles_search_a_subnormal_x_at_full_precision(text):
    # Along e the value |c + t * y| of a subnormal x = c * e rounds to a
    # multiple of 5e-324, flat where the search looks; scaled up, the
    # search finds the zero that makes x neither orthogonal to e nor acute
    # to a y of the other sign, in the scalar and the lockstep oracles.
    space = bj.parse_space(text)
    for i in (0, space.dim - 1):
        e = np.eye(space.dim)[i]
        for c in (5e-324, -5e-324, 1e-315):
            for y in (e, -e):
                acute = (c > 0.0) == (y[i] > 0.0)
                assert not bj.is_bj_orthogonal_oracle(space, c * e, y)
                assert bj.one_sided_acute_oracle(space, c * e, y) == acute
                assert bj.one_sided_acute_many(space, [c * e], [y]).tolist() == [acute]


DJ = bj.DayJames(3.0, 1.5)
G = np.array([1.0, 0.5])

# Every public entry point that takes vectors, as (dimension of the bad
# vector's slot, call with the bad vector v and the Day-James plane map m).
VECTOR_ENTRY_POINTS = {
    "norm": (2, lambda v, m: DJ.norm(v)),
    "is_zero": (2, lambda v, m: DJ.is_zero(v)),
    "support_set": (2, lambda v, m: DJ.support_set(v)),
    "classify_angle-x": (2, lambda v, m: bj.classify_angle(DJ, v, G)),
    "classify_angle-y": (2, lambda v, m: bj.classify_angle(DJ, G, v)),
    "classify_many-x": (2, lambda v, m: bj.classify_many(DJ, [v], [G])),
    "classify_many-y": (2, lambda v, m: bj.classify_many(DJ, [G], [v])),
    "is_mutually_orthogonal-x": (2, lambda v, m: bj.is_mutually_orthogonal(DJ, v, G)),
    "is_mutually_orthogonal-y": (2, lambda v, m: bj.is_mutually_orthogonal(DJ, G, v)),
    "oracle_min_over_line-x": (2, lambda v, m: bj.oracle_min_over_line(DJ, v, G)),
    "oracle_min_over_line-y": (2, lambda v, m: bj.oracle_min_over_line(DJ, G, v)),
    "is_bj_orthogonal_oracle-x": (2, lambda v, m: bj.is_bj_orthogonal_oracle(DJ, v, G)),
    "is_bj_orthogonal_oracle-y": (2, lambda v, m: bj.is_bj_orthogonal_oracle(DJ, G, v)),
    "one_sided_acute_oracle-x": (2, lambda v, m: bj.one_sided_acute_oracle(DJ, v, G)),
    "one_sided_acute_oracle-y": (2, lambda v, m: bj.one_sided_acute_oracle(DJ, G, v)),
    "one_sided_acute_many-x": (2, lambda v, m: bj.one_sided_acute_many(DJ, [v], [G])),
    "one_sided_acute_many-y": (2, lambda v, m: bj.one_sided_acute_many(DJ, [G], [v])),
    "orthogonal_direction": (2, lambda v, m: bj.orthogonal_direction(
        DJ, v, np.random.default_rng(0))),
    "parallelogram_defect-u": (2, lambda v, m: bj.parallelogram_defect(DJ, v, G)),
    "parallelogram_defect-v": (2, lambda v, m: bj.parallelogram_defect(DJ, G, v)),
    "euclidean_section_search": (2, lambda v, m: bj.euclidean_section_search(
        DJ, [bj.SectionCandidate(G, [0.0, 1.0]),
             bj.SectionCandidate(v, np.roll(np.eye(len(v))[0], 1))])),
    "sample_orthograph": (2, lambda v, m: bj.sample_orthograph(DJ, [G, v])),
    "RadonPlaneMap.apply": (2, lambda v, m: m.apply(v)),
    "RadonPlaneMap.apply_inverse": (2, lambda v, m: m.apply_inverse(v)),
    "SumMap.apply": (3, lambda v, m: bj.SumMap((m, bj.IdentityMap(bj.LInf(1)))).apply(v)),
}


@pytest.fixture(scope="module")
def plane_map():
    return bj.build_preserver(DJ, 64)


@pytest.mark.parametrize("bad", ["wrong-length", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
def test_vector_entry_points_check_their_input(entry, bad, plane_map):
    dim, call = VECTOR_ENTRY_POINTS[entry]
    if bad == "wrong-length":
        v, error = np.ones(dim + 1), bj.DimensionMismatch
    else:
        v, error = np.ones(dim), bj.NonFiniteInput
        v[-1] = math.nan if bad == "nan" else -math.inf
    with pytest.raises(error):
        call(v, plane_map)


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_classification_is_invariant_under_power_of_two_scaling(data, space):
    # Scaling by 2^k is exact in floating point, so the tags must not move.
    x = draw_vector(data, space.dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    ys = [draw_vector(data, space.dim), bj.orthogonal_direction(space, x, rng), x, -x]
    j, k = data.draw(st.integers(-900, 900)), data.draw(st.integers(-900, 900))
    tags = [bj.classify_angle(space, x, y).tag for y in ys]
    assert [bj.classify_angle(space, 2.0**j * x, 2.0**k * y).tag for y in ys] == tags
    many = bj.classify_many(space, [2.0**j * x] * len(ys), [2.0**k * y for y in ys])
    assert list(many.tag) == tags


# ---------------------------------------------------------------------------
# Line oracles at extreme scales, and the lockstep array oracle.


def test_oracle_survives_bracket_overflow():
    # 2||x||/||y|| = 2e600 overflows; x is orthogonal to y and acute to it.
    l2 = bj.Lp(2, 2.0)
    x, y = [1e300, 0.0], [0.0, 1e-300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, val = bj.oracle_min_over_line(l2, x, y)
        assert math.isfinite(val) and val == pytest.approx(1e300, rel=1e-12)
        rel = bj.classify_angle(l2, x, y)
        assert rel.is_orthogonal
        assert bj.is_bj_orthogonal_oracle(l2, x, y)
        assert bj.one_sided_acute_oracle(l2, x, y) == rel.is_acute
        assert list(bj.one_sided_acute_many(l2, [x], [y])) == [True]


@pytest.mark.parametrize("text", ["lp:2:2", "dayjames:3:1.5"])
def test_oracles_survive_a_norm_beyond_the_float_range(text):
    # ||x|| is about 2.4e308 (l2) or 2.1e308 (Day-James): finite coordinates,
    # a norm past the float range.  Before x was scaled down, the oracle
    # returned (-inf, nan) and called the orthogonal pair non-orthogonal.
    space = bj.parse_space(text)
    x = [1.7e308, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, val = bj.oracle_min_over_line(space, x, [1.0, -1.0])
        assert math.isfinite(t) and val == math.inf  # the true minimum is ||x||
        for y in ([1.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, 1e-300]):
            rel = bj.classify_angle(space, x, y)
            assert bj.is_bj_orthogonal_oracle(space, x, y) == rel.is_orthogonal, y
            assert bj.one_sided_acute_oracle(space, x, y) == rel.is_acute, y
            assert list(bj.one_sided_acute_many(space, [x], [y])) == [rel.is_acute], y
        # x + 1.7e308 y vanishes: the minimum is in range and found there.
        t, val = bj.oracle_min_over_line(space, x, [-1.0, -1.0])
        assert t == pytest.approx(1.7e308, rel=1e-9) and val <= 1e-9 * 1.7e308


def test_max_sum_classifies_a_norm_beyond_the_float_range():
    # The part norms overflow; the tie test must still pick the plane part.
    X = [[1.7e308, 1.7e308, 0.0], [1.7e308, 1.7e308, 1.7e308], [1e308, 0.0, 1.7e308]]
    Y = [[1.0, -1.0, 0.0], [1.0, -1.0, 5.0], [0.0, 1.0, 1.0]]
    # The second space pads each row with a zero linf coordinate.
    for spec, pad in (("sum(lp:2:2,linf:1)", []), ("sum(dayjames:3:1.5,linf:2)", [0.0])):
        space = bj.parse_space(spec)
        xs, ys = [x + pad for x in X], [y + pad for y in Y]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = bj.classify_many(space, xs, ys)
            for i, (x, y) in enumerate(zip(xs, ys)):
                rel = bj.classify_angle(space, x, y)
                small = bj.classify_angle(space, np.ldexp(x, -1000), y)
                assert rel.tag is small.tag and many.tag[i] is small.tag, (spec, i)
                assert (rel.min_bound, rel.max_bound) == (small.min_bound, small.max_bound)
        assert [t.value for t in many.tag] == ["orthogonal", "orthogonal", "strictly-acute"]


def test_oracle_resolves_tiny_brackets():
    # 2||x||/||y|| = 2e-11 is below the search tolerance: before rescaling,
    # the search took no step and called this parallel pair orthogonal.
    l2 = bj.Lp(2, 2.0)
    x, y = [1.0, 0.0], [-1e11, 0.0]
    _, val = bj.oracle_min_over_line(l2, x, y)
    assert val < 1e-9
    assert not bj.is_bj_orthogonal_oracle(l2, x, y)
    assert not bj.one_sided_acute_oracle(l2, x, y)
    assert list(bj.one_sided_acute_many(l2, [x], [y])) == [False]


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_oracles_agree_with_classify_angle_at_every_scale(data, space):
    band = bj.oracle_exclusion_band()
    x = draw_vector(data, space.dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    ys = [draw_vector(data, space.dim), bj.orthogonal_direction(space, x, rng), x, -x]
    j, k = data.draw(st.integers(-900, 900)), data.draw(st.integers(-900, 900))
    xs, ys = [2.0**j * x] * len(ys), [2.0**k * y for y in ys]
    acute_many = bj.one_sided_acute_many(space, xs, ys)
    for sx, sy, many in zip(xs, ys, acute_many):
        rel = bj.classify_angle(space, sx, sy)
        if rel.is_orthogonal or rel.orthogonality_distance() > band:
            assert bj.is_bj_orthogonal_oracle(space, sx, sy) == rel.is_orthogonal
        if rel.is_orthogonal or rel.acute_distance() > band:
            assert bj.one_sided_acute_oracle(space, sx, sy) == rel.is_acute
            assert many == rel.is_acute


def _oracle_rows(space, seed, n=300):
    """Random row pairs, some with y scaled past either end of the
    unrescaled bracket range, some with exact ties and zero parts."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, space.dim))
    Y = rng.standard_normal((n, space.dim))
    X[::9] *= 2.0**-700
    Y[::13] *= 2.0**600
    Y[1::17] *= 2.0**-40
    X[2::11] = np.round(X[2::11])
    X[3::19, 0] = 0.0
    X[~X.any(axis=1)] = 1.0
    Y[~Y.any(axis=1)] = 1.0
    return X, Y


@pytest.mark.parametrize("text", ["linf:3", "sum(linf:2,linf:1)"])
def test_lockstep_oracle_is_bit_identical_where_norms_agree_exactly(text):
    # Row and scalar max norms are the same floats, so every comparison of
    # the lockstep search is the scalar one.
    space = bj.parse_space(text)
    X, Y = _oracle_rows(space, 5)
    t, val, _, _ = _min_on_lines(space, X, Y, 0.0)
    ref = [_min_on_line(space, X[i], Y[i], 0.0) for i in range(len(X))]
    assert t.tolist() == [r[0] for r in ref]
    assert val.tolist() == [r[1] for r in ref]


@pytest.mark.parametrize("text", ["sum(lp:2:2,linf:1)", "sum(dayjames:3:1.5,linf:2)"])
def test_lockstep_oracle_matches_scalar_oracle(text):
    # Row p-norms may differ from the scalar ones in the last bit, which can
    # flip a comparison of nearly equal values late in the search; the
    # minimum stays within rounding.
    space = bj.parse_space(text)
    X, Y = _oracle_rows(space, 6)
    t, val, _, _ = _min_on_lines(space, X, Y, 0.0)
    for i in range(len(X)):
        ref_t, ref_val, _, _ = _min_on_line(space, X[i], Y[i], 0.0)
        assert abs(val[i] - ref_val) <= 4e-16 * ref_val, i
        assert t[i] == pytest.approx(ref_t, rel=1e-6, abs=1e-6 * abs(val[i]) / space.norm(Y[i]))


def reference_golden_section_rows(phi, lo, hi):
    """The lockstep search as it was before its state was packed: full-length
    state arrays, scattered through the live row indices on every pass."""
    tol, max_iter = orthogonality.GOLDEN_TOL, orthogonality.GOLDEN_MAX_ITER
    a, b = lo.astype(float), hi.astype(float)
    every = np.arange(len(a))
    best_x, best_f = a.copy(), phi(every, a)

    def improve(rows, t, f):
        better = f < best_f[rows]
        best_x[rows[better]], best_f[rows[better]] = t[better], f[better]

    improve(every, b, phi(every, b))
    h = b - a
    rows = np.flatnonzero(h > tol)
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = np.empty(len(a)), np.empty(len(a))
    fc[rows], fd[rows] = phi(rows, c[rows]), phi(rows, d[rows])
    improve(rows, c[rows], fc[rows])
    improve(rows, d[rows], fd[rows])
    live = rows
    for _ in range(max_iter):
        live = live[h[live] > tol]
        if not len(live):
            break
        left = fc[live] < fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        h[live] = b[live] - a[live]
        c[lt] = b[lt] - _INV_PHI * h[lt]
        d[rt] = a[rt] + _INV_PHI * h[rt]
        t = np.where(left, c[live], d[live])
        f = phi(live, t)
        fc[lt], fd[rt] = f[left], f[~left]
        improve(live, t, f)
    mid = 0.5 * (a[rows] + b[rows])
    improve(rows, mid, phi(rows, mid))
    return best_x, best_f


def counted(phi):
    """phi, and a list that collects the row indices of every evaluation."""
    seen = []

    def wrapped(rows, t):
        seen.extend(np.asarray(rows).tolist())
        return phi(rows, t)

    return wrapped, seen


def packed_search(phi, lo, hi):
    """_golden_section_rows with the reference's phi(rows, t): the row
    indices are the one array packed with the state."""
    return _golden_section_rows(phi, lo, hi, (np.arange(len(lo)),))


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_packed_lockstep_is_the_reference_lockstep(space, monkeypatch):
    X, Y = _oracle_rows(space, 8)
    got = _min_on_lines(space, X, Y, 0.0)
    evals = {}

    def packed(phi, lo, hi, data):
        evals["packed"] = []

        def phi_counted(*args):
            evals["packed"].append(len(args[-1]))
            return phi(*args)

        return _golden_section_rows(phi_counted, lo, hi, data)

    def reference(phi, lo, hi, data):
        row_phi, evals["reference"] = counted(lambda rows, t: phi(*(v[rows] for v in data), t))
        return reference_golden_section_rows(row_phi, lo, hi)

    for search in (packed, reference):
        monkeypatch.setattr(orthogonality, "_golden_section_rows", search)
        want = _min_on_lines(space, X, Y, 0.0)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert sum(evals["packed"]) == len(evals["reference"])


# Row i minimizes |t - centre_i| + slope_i * t**2: Python floats and numpy
# rows round it alike, so a scalar search is the same search as its row.
CENTRES = np.array([0.3, -0.7, 1e-12, 5.0, -3.3, 0.0, 2.0**-30, 0.618])
SLOPES = np.array([1.0, 0.25, 3.0, 1e-3, 0.0, 2.0, 0.5, 1.0])


def bowl_rows(rows, t):
    return np.abs(t - CENTRES[rows]) + SLOPES[rows] * t * t


@pytest.mark.parametrize("tol, max_iter", [(1e-10, 200), (1e-3, 200), (1e-10, 7), (1e-10, 0),
                                           (10.0, 200)])
def test_lockstep_rows_are_scalar_searches(tol, max_iter, monkeypatch):
    # Brackets at, below and above tol, and caps that stop rows early.
    monkeypatch.setattr(orthogonality, "GOLDEN_TOL", tol)
    monkeypatch.setattr(orthogonality, "GOLDEN_MAX_ITER", max_iter)
    lo = np.array([-1.0, -2.0, 0.0, 0.0, -5.0, 1.0, -1e-3, -4.0])
    hi = lo + np.array([2.0, 4.0, 1e-3, 10.0, 10.0, 1e-10, 2e-3, 8.0])
    for search in (packed_search, reference_golden_section_rows):
        phi, seen = counted(bowl_rows)
        best_x, best_f = search(phi, lo, hi)
        for i in range(len(lo)):
            calls = []

            def objective(t, i=i):
                calls.append(t)
                return float(bowl_rows(np.array([i]), np.array([t]))[0])

            want = golden_section_min(objective, lo[i], hi[i])
            assert (float(best_x[i]).hex(), float(best_f[i]).hex()) == tuple(
                float(v).hex() for v in want), (search.__name__, i)
            assert seen.count(i) == len(calls), (search.__name__, i)


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_one_sided_acute_many_agrees_with_scalar_oracle(data, space):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    xs, ys = [], []
    for _ in range(6):
        x = random_nonzero(space, rng)
        xs += [x, x, x, x, x]
        ys += [random_nonzero(space, rng), bj.orthogonal_direction(space, x, rng), x, -x,
               np.zeros(space.dim)]
    many = bj.one_sided_acute_many(space, xs, ys)
    assert many.dtype == bool
    assert many.tolist() == [bj.one_sided_acute_oracle(space, x, y) for x, y in zip(xs, ys)]


def test_one_sided_acute_many_zero_rows_and_empty_input():
    space = bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1)))
    # A zero y counts as acute; the rows around it are unaffected.
    got = bj.one_sided_acute_many(space, [[1, 0, 0.5], [1, 0, 0.5], [1, 0, 0.5]],
                                  [[1, 1, -7], [0, 0, 0], [-1, 0, 0]])
    assert got.tolist() == [True, True, False]
    with pytest.raises(ZeroVector):
        bj.one_sided_acute_many(space, [[1, 0, 0.5], [0, 0, 0]], [[1, 1, 1], [1, 1, 1]])
    empty = bj.one_sided_acute_many(space, np.empty((0, 3)), np.empty((0, 3)))
    assert empty.shape == (0,) and empty.dtype == bool
    with pytest.raises(bj.DimensionMismatch):
        bj.one_sided_acute_many(space, np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(bj.NonFiniteInput):
        bj.one_sided_acute_many(space, np.ones((1, 3)), np.ones((1, 3)), math.nan)


# ---------------------------------------------------------------------------
# Planes evaluate the line objective on Python floats, bit for bit the array
# objective t -> space._norm(x + t*y).

PLANE_TEXTS = ["lp:2:1.2", "lp:2:3", "dayjames:3:1.5", "dayjames:1.5:3"]


def _plane_oracle_cases(space, rng, n=60):
    """(x, y) pairs: random x and y, its orthogonal partner, x and -x, all
    scaled by 2**j and 2**k (|j|, |k| <= 900), then one pair in each rescale
    branch: a bracket below 2**-10, a bracket past the float range, and
    ||x|| beyond 2**1020."""
    cases = []
    for _ in range(n):
        x = rng.standard_normal(2)
        j, k = (int(e) for e in rng.integers(-900, 901, size=2))
        for y in (rng.standard_normal(2), bj.orthogonal_direction(space, x, rng), x, -x):
            cases.append((np.ldexp(x, j), np.ldexp(y, k)))
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    cases += [(x, np.ldexp(y, 20)), (np.ldexp(x, 1000), np.ldexp(y, -100)),
              (np.ldexp(x / np.abs(x).max(), 1023), y)]
    return cases


def _plane_oracle_digest(space):
    """SHA-256 over every case's oracle_min_over_line (in hex) and both
    oracle verdicts."""
    digest = hashlib.sha256()
    for x, y in _plane_oracle_cases(space, np.random.default_rng(7)):
        t, val = bj.oracle_min_over_line(space, x, y)
        ortho = bj.is_bj_orthogonal_oracle(space, x, y)
        acute = bj.one_sided_acute_oracle(space, x, y)
        digest.update(f"{float(t).hex()} {float(val).hex()} {int(ortho)}{int(acute)}\n".encode())
    return digest.hexdigest()


# Recorded when the line objective still ran on numpy arrays.
PINNED_PLANE_ORACLES = {
    "lp:2:1.2": "eba171c991ca6b3d1a03709706e3ce1aed31bbcd43337b24d19fdb3bbbce8079",
    "lp:2:3": "e64fcf74e1821d432481d4e011e8cf7c15c7c11f5e0da57ba27abea68fad78b8",
    "dayjames:3:1.5": "bbf3293b29b8addf58b109f4e7470e9c139def152a0b6a4d4953506373927260",
    "dayjames:1.5:3": "7216e4d53d7d91980c1e83be4c0ef97adf9c1c1cd1d4a96418bb974e53744c26",
}


@pytest.mark.parametrize("text", PLANE_TEXTS)
def test_plane_oracles_match_pinned_values(text):
    assert _plane_oracle_digest(bj.parse_space(text)) == PINNED_PLANE_ORACLES[text]


@given(data=st.data(), text=st.sampled_from(PLANE_TEXTS))
def test_plane_objective_is_the_array_objective(data, text):
    space = bj.parse_space(text)
    j = data.draw(st.integers(-900, 900))
    x, y = np.ldexp(draw_vector(data, 2), j), np.ldexp(draw_vector(data, 2), j)
    lam = 2.0 * space._norm(x) / space._norm(y)
    assume(_MIN_BRACKET <= lam)  # in range: the search runs on x and y as given
    for lo in (-1.0, 0.0):
        t, val, _, _ = _min_on_line(space, x, y, lo)
        want = golden_section_min(lambda t: space._norm(x + t * y), lo * lam, lam)
        assert (t.hex(), float(val).hex()) == tuple(float(v).hex() for v in want)


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_oracles_return_python_scalars(space):
    rng = np.random.default_rng(11)
    x = random_nonzero(space, rng)
    ys = [random_nonzero(space, rng), bj.orthogonal_direction(space, x, rng), x, -x,
          np.zeros(space.dim)]
    for y in ys:
        assert type(bj.is_bj_orthogonal_oracle(space, x, y)) is bool
        assert type(bj.one_sided_acute_oracle(space, x, y)) is bool
        assert type(bj.is_bj_orthogonal(space, x, y)) is bool
        if y.any():
            assert [type(v) for v in bj.oracle_min_over_line(space, x, y)] == [float, float]


@pytest.mark.parametrize("text", ["lp:2:2", "dayjames:3:1.5", "sum(lp:2:2,linf:1)"])
def test_angles_survive_a_y_norm_beyond_the_float_range(text):
    # ||y|| overflows for finite coordinates.  Before y was scaled down, the
    # margin band was infinite, so classify_angle called the strictly acute
    # pair ([1, 0], [1.7e308, 1.7e308]) orthogonal, and the line oracle
    # returned (nan, nan).  Until the distances were taken on the scaled y,
    # that pair's read 0.0, and those of ([1, 0.6], [1.7e308, 1.7e308]),
    # whose bounds overflow, read nan.
    space = bj.parse_space(text)
    pad = [0.0] * (space.dim - 2)
    X = [[1.0, 0.0] + pad, [1.0, 0.0] + pad, [0.0, 1.0] + pad, [1.0, 1.0] + pad,
         [1.0, 0.6] + pad]
    Y = [[1.7e308, 1.7e308] + pad, [-1.7e308, 1e308] + pad, [1e308, -1.7e308] + pad,
         [1.7e308, -1.7e308] + pad, [1.7e308, 1.7e308] + pad]
    def fields(rel):
        # In the caller's units, from y * 2**-1000: inf past the float range.
        with np.errstate(over="ignore"):
            return [np.ldexp(v, 1000).tolist() for v in (rel.min_bound, rel.max_bound, rel.scale)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        many = bj.classify_many(space, X, Y)
        small_many = bj.classify_many(space, X, np.ldexp(Y, -1000))
        acute_many = bj.one_sided_acute_many(space, X, Y)
        assert list(many.tag) == list(small_many.tag)
        assert [many.min_bound.tolist(), many.max_bound.tolist(),
                many.scale.tolist()] == fields(small_many)
        for distance in ("orthogonality_distance", "acute_distance"):
            assert (getattr(many, distance)().tolist()
                    == getattr(small_many, distance)().tolist()), distance
        for i, (x, y) in enumerate(zip(X, Y)):
            rel = bj.classify_angle(space, x, y)
            small = bj.classify_angle(space, x, np.ldexp(y, -1000))
            assert rel.tag is small.tag is many.tag[i], i
            assert [rel.min_bound, rel.max_bound, rel.scale] == fields(small), i
            assert [rel.orthogonality_distance(), rel.acute_distance()] == [
                small.orthogonality_distance(), small.acute_distance()], i
            t, val = bj.oracle_min_over_line(space, x, y)
            assert not (math.isnan(t) or math.isnan(val)), i
            assert bj.is_bj_orthogonal_oracle(space, x, y) == rel.is_orthogonal, i
            assert bj.one_sided_acute_oracle(space, x, y) == rel.is_acute, i
            assert acute_many[i] == rel.is_acute, i
    assert [t.value for t in many.tag] == [
        "strictly-acute", "strictly-obtuse", "strictly-obtuse", "orthogonal", "strictly-acute"]


# ---------------------------------------------------------------------------
# Single queries on Python floats.

SINGLE_QUERIES = """
import json, sys
import bjorth as bj
for text, pairs in json.loads(sys.stdin.read()):
    space = bj.parse_space(text)
    for x, y in pairs:
        rel = bj.classify_angle(space, x, y)
        print(text, *map(float.hex, [space.norm(x), space.norm(y),
              *[c for f in space.support_set(x) for c in f.tolist()],
              rel.min_bound, rel.max_bound, rel.scale, bj.oracle_min_over_line(space, x, y)[1]]))
"""


def test_single_queries_do_not_depend_on_cpu_dispatch():
    # As the certify artifacts: numpy's AVX-512 power rounds some inputs
    # differently from its baseline kernel, so a single query's floats must
    # come out the same with those kernels switched off.  The dual pairing
    # is BLAS's, which numpy does not dispatch.
    rng = np.random.default_rng(18)
    queries = []
    for text in ("lp:5:1.5", "lp:3:1.1", "sum(lp:3:4,linf:2)"):
        dim = bj.parse_space(text).dim
        V = rng.standard_normal((40, 2, dim)) * 10.0 ** rng.uniform(-3, 3, (40, 2, 1))
        queries.append((text, V.tolist()))
    outs = [subprocess.run([sys.executable, "-c", SINGLE_QUERIES], env=env, check=True,
                           input=json.dumps(queries), capture_output=True, text=True,
                           timeout=600).stdout.splitlines() for env in dispatch_envs()]
    assert len(outs[0]) == 120
    for default, baseline in zip(*outs):
        assert default == baseline


def test_the_oracle_on_a_line_through_the_origin_is_zero_at_zero():
    # x = 0: the minimum is ||0|| = 0, at t = 0, with no search.
    got = bj.oracle_min_over_line(bj.Lp(2, 3.0), [0, 0], [1, 2])
    assert got == (0.0, 0.0) and [type(v) for v in got] == [float, float]
