import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bjorth as bj
from bjorth.errors import (
    EmptySum,
    InvalidCount,
    MonotonicityViolation,
    NonFiniteInput,
    NotRadonPlane,
)
from bjorth.orthogonality import witness_rows
from bjorth.preserver import _pair_agreement

from conftest import KIND, SPACE_ZOO, draw_vector, judge_stack, non_radon_map, random_nonzero

DJ = bj.DayJames(3.0, 1.5)
L2 = bj.Lp(2, 2.0)


@pytest.fixture(scope="module")
def dj_map():
    return bj.build_preserver(DJ, 1024)


# ---------------------------------------------------------------------------
# Independent oracle: the pairing angle solves f(x(t)) = 0 for the (2-D)
# support functional f, whose root is analytically perpendicular to f.


def analytic_pairing_angle(plane, theta):
    f = plane.support_set(bj.unit_vector_at_angle(plane, theta))[0]
    return math.atan2(f[1], f[0]) + math.pi / 2


# ---------------------------------------------------------------------------
# Pairing table.


def test_pairing_endpoints_exact():
    rows = bj.pairing_table(DJ, 64)
    assert (rows[0][0], rows[0][1]) == (0.0, math.pi / 2)
    assert (rows[-1][0], rows[-1][1]) == (math.pi / 2, math.pi)


def test_pairing_euclid_quarter_turn():
    for theta, eta, _ in bj.pairing_table(L2, 64):
        assert eta == pytest.approx(theta + math.pi / 2, abs=1e-10)


def test_pairing_dayjames_frozen_values():
    # Nodes 32 and 48 of a 96-interval table sit at pi/6 and pi/4.
    rows = bj.pairing_table(DJ, 96)
    t6, e6, _ = rows[32]
    assert t6 == pytest.approx(math.pi / 6, abs=1e-15)
    # Diagonal symmetry of the Day-James plane pins the diagonal pairing.
    assert rows[48][0] == pytest.approx(math.pi / 4, abs=1e-15)
    assert rows[48][1] == pytest.approx(3 * math.pi / 4, abs=1e-10)
    # Value frozen at tolerance 1e-12; cross-checked two ways below.
    assert e6 == pytest.approx(1.89254688119154, abs=1e-9)
    assert e6 == pytest.approx(analytic_pairing_angle(DJ, t6), abs=1e-10)
    y1 = bj.unit_vector_at_angle(DJ, t6)
    y2 = bj.unit_vector_at_angle(DJ, e6)
    assert bj.is_bj_orthogonal_oracle(DJ, y1, y2)


def test_pairing_matches_analytic_perp_on_grid():
    for theta, eta, _ in bj.pairing_table(DJ, 64):
        assert eta == pytest.approx(analytic_pairing_angle(DJ, theta), abs=1e-10)


# Planes that are not smooth Radon planes, or not planes: a Day-James plane
# off its conjugate pair, l_p planes with p != 2, l_inf and the 3-D l_2.
NON_RADON_PLANES = [bj.Lp(2, 3.0), bj.Lp(2, 1.5), bj.DayJames(3.0, 2.0), bj.LInf(2),
                    bj.Lp(3, 2.0)]


@pytest.mark.parametrize("plane", NON_RADON_PLANES, ids=str)
def test_pairing_table_rejects_non_radon_planes(plane):
    # The map's inverse solves the pairing from the target side, which is
    # right only where the pairing is symmetric.
    for build in (bj.pairing_table, bj.build_preserver):
        with pytest.raises(NotRadonPlane):
            build(plane)


@pytest.mark.parametrize("plane", NON_RADON_PLANES, ids=str)
def test_plane_map_refuses_a_non_radon_plane(plane):
    # The map checks its plane itself, so no map onto a non-Radon plane is
    # made without the fault-injection patch.
    with pytest.raises(NotRadonPlane):
        bj.RadonPlaneMap(plane)


@pytest.mark.parametrize("plane", NON_RADON_PLANES[:3], ids=str)
def test_the_fault_injection_patch_builds_a_map_onto_a_smooth_plane(plane):
    # With the Radon check switched off, a smooth plane's pairing table
    # passes its other checks and the map is made.
    fault = non_radon_map(plane)
    assert type(fault) is bj.RadonPlaneMap and fault.plane == plane


def _edit_pairing_row(monkeypatch, edit):
    """Pass every pairing row that pairing_table reads through edit."""
    honest = bj.preserver.partner2
    monkeypatch.setattr(bj.preserver, "partner2",
                        lambda plane, theta: edit(*honest(plane, theta)))


@pytest.mark.parametrize("root", [np.nextafter(math.pi / 2, 0.0), np.nextafter(math.pi, 4.0),
                                  0.3, 4.0])
def test_a_partner_outside_the_second_quadrant_is_no_bracket(monkeypatch, root):
    _edit_pairing_row(monkeypatch, lambda y, _, y_star, resid: (y, float(root), y_star, resid))
    with pytest.raises(bj.NoBracket):
        bj.pairing_table(DJ, 64)
    with pytest.raises(bj.NoBracket):
        bj.build_preserver(DJ, 64)


def test_a_residual_above_the_bound_is_non_convergence(monkeypatch):
    # The bound is no looser than 1e-10 |f|, f the functional at y(theta).
    def edit(y, root, y_star, resid):
        return y, root, y_star, 1.000001e-10 * math.hypot(*bj.spaces.perp2(DJ, *y))

    _edit_pairing_row(monkeypatch, edit)
    with pytest.raises(bj.NonConvergence):
        bj.pairing_table(DJ, 64)
    with pytest.raises(bj.NonConvergence):
        bj.build_preserver(DJ, 64)


@pytest.mark.parametrize("field", ["eta", "residual"])
@pytest.mark.parametrize("index", [1, 30, 63])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_table_rejects_non_finite_entries(monkeypatch, field, index, bad):
    # A non-finite partner is outside every bracket, and a non-finite
    # residual is above every bound, NaN included, at any interior node.
    theta_bad, honest = np.linspace(0.0, math.pi / 2, 65).tolist()[index], bj.preserver.partner2

    def partner(plane, theta):
        y, root, y_star, resid = honest(plane, theta)
        if theta == theta_bad:
            root, resid = (bad, resid) if field == "eta" else (root, bad)
        return y, root, y_star, resid

    monkeypatch.setattr(bj.preserver, "partner2", partner)
    error = bj.NoBracket if field == "eta" else bj.NonConvergence
    with pytest.raises(error, match=f"{bad} .*theta={re.escape(repr(theta_bad))}"):
        bj.pairing_table(DJ, 64)
    with pytest.raises(error):
        bj.build_preserver(DJ, 64)


def test_build_rejects_coarse_grid():
    with pytest.raises(InvalidCount, match="grid_size must be >= 64"):
        bj.build_preserver(DJ, 16)
    with pytest.raises(InvalidCount, match="grid_size must be >= 64"):
        bj.pairing_table(DJ, 63)
    assert len(bj.pairing_table(DJ, 64)) == 65


def test_grid_size_is_a_checked_count():
    # grid_size passes check_count like every other count: a bool is no
    # count, a non-integer is an InvalidCount chained from its TypeError, and
    # any integer type is read as an int.
    with pytest.raises(InvalidCount, match="grid_size must be >= 64"):
        bj.pairing_table(DJ, True)
    with pytest.raises(InvalidCount):
        bj.build_preserver(DJ, -64)
    for bad in (100.0, "100", None):
        with pytest.raises(InvalidCount) as info:
            bj.build_preserver(DJ, bad)
        assert isinstance(info.value.__cause__, TypeError)
    with pytest.raises(InvalidCount):
        bj.pairing_table(DJ, np.int64(0))
    rows = bj.pairing_table(DJ, np.int64(64))
    assert len(rows) == 65 and all(type(v) is float for row in rows for v in row)


DAYJAMES_RADON_PLANES = [DJ, bj.DayJames(1.5, 3.0), bj.DayJames(2.0, 2.0),
                         bj.DayJames(4.0, 4.0 / 3.0)]


@pytest.mark.parametrize("plane", DAYJAMES_RADON_PLANES, ids=str)
def test_table_invariants(plane):
    grid, values, residuals = map(np.array, zip(*bj.pairing_table(plane)))
    assert len(grid) == 1025
    assert values[0] == math.pi / 2 and values[-1] == math.pi
    assert np.all(np.diff(values) > 0)
    assert float(residuals.max()) <= 1e-15
    # Node pairs are orthogonal, and mutually so (the Radon cross-check).
    # The coarser mutual margin absorbs the Hoelder amplification of the
    # one-ulp angle quantization near the axes for exponents below two.
    for t, e in zip(grid[::64], values[::64]):
        y1 = bj.unit_vector_at_angle(plane, float(t))
        y2 = bj.unit_vector_at_angle(plane, float(e))
        assert bj.is_bj_orthogonal(plane, y1, y2, margin=1e-8)
        assert bj.is_mutually_orthogonal(plane, y1, y2, margin=1e-5)


def test_table_monotonicity_enforced(monkeypatch):
    # A pairing whose rows at nodes 100 and 200 are swapped is refused.
    grid = np.linspace(0.0, math.pi / 2, 1025).tolist()
    swap = {grid[100]: grid[200], grid[200]: grid[100]}
    honest = bj.preserver.partner2
    monkeypatch.setattr(bj.preserver, "partner2",
                        lambda plane, theta: honest(plane, swap.get(theta, theta)))
    with pytest.raises(MonotonicityViolation):
        bj.pairing_table(DJ)


@pytest.mark.parametrize("grid_size", [64, 256, 1024])
@pytest.mark.parametrize("p", [1.01, 1.1, 1.2, 1.3, 1.5])
def test_table_end_rows_are_the_axes_rows(monkeypatch, p, grid_size):
    # On dayjames:p':p the cusp near float(pi/2) sends that direction's
    # partner off pi; the end row is the axis's own, read without partner2,
    # so its residual is at rounding like every other row's.
    honest, solved = bj.preserver.partner2, []
    monkeypatch.setattr(bj.preserver, "partner2",
                        lambda plane, theta: solved.append(theta) or honest(plane, theta))
    rows = bj.pairing_table(bj.DayJames(p, p / (p - 1.0)), grid_size)
    assert rows[-1][1] == math.pi
    assert max(resid for _, _, resid in rows) <= 1e-15
    assert solved == [theta for theta, _, _ in rows[1:-1]]


@pytest.mark.parametrize("plane", [*DAYJAMES_RADON_PLANES, L2], ids=str)
def test_table_is_the_scans_first_quadrant(plane):
    # One pairing row serves both: node k of a 360-node table is row k of
    # the 720-direction scan over [0, pi), bit for bit.
    table = bj.pairing_table(plane, 360)
    rows = bj.radon_defect(plane, 720).rows
    for k in range(1, 360):
        assert tuple(map(float.hex, table[k])) == tuple(map(float.hex, rows[k][:3])), k


def test_build_refuses_a_plane_whose_pairing_ties():
    # Near the axis the pairing's floats tie on this plane, and its
    # table-free map fails verify_preserver; the strict check keeps it out.
    with pytest.raises(MonotonicityViolation):
        bj.build_preserver(bj.DayJames(11.0, 1.1), 1024)


@pytest.mark.parametrize("p", [7.0, 11.0, 21.0, 101.0])
def test_tables_refuse_planes_whose_pairing_ties(p):
    # From p = 7 the pairing's floats tie near the axis at 1024 nodes.
    with pytest.raises(MonotonicityViolation):
        bj.pairing_table(bj.DayJames(p, p / (p - 1.0)))


def test_euclid_build_is_identity_on_unit_vectors():
    pm = bj.build_preserver(L2, 64)
    for theta in np.linspace(0.0, 2 * math.pi, 37):
        v = np.array([math.cos(theta), math.sin(theta)])
        assert np.max(np.abs(pm.apply(v) - v)) <= 1e-9


# ---------------------------------------------------------------------------
# Applying the map.


def test_apply_zero_maps_to_zero(dj_map):
    np.testing.assert_array_equal(dj_map.apply([0.0, 0.0]), [0.0, 0.0])
    np.testing.assert_array_equal(dj_map.apply_inverse([0.0, 0.0]), [0.0, 0.0])


def test_apply_preserves_norm(dj_map):
    w = dj_map.apply([3.0, 4.0])
    assert DJ.norm(w) == pytest.approx(5.0, rel=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = random_nonzero(L2, rng)
        assert DJ.norm(dj_map.apply(v)) == pytest.approx(L2.norm(v), rel=1e-9)


def test_apply_is_exactly_odd(dj_map):
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = random_nonzero(L2, rng)
        np.testing.assert_array_equal(dj_map.apply(-v), -dj_map.apply(v))


def test_apply_is_homogeneous(dj_map):
    rng = np.random.default_rng(6)
    for _ in range(100):
        v = random_nonzero(L2, rng)
        c = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
        err = DJ.norm(dj_map.apply(c * v) - c * dj_map.apply(v))
        assert err <= 1e-12 * abs(c) * L2.norm(v)


@given(data=st.data())
def test_apply_commutes_with_power_of_two_scaling(dj_map, data):
    # Scaling by 2^k is exact, so homogeneity must hold bit for bit, at
    # magnitudes far from one (no tiny nonzero vector maps to zero).
    lifted = bj.SumMap((dj_map, bj.IdentityMap(bj.LInf(2))))
    k = data.draw(st.integers(-900, 900))
    for pmap in (dj_map, lifted):
        v = draw_vector(data, pmap.source.dim)
        np.testing.assert_array_equal(pmap.apply(2.0**k * v), 2.0**k * pmap.apply(v))
        np.testing.assert_array_equal(pmap.apply_inverse(2.0**k * v),
                                      2.0**k * pmap.apply_inverse(v))


def test_apply_continuous_across_quadrant_seams(dj_map):
    for seam in (math.pi / 2, math.pi, 3 * math.pi / 2, 0.0):
        lo = dj_map.apply([math.cos(seam - 1e-9), math.sin(seam - 1e-9)])
        hi = dj_map.apply([math.cos(seam + 1e-9), math.sin(seam + 1e-9)])
        assert np.max(np.abs(hi - lo)) <= 1e-7


def _near_axis_rows():
    """Rows 1e-12, 1e-9 and 1e-6 rad to either side of each of the four axes."""
    rows = []
    for u in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
        for eps in (1e-12, 1e-9, 1e-6):
            for side in (eps, -eps):
                rows.append((u[0] - side * u[1], u[1] + side * u[0]))
    return np.array(rows)


@pytest.mark.parametrize("plane", DAYJAMES_RADON_PLANES, ids=str)
def test_round_trip_inverse(plane):
    # Both ways round, near every axis too: the map takes no angle, so a row
    # close to an axis keeps its bits.
    pmap = bj.build_preserver(plane, 1024)
    rng = np.random.default_rng(8)
    X = np.concatenate([_near_axis_rows(), rng.standard_normal((1000, 2))])
    scale = np.linalg.norm(X, axis=1)
    for back in (pmap.apply_inverse(pmap.apply(X)), pmap.apply(pmap.apply_inverse(X))):
        assert np.max(np.linalg.norm(back - X, axis=1) / scale) <= 1e-12


@pytest.mark.parametrize("plane", [DJ, bj.DayJames(1.5, 3.0)], ids=str)
def test_inverse_solves_the_pairing_equation(plane):
    # The preimage s of a second-quadrant angle psi satisfies the equation
    # f_{y(s)}(y(psi)) = 0, though the inverse solves f_{y(psi)}(y(s)) = 0.
    pmap = bj.build_preserver(plane, 256)
    rng = np.random.default_rng(12)
    worst = 0.0
    for psi in rng.uniform(math.pi / 2 + 1e-6, math.pi - 1e-6, 2000):
        w = bj.unit_vector_at_angle(plane, float(psi))
        v = pmap.apply_inverse(w)
        s = math.atan2(v[1], v[0]) - math.pi / 2
        assert 0.0 <= s <= math.pi / 2
        rel = bj.classify_angle(plane, bj.unit_vector_at_angle(plane, s), w)
        worst = max(worst, abs(rel.min_bound), abs(rel.max_bound))
    assert worst <= 1e-11


def test_unit_sphere_bijection(dj_map):
    rng = np.random.default_rng(9)
    for _ in range(1000):
        w = random_nonzero(DJ, rng)
        w = w / DJ.norm(w)
        back = dj_map.apply(dj_map.apply_inverse(w))
        np.testing.assert_allclose(back, w, atol=1e-8)


def test_grid_node_pairs_map_to_orthogonal_images(dj_map):
    # x(t) and x(t + pi/2) are orthogonal in the source; images must be too.
    rng = np.random.default_rng(10)
    for _ in range(300):
        t = float(rng.uniform(0.0, 2 * math.pi))
        x = np.array([math.cos(t), math.sin(t)])
        y = np.array([-math.sin(t), math.cos(t)])
        assert bj.is_bj_orthogonal(DJ, dj_map.apply(x), dj_map.apply(y), margin=1e-8)


# ---------------------------------------------------------------------------
# Sum composition.


def test_compose_identity_parts_is_identity():
    sm = bj.compose_inf_sum([bj.IdentityMap(L2), bj.IdentityMap(bj.LInf(1))])
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(sm.apply(v), v)
    np.testing.assert_array_equal(sm.apply_inverse(v), v)
    assert sm.source == bj.InfSum((L2, bj.LInf(1)))


def test_compose_preserves_max_norm(dj_map):
    sm = bj.compose_inf_sum([dj_map, bj.IdentityMap(bj.LInf(2))])
    rng = np.random.default_rng(12)
    for _ in range(200):
        v = random_nonzero(sm.source, rng)
        assert sm.target.norm(sm.apply(v)) == pytest.approx(sm.source.norm(v), rel=1e-9)


def test_compose_requires_two_parts(dj_map):
    with pytest.raises(EmptySum):
        bj.compose_inf_sum([dj_map])


class _Negation(bj.PreserverMap):
    """A map defined by its two row methods only: v -> -v on a space."""

    def __init__(self, space):
        self.space = space

    source = target = property(lambda self: self.space)

    def _forward(self, X):
        return -X

    _backward = _forward


def test_sum_map_checks_its_vector_once(dj_map, monkeypatch):
    inner = bj.compose_inf_sum([dj_map, bj.IdentityMap(bj.LInf(1))])
    sm = bj.compose_inf_sum([inner, bj.IdentityMap(L2)])
    v = np.array([3.0, -4.0, 0.5, 1.0, 2.0])
    w = np.concatenate([dj_map.apply(v[:2]), v[2:]])
    back = np.concatenate([dj_map.apply_inverse(w[:2]), v[2:]])
    # A part outside the package is reached through its row methods too.
    mixed = bj.compose_inf_sum([dj_map, _Negation(L2)])
    calls = []
    original = bj.NormedSpace.check_vector
    monkeypatch.setattr(bj.NormedSpace, "check_vector",
                        lambda self, u: calls.append(self) or original(self, u))
    np.testing.assert_array_equal(sm.apply(v), w)
    np.testing.assert_array_equal(sm.apply_inverse(w), back)
    assert calls == [sm.source, sm.target]
    calls.clear()
    np.testing.assert_array_equal(mixed.apply(v[[0, 1, 3, 4]]), np.concatenate([w[:2], -v[3:]]))
    assert calls == [mixed.source]


# ---------------------------------------------------------------------------
# Row batches and the closed-form pairing.


# The fault-injection control: the same map onto a plane that is not Radon.
NON_RADON = non_radon_map(bj.Lp(2, 3.0))


# Zeros of every sign, the axes, both sides of the seam at t = pi/2 and of
# the half-plane boundary at t = pi, and rows in the lower half-plane.
SPECIAL_ROWS = [
    [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
    [1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [-0.0, 1.0], [0.0, -1.0],
    [math.cos(math.pi / 2), 1.0], [-1e-9, 1.0], [1e-9, 1.0], [-1.0, 1e-12], [-1.0, -1e-12],
    [3.0, -4.0], [-3.0, -4.0], [-2.0**-1000, 2.0**-1000], [2.0**1000, -(2.0**999)],
]


def _stacked(method, rows):
    """method (a map's apply or apply_inverse) of the rows, one call per row."""
    return np.array([method(r) for r in rows]).reshape(len(rows), -1)


@given(data=st.data())
def test_rows_map_like_stacked_vectors(dj_map, data):
    rows = [list(r) for r in SPECIAL_ROWS]
    for _ in range(data.draw(st.integers(0, 12))):
        k = data.draw(st.integers(-900, 900))
        rows.append(list(2.0**k * draw_vector(data, 2)))
    rows = np.array(rows)
    # Through a max-sum, with an identity part and a part defined outside
    # the package; the extra coordinates are rows of the same draw.
    sm = bj.compose_inf_sum([dj_map, bj.IdentityMap(bj.LInf(1)), _Negation(L2)])
    big = np.concatenate([rows, rows[:, :1], rows[::-1]], axis=1)
    for pmap, X in ((dj_map, rows), (NON_RADON, rows), (sm, big)):
        for method in (pmap.apply, pmap.apply_inverse):
            assert method(X).tobytes() == _stacked(method, X).tobytes(), method


def test_rows_edge_cases(dj_map):
    sm = bj.compose_inf_sum([dj_map, _Negation(L2)])
    for pmap in (dj_map, sm):
        dim = pmap.source.dim
        v = [3.0, 4.0, 1.0, -2.0][:dim]
        for method in (pmap.apply, pmap.apply_inverse):
            assert method(np.empty((0, dim))).shape == (0, dim)
            assert method([v]).tobytes() == method(v).tobytes()
            for bad in ([[1.0] * (dim + 1)], np.ones((2, 2, dim)), [[]], 5.0):
                with pytest.raises(bj.DimensionMismatch):
                    method(bad)
            for bad in ([v[:-1] + [math.nan]], [[0.0] * dim, [math.inf] + v[1:]]):
                with pytest.raises(bj.NonFiniteInput):
                    method(bad)
    with pytest.raises(bj.DimensionMismatch):
        L2.check_rows([1.0, 2.0])
    with pytest.raises(bj.NonFiniteInput):
        L2.check_rows([[1.0, -math.inf]])


def _pairing_residual(plane, theta, root):
    """|g(root)| / R for the pairing g(t) = fa cos t + fb sin t = R cos(t - phi)
    of the norming functional at y(theta)."""
    fa, fb = plane.support_set(bj.unit_vector_at_angle(plane, theta))[0]
    return abs(fa * math.cos(root) + fb * math.sin(root)) / math.hypot(fa, fb)


def test_pairing_roots_lie_in_their_bracket_and_annul_the_functional():
    # Every root pairing_table ([pi/2, pi]) and the Radon scan ((theta, theta + pi))
    # return lies in its bracket and leaves a residual near rounding.
    worst = 0.0
    for plane in (*DAYJAMES_RADON_PLANES, L2):
        for theta, root, _ in bj.pairing_table(plane, 100)[1:-1]:
            assert math.pi / 2 <= root <= math.pi
            worst = max(worst, _pairing_residual(plane, theta, root))
    for plane in (*DAYJAMES_RADON_PLANES, bj.Lp(2, 1.5), bj.Lp(2, 3.0)):
        for theta, root, _, _ in bj.radon_defect(plane, grid=61).rows:
            assert theta <= root <= theta + math.pi
            worst = max(worst, _pairing_residual(plane, theta, root))
    assert worst <= 2e-15


def test_pairing_outside_the_bracket_gives_the_nearer_end():
    # f = (1, 1) annuls the direction at 3 pi/4 (and at 3 pi/4 + 2 pi k).
    assert bj.pairing_angle(1.0, 1.0, 0.0, math.pi) == pytest.approx(0.75 * math.pi)
    assert bj.pairing_angle(1.0, 1.0, 2.0 * math.pi, 3.0 * math.pi) == pytest.approx(
        2.75 * math.pi)
    # Where g keeps one sign over the bracket, the end a sign test would pick.
    for lo, hi, end in ((0.5, 1.0, 1.0), (2.5, 3.0, 2.5), (5.0, 5.25, 5.0),
                        (-3.0, -2.5, -3.0)):
        assert (math.cos(end) + math.sin(end) < 0.0) == (end == lo)
        assert bj.pairing_angle(1.0, 1.0, lo, hi) == end


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pairing_rejects_a_non_finite_argument(slot, bad):
    args = [1.0, 1.0, 0.0, math.pi]
    args[slot] = bad
    with pytest.raises(NonFiniteInput):
        bj.pairing_angle(*args)


# ---------------------------------------------------------------------------
# Verification sweeps (small sizes here; full sizes in the acceptance suite).


def test_verify_identity_map_passes():
    rep = bj.verify_preserver(bj.IdentityMap(L2), 1000, seed=1)
    assert rep.passed and rep.disagreements == 0


def test_verify_dayjames_map_passes(dj_map):
    rep = bj.verify_preserver(dj_map, 1000, seed=1)
    assert rep.passed
    assert rep.orth_disagreements == 0 and rep.acute_disagreements == 0
    assert rep.max_norm_error <= 1e-9
    assert rep.max_homog_error <= 1e-12


@pytest.mark.parametrize("plane", [bj.Lp(2, 3.0), bj.DayJames(3.0, 2.0)], ids=str)
def test_verify_detects_a_non_radon_target(plane):
    # The map's pairing is symmetric only on a Radon plane: elsewhere the
    # images of an orthogonal pair whose first vector lies in the second
    # quadrant are not orthogonal, about every other sample.
    rep = bj.verify_preserver(non_radon_map(plane), 2000, seed=7)
    assert not rep.passed
    assert rep.orth_disagreements >= 1


def test_verify_names_its_first_disagreement(dj_map):
    i = bj.verify_preserver(NON_RADON, 1000, seed=7).first_disagreement
    assert i is not None and i > 0
    # Samples do not depend on the sample count, so a run that stops just
    # before sample i sees no disagreement, and one that takes it names it.
    before = bj.verify_preserver(NON_RADON, i, seed=7)
    assert before.disagreements == 0 and before.to_dict()["first_disagreement"] is None
    upto = bj.verify_preserver(NON_RADON, i + 1, seed=7)
    assert upto.disagreements >= 1 and upto.to_dict()["first_disagreement"] == i
    assert bj.verify_preserver(dj_map, 1000, seed=0).first_disagreement is None


def test_verify_report_is_deterministic(dj_map):
    a = bj.verify_preserver(dj_map, 200, seed=5).to_dict()
    b = bj.verify_preserver(dj_map, 200, seed=5).to_dict()
    assert a == b
    assert set(a) >= {
        "samples", "disagreements", "boundary_excluded", "max_norm_error",
        "max_homog_error", "continuity_modulus", "seed", "pass",
    }


# Reports recorded with every pair judged by the scalar classify_angle.  The
# sampling contract and the judging rules do not depend on how the pairs are
# classified, so the reports must match exactly.  tool_version is left out.
# The map's own floats (max_norm_error, continuity_modulus) were recorded
# again when the pairing became closed-form; no judged field moved.  Every
# float was recorded again when the samples moved to the block draw table;
# every report still passes with 0 disagreements.  The map's floats moved
# in their last bits again when it became the table-free perp map (the
# closed form, without angles); no judged field moved.
# boundary_excluded is 0: constructed pairs are not compared on acuteness,
# and no other comparison of these runs comes near a decision boundary.
# A label's suffix /10 marks a run at the benchmark's call size, 10 samples,
# recorded with every pair judged by classify_many's relations; the others
# take 300 samples.
PINNED_REPORTS = {
    ("plane", 0): {
        "samples": 300, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 4.3678201423157326e-16, "max_homog_error": 4.618753374186251e-16,
        "continuity_modulus": 1.5335887195351858, "seed": 0, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("plane", 7): {
        "samples": 300, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 4.2121537712319695e-16, "max_homog_error": 4.091137792824191e-16,
        "continuity_modulus": 1.2409620067044622, "seed": 7, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("sum_linf8", 0): {
        "samples": 300, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 2.59137662906915e-16, "max_homog_error": 2.146082285244851e-16,
        "continuity_modulus": 1.1211651395797388, "seed": 0, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("sum_linf8", 7): {
        "samples": 300, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 2.8284637537081453e-16, "max_homog_error": 2.2613236570128364e-16,
        "continuity_modulus": 1.325868895622531, "seed": 7, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("plane/10", 0): {
        "samples": 10, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 2.7142094131648703e-16, "max_homog_error": 0.0,
        "continuity_modulus": 1.3197697253423146, "seed": 0, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("plane/10", 7): {
        "samples": 10, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 2.1199518329188547e-16, "max_homog_error": 8.06577990460785e-19,
        "continuity_modulus": 0.9027356114720917, "seed": 7, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("sum_linf1/10", 0): {
        "samples": 10, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 2.0443499439244015e-16, "max_homog_error": 1.4035561912795606e-16,
        "continuity_modulus": 1.5776892172116666, "seed": 0, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("sum_linf1/10", 7): {
        "samples": 10, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 3.7147508972950494e-16, "max_homog_error": 1.6438278390263666e-16,
        "continuity_modulus": 1.0950084033430265, "seed": 7, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("sum_linf8/10", 0): {
        "samples": 10, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 1.4306582453194357e-16, "max_homog_error": 4.5748065363823963e-17,
        "continuity_modulus": 1.1211651395797388, "seed": 0, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("sum_linf8/10", 7): {
        "samples": 10, "disagreements": 0, "first_disagreement": None, "boundary_excluded": 0,
        "max_norm_error": 0.0, "max_homog_error": 7.125866501276583e-17,
        "continuity_modulus": 1.0938179955779923, "seed": 7, "pass": True,
        "orthogonality_disagreements": 0, "acute_disagreements": 0},
    ("non_radon/10", 0): {
        "samples": 10, "disagreements": 5, "first_disagreement": 0, "boundary_excluded": 0,
        "max_norm_error": 2.7142094131648703e-16, "max_homog_error": 1.4285371060747907e-16,
        "continuity_modulus": 1.729489121024097, "seed": 0, "pass": False,
        "orthogonality_disagreements": 5, "acute_disagreements": 0},
    ("non_radon/10", 7): {
        "samples": 10, "disagreements": 6, "first_disagreement": 1, "boundary_excluded": 0,
        "max_norm_error": 2.1199518329188547e-16, "max_homog_error": 8.06577990460785e-19,
        "continuity_modulus": 0.9027356114720917, "seed": 7, "pass": False,
        "orthogonality_disagreements": 6, "acute_disagreements": 0},
}


@pytest.mark.parametrize("label,seed", sorted(PINNED_REPORTS), ids=str)
def test_verify_report_matches_pinned_values(dj_map, label, seed):
    maps = {"plane": dj_map, "non_radon": NON_RADON}
    for k in (1, 8):
        maps[f"sum_linf{k}"] = bj.compose_inf_sum([dj_map, bj.IdentityMap(bj.LInf(k))])
    want = PINNED_REPORTS[label, seed]
    report = bj.verify_preserver(maps[label.split("/")[0]], want["samples"], seed=seed).to_dict()
    del report["tool_version"]
    assert report == want


def test_non_radon_control_report_matches_pinned_values():
    report = bj.verify_preserver(NON_RADON, 1000, seed=0).to_dict()
    del report["tool_version"]
    assert report == {
        "samples": 1000, "disagreements": 552, "first_disagreement": 0, "boundary_excluded": 0,
        "max_norm_error": 4.323838900325819e-16, "max_homog_error": 4.3223193667334277e-16,
        "continuity_modulus": 2.0109366949146628, "seed": 0, "pass": False,
        "orthogonality_disagreements": 508, "acute_disagreements": 44}


# ---------------------------------------------------------------------------
# The judge against its reference on classify_many's relations.


def reference_pair_agreement(rel_s, rel_t, band):
    """verify_preserver's judge as written on the AngleRelation arrays that
    classify_many returns: its tags' predicates and distance methods."""
    orth_skip = (
        (~rel_s.is_orthogonal & (rel_s.orthogonality_distance() <= band))
        | (~rel_t.is_orthogonal & (rel_t.orthogonality_distance() <= band))
    )
    acute_skip = ((rel_s.acute_distance() <= band) | (rel_t.acute_distance() <= band))[::2]
    orth_dis = ~orth_skip & (rel_s.is_orthogonal != rel_t.is_orthogonal)
    acute_dis = ~acute_skip & (rel_s.is_acute != rel_t.is_acute)[::2]
    return int(orth_skip.sum() + acute_skip.sum()), orth_dis.reshape(-1, 2).sum(axis=1), acute_dis


def judged_both_ways(space, sides, margin):
    """(the judge on witness_rows, the reference on classify_many)."""
    return (_pair_agreement(*(witness_rows(space, X, Y) for X, Y in sides), margin, 10.0 * margin),
            reference_pair_agreement(*(bj.classify_many(space, X, Y, margin) for X, Y in sides),
                                     10.0 * margin))


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_judge_matches_its_relation_reference(data, space):
    margin = data.draw(st.sampled_from([bj.MARGIN, 1e-6, 1e-3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.integers(1, 12).flatmap(lambda m: st.lists(KIND, min_size=2 * m,
                                                                   max_size=2 * m)))
    sides = [judge_stack(space, rng, kinds, margin), judge_stack(space, rng, kinds[::-1], margin)]
    got, want = judged_both_ways(space, sides, margin)
    assert got[0] == want[0]
    assert got[1].tolist() == want[1].tolist() and got[2].tolist() == want[2].tolist()


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_judge_matches_its_reference_on_every_kind_of_row(space):
    # Every pinned report excludes nothing; here both judges exclude pairs
    # near each boundary, and meet zero x rows and (but in max norms)
    # overflowing y rows, on both sides.
    rng = np.random.default_rng(23)
    kinds = [(zero, kind, c) for zero in (False, True) for kind in ("random", "near", "huge")
             for c in (-11.0, -9.0, -2.0, -0.5, 0.5, 2.0, 9.0, 11.0)]
    sides = [judge_stack(space, rng, kinds, bj.MARGIN), judge_stack(space, rng, kinds[::-1], bj.MARGIN)]
    got, want = judged_both_ways(space, sides, bj.MARGIN)
    assert got[0] == want[0] > 0
    assert got[1].tolist() == want[1].tolist() and got[2].tolist() == want[2].tolist()
    _, _, _, live, k = witness_rows(space, *sides[0])
    assert not live.all()
    assert (k is None) == isinstance(space, bj.LInf)
