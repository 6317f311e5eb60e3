"""A family defined outside the package runs through every layer.

Each family states its capabilities on the class (NormedSpace's docstring),
so a new one needs no edit to a module.  The toy family here is the
Euclidean plane written with math.hypot and its gradient: a smooth Radon
plane that no module names.
"""

import math
import re

import numpy as np
import pytest

import bjorth as bj


class HypotPlane(bj.NormedSpace):
    """The Euclidean plane on math.hypot and np.hypot."""

    dim = 2
    _smooth_plane = radon_candidate = True

    def _norm2(self, a, b):
        return math.hypot(a, b)

    def _grad2(self, a, b):
        n = math.hypot(a, b)
        return a / n, b / n

    def _line(self, xa, ya):  # on the 2-sequences of Python floats the scan passes
        (x0, x1), (y0, y1) = xa, ya
        return lambda t: math.hypot(x0 + t * y0, x1 + t * y1)

    def _norm(self, arr):
        return self._norm2(*arr.tolist())

    def _support(self, arr):
        return [np.array(self._grad2(*arr.tolist()))]

    def _norms(self, X):
        return np.hypot(X[:, 0], X[:, 1])

    def _bounds(self, X, Y):
        b = np.sum(X * Y, axis=1) / self._norms(X)
        return b, b


PLANE = HypotPlane()


def test_the_radon_scan_finds_the_toy_plane_symmetric():
    scan = bj.radon_defect(PLANE)
    assert scan.witness is None and scan.defect <= 1e-12
    assert len(scan.rows) == 720


def test_orthogonal_rows_and_direction_agree_on_the_toy_plane():
    rng = np.random.default_rng(5)
    X = np.concatenate([np.eye(2), -np.eye(2), rng.standard_normal((50, 2))])
    V = rng.standard_normal(X.shape)
    rows = PLANE._orth_rows(X, V)
    # A smooth plane's partner is perp2's, with no draw.
    assert rows.tolist() == [bj.orthogonal_direction(PLANE, x, None).tolist() for x in X]
    assert bj.classify_many(PLANE, X, rows).is_orthogonal.all()


def test_the_toy_plane_is_smooth():
    assert bj.smoothness_probe(PLANE, 500, seed=1).smooth


def test_the_plane_map_is_built_and_certified_on_the_toy_plane():
    rows = bj.pairing_table(PLANE, 256)
    euclid = bj.pairing_table(bj.Lp(2, 2.0), 256)
    np.testing.assert_allclose(np.array(rows)[:, :2], np.array(euclid)[:, :2], rtol=0,
                               atol=1e-12)
    pmap = bj.build_preserver(PLANE, 256)
    assert type(pmap) is bj.RadonPlaneMap and pmap.target is PLANE
    v = np.array([[0.3, -1.7], [-2.0, 0.5], [1.0, 0.0]])
    np.testing.assert_allclose(pmap.apply_inverse(pmap.apply(v)), v, rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_preserver_passes_the_toy_plane_map(seed):
    report = bj.verify_preserver(bj.RadonPlaneMap(PLANE), 2000, seed=seed)
    assert report.passed and report.disagreements == 0


def test_the_gates_read_the_family_flags(monkeypatch):
    # The same plane stating no Radon capability is refused by the map, and
    # a grammar family stating no smooth plane by the scan.
    class Unstated(HypotPlane):
        radon_candidate = False

    with pytest.raises(bj.NotRadonPlane):
        bj.RadonPlaneMap(Unstated())
    monkeypatch.setattr(bj.DayJames, "_smooth_plane", False)
    with pytest.raises(bj.NotSmooth, match="got dayjames:3:1.5"):
        bj.radon_defect(bj.DayJames(3.0, 1.5))
    with pytest.raises(TypeError, match="unknown space"):
        bj.format_space(PLANE)  # the grammars know only their own families


def test_the_sweeps_name_a_space_outside_the_grammars_by_its_repr():
    # The toy sum runs every sample, as lp:2:2's does, and is named by its
    # repr; a grammar space keeps its descriptor.
    toy = bj.sum_acute_equivalence_check(PLANE, bj.LInf(1), 2000, seed=0)
    euclid = bj.sum_acute_equivalence_check(bj.Lp(2, 2.0), bj.LInf(1), 2000, seed=0)
    assert toy.space == repr(bj.InfSum((PLANE, bj.LInf(1))))
    assert toy.to_dict()["space"] == toy.space
    assert euclid.space == "sum(lp:2:2,linf:1)"
    for report in (toy, euclid):
        assert (report.evaluated, report.disagreements, report.tie_samples) == (2000, 0, 250)

    class Kinked(HypotPlane):
        _smooth_plane = False

    kinked = Kinked()
    with pytest.raises(bj.NotSmooth, match="got " + re.escape(repr(kinked))):
        bj.radon_defect(kinked)


def test_a_space_outside_the_grammars_has_a_fixed_label():
    # NormedSpace's repr names the class and dimension, not an address, so
    # the toy sum's report reads the same in every process; the grammar
    # families keep Frozen's repr of their fields.
    report = bj.sum_acute_equivalence_check(PLANE, bj.LInf(1), 50)
    assert report.space == "InfSum(parts=(HypotPlane(dim=2), LInf(dim=1)))"
    assert report.to_dict()["space"] == report.space
    assert repr(bj.DayJames(3.0, 1.5)) == "DayJames(p=3.0, q=1.5)"


def test_the_grammars_refuse_a_family_they_do_not_know():
    for space in (PLANE, bj.InfSum((bj.LInf(1), PLANE))):
        with pytest.raises(TypeError, match="unknown space"):
            bj.space_to_dict(space)


def test_a_smooth_plane_needs_no_line_of_its_own():
    # The default _line takes the scan's 2-sequences of Python floats, so a
    # smooth plane supplies only _norm2 and _grad2; the scan reads the same
    # rows as with the toy's own _line.
    class NoLine(HypotPlane):
        _line = bj.NormedSpace._line

    scan, own = bj.radon_defect(NoLine()), bj.radon_defect(PLANE)
    assert scan.witness is None and scan.defect <= 1e-12
    assert scan.rows == own.rows
