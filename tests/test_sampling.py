"""The sampling contract: the seeded draw table and the sweeps that read it."""

import math

import numpy as np
import pytest

import bjorth as bj
from bjorth.sampling import BLOCK, MIN_SAMPLE_NORM, draw_rows, nonzero_rows

from conftest import SPACE_ZOO

DJ = bj.DayJames(3.0, 1.5)


@pytest.fixture(scope="module")
def dj_map():
    return bj.build_preserver(DJ, 1024)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_draw_rows_are_prefix_stable(n):
    # The first n rows drawn for n are those drawn for 2n, cut inside a block or not.
    np.testing.assert_array_equal(draw_rows(5, 0, n, 7), draw_rows(5, 0, 2 * n, 7)[:n])


def test_draw_rows_replay_one_sample_or_any_range():
    full = draw_rows(9, 0, 4 * BLOCK, 5)
    for i in (0, 1, BLOCK - 1, BLOCK, 2 * BLOCK + 3, 4 * BLOCK - 1):
        np.testing.assert_array_equal(draw_rows(9, i, i + 1, 5)[0], full[i])
    for start, stop in ((3, 10), (BLOCK - 2, BLOCK + 2), (5, 3 * BLOCK + 1)):
        np.testing.assert_array_equal(draw_rows(9, start, stop, 5), full[start:stop])
    # Another seed or width draws another table.
    assert not np.array_equal(draw_rows(8, 0, 2, 5), full[:2])
    assert not np.array_equal(draw_rows(9, 0, 2, 6)[:, :5], full[:2])


class _Counting:
    """Counts the generators numpy.random.default_rng builds."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = np.random.default_rng

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)


@pytest.mark.parametrize("n", [1, 10, BLOCK, BLOCK + 1, 300])
def test_sweeps_build_one_generator_per_block(dj_map, monkeypatch, n):
    lift = bj.compose_inf_sum([dj_map, bj.IdentityMap(bj.LInf(8))])
    counter = _Counting(monkeypatch)
    for pmap in (dj_map, lift):
        counter.calls = 0
        bj.verify_preserver(pmap, n, seed=4)
        assert counter.calls == math.ceil(n / BLOCK)
    counter.calls = 0
    bj.sum_acute_equivalence_check(DJ, bj.LInf(2), n_samples=n, seed=4)
    assert counter.calls == math.ceil(n / BLOCK)
    counter.calls = 0
    bj.smoothness_probe(DJ, samples=n, seed=4)
    assert counter.calls == math.ceil(n / BLOCK)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 100])
@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_smoothness_gaps_are_prefix_stable(space, n, monkeypatch):
    # The probe at 2n reads the rows it reads at n, and more, in any blocks.
    probe = bj.smoothness_probe(space, 2 * n, seed=2)
    assert bj.smoothness_probe(space, n, seed=2).worst_gap <= probe.worst_gap
    monkeypatch.setattr(bj.analysis, "PAIR_BLOCK", 7)
    assert bj.smoothness_probe(space, 2 * n, seed=2) == probe


def test_sum_acute_names_its_first_disagreement(monkeypatch):
    # An oracle made wrong on the samples whose z2 starts above 1.5, a
    # property of each sample's own draws.
    honest = bj.one_sided_acute_many
    monkeypatch.setattr(bj.analysis, "one_sided_acute_many",
                        lambda space, Z1, Z2, margin: honest(space, Z1, Z2, margin)
                        ^ (Z2[:, 0] > 1.5))

    def check(n):
        return bj.sum_acute_equivalence_check(DJ, bj.LInf(2), n_samples=n, seed=3)

    i = check(300).first_disagreement
    assert i is not None and i > 0
    assert check(i).disagreements == 0 and check(i).first_disagreement is None
    assert check(i + 1).to_dict()["first_disagreement"] == i


class _Draw:
    """A stand-in generator whose standard_normal returns the given vector."""

    def __init__(self, v):
        self.v = v

    def standard_normal(self, dim):
        assert dim == len(self.v)
        return self.v.copy()


def _partner_draw(space, x, v):
    """The part of v that orthogonal_direction draws for x: a max-sum's
    partner lies in its first part of largest norm."""
    if not isinstance(space, bj.InfSum):
        return v
    norms = [part.norm(piece) for part, piece in zip(space.parts, space.split(x))]
    return space.split(v)[norms.index(max(norms))]


@pytest.mark.parametrize("space", SPACE_ZOO + [bj.InfSum((bj.LInf(2), bj.Lp(2, 2.0)))], ids=str)
def test_orthogonal_rows_matches_orthogonal_direction(space):
    rng = np.random.default_rng(21)
    X, V = rng.standard_normal((200, space.dim)), rng.standard_normal((200, space.dim))
    X[0] = np.eye(space.dim)[0]
    if isinstance(space, bj.InfSum):  # an exact part tie: every part's first axis
        X[1] = np.concatenate([np.eye(p.dim)[0] for p in space.parts])
    # Every row at each magnitude the relation is defined on: agreement to a
    # relative 1e-12 with no absolute slack, and every partner orthogonal.
    for scale in (1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300):
        Xs = X * scale
        rows = space._orth_rows(Xs, V)
        stacked = np.array([bj.orthogonal_direction(space, x, _Draw(_partner_draw(space, x, v)))
                            for x, v in zip(Xs, V)])
        np.testing.assert_allclose(rows, stacked, rtol=1e-12, atol=0.0, err_msg=f"{scale}")
        assert bj.classify_many(space, Xs, rows).is_orthogonal.all(), scale


@pytest.mark.parametrize("space", [DJ, bj.LInf(3), bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1)))],
                         ids=str)
def test_nonzero_rows_replaces_only_the_rows_below_the_floor(space):
    # A small row takes its reserve, or e1 when the reserve is small too; a
    # row at or above the floor is kept, even with every coordinate below it
    # (edge is below the floor only in the max norm).
    dim, e1 = space.dim, np.eye(space.dim)[0]
    big, small = np.linspace(1.0, 2.0, dim), np.full(dim, MIN_SAMPLE_NORM / 4)
    edge = np.full(dim, 0.9 * MIN_SAMPLE_NORM)
    X = np.array([big, small, small, np.zeros(dim), edge])
    R = np.array([small, 3.0 * big, small, -big, small])
    last = e1 if type(space) is bj.LInf else edge
    np.testing.assert_array_equal(nonzero_rows(space, X, R), [big, 3.0 * big, e1, -big, last])
    assert X[1].tolist() == small.tolist()  # the draws are left alone
