import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bjorth as bj
from bjorth.analysis import _judge_rows
from bjorth.cli import _sections_record
from bjorth.errors import DegenerateSection, InvalidCount, NotAPlane, NotSmooth, check_count
from bjorth.orthogonality import witness_rows
from bjorth.sampling import BLOCK
from bjorth.spaces import partner2

from conftest import KIND, SPACE_ZOO, judge_stack

DJ = bj.DayJames(3.0, 1.5)
L2 = bj.Lp(2, 2.0)


# ---------------------------------------------------------------------------
# Radon symmetry scans.


def test_radon_defect_euclid_plane():
    scan = bj.radon_defect(L2, grid=360)
    assert scan.defect <= 1e-9
    assert scan.witness is None


def test_radon_defect_dayjames_conjugate():
    scan = bj.radon_defect(DJ, grid=720)
    assert scan.defect <= 1e-8
    assert scan.witness is None
    assert max(r[2] for r in scan.rows) <= 1e-10  # forward residuals


def test_radon_defect_lp3_witness():
    scan = bj.radon_defect(bj.Lp(2, 3.0), grid=720)
    assert scan.defect > 1e-2
    assert scan.witness is not None
    # The witness direction matches the known asymmetric pair (2,1), (1,-4)
    # up to the quarter-turn symmetry of the p-norm ball.
    theta, theta_star = scan.witness
    ref = math.atan2(1.0, 2.0)
    assert min(abs(theta - (ref + k * math.pi / 2)) for k in range(4)) < 0.1
    ref_star = math.atan2(4.0, -1.0)
    assert min(abs(theta_star - (ref_star + k * math.pi / 2)) for k in range(4)) < 0.1


def test_radon_defect_requires_plane():
    with pytest.raises(NotAPlane):
        bj.radon_defect(bj.Lp(3, 2.0))


@pytest.mark.parametrize("text", ["linf:2", "sum(linf:1,linf:1)", "sum(lp:1:3,linf:1)"])
@pytest.mark.parametrize("grid", [16, 17])
def test_radon_defect_rejects_a_non_smooth_plane(text, grid):
    # Every plane but Lp and Day-James is a max norm.  An odd grid misses
    # the tie angles, where a scan that met the kink would have stopped.
    with pytest.raises(NotSmooth):
        bj.radon_defect(bj.parse_space(text), grid=grid)


def test_radon_rows_are_deterministic():
    a = bj.radon_defect(DJ, grid=64)
    b = bj.radon_defect(DJ, grid=64)
    assert a.rows == b.rows


# The planes of `bjorth certify`, and their scans at its --fast grid.
CERTIFY_PLANES = {
    "dayjames_1.5": bj.DayJames(1.5, 3.0),
    "dayjames_2": bj.DayJames(2.0, 2.0),
    "dayjames_3": bj.DayJames(3.0, 1.5),
    "dayjames_4": bj.DayJames(4.0, 4.0 / 3.0),
    "lp_1.5": bj.Lp(2, 1.5),
    "lp_3": bj.Lp(2, 3.0),
    "lp_4": bj.Lp(2, 4.0),
}


def _radon_digest(plane, grid=180):
    """(SHA-256 of the rows, defect, witness), every float in hex."""
    scan = bj.radon_defect(plane, grid=grid)
    rows = "".join(" ".join(float(v).hex() for v in row) + "\n" for row in scan.rows)
    witness = None if scan.witness is None else tuple(float(v).hex() for v in scan.witness)
    return hashlib.sha256(rows.encode()).hexdigest(), float(scan.defect).hex(), witness


# Recorded with the closed-form pairing angle.  Before that, the line
# objective on Python floats reproduced every bit of the earlier array one.
PINNED_RADON = {
    "dayjames_1.5": (
        "5124faa99e9718408078995d6d94cca2d53b3588adf48fefb8c3f58179c4100f",
        "0x1.8000000000000p-52", None),
    "dayjames_2": (
        "86884c86c34db8ad3ccc83d4f452835baa6bcf15ac33de81e13b51a8864e1ad2",
        "0x1.8000000000000p-52", None),
    "dayjames_3": (
        "e800e7d53e344817d65b76e9abb7b18d9040e98bf7cb35d643f70ca65d585765",
        "0x1.0000000000000p-52", None),
    "dayjames_4": (
        "fe53614cfb73044c3727db1c03c20a9ffbb1749640c2fdfb4b9ba4976bd73450",
        "0x1.8000000000000p-52", None),
    "lp_1.5": (
        "da17fe2c6fecf52fe344f9960074ab2de91283521d6c7624a0b5ae26b988f8d2",
        "0x1.65bfdf40f85b8p-4", ("0x1.893011f31982ep-3", "0x1.fc6d73ae47408p+0")),
    "lp_3": (
        "ec5c06e36abc681bc2f3c670fac5f277c02279b7ff22abd010c03bdfe0339342",
        "0x1.65d9657962390p-4", ("0x1.fd5b5d123280ep+0", "0x1.ab2c222ec3092p+1")),
    "lp_4": (
        "4154527ef85c5d61e8a48bfc350835949203ecfd244ddd7c816f1f8bfc1df0da",
        "0x1.6594536d1b7ecp-3", ("0x1.f46bb9c109324p-2", "0x1.b85202522ecd7p+0")),
}


@pytest.mark.parametrize("label", sorted(CERTIFY_PLANES))
def test_radon_scan_matches_pinned_values(label):
    assert _radon_digest(CERTIFY_PLANES[label]) == PINNED_RADON[label]


@pytest.mark.parametrize("text", ["dayjames:3:1.5", "lp:2:3"])
def test_radon_scan_takes_the_plane_objective(text, monkeypatch):
    # The array _norm serves no row: the unit vectors, ||y||, ||y*|| and the
    # deficit take the scalar _norm2, and the golden-section search's 56 or
    # so evaluations a direction go to the plane's scalar objective.
    plane = bj.parse_space(text)
    calls = []
    norm = type(plane)._norm

    def counting(self, arr):
        calls.append(1)
        return norm(self, arr)

    monkeypatch.setattr(type(plane), "_norm", counting)
    bj.radon_defect(plane, grid=16)
    assert len(calls) == 0


REFERENCE_PLANES = [*CERTIFY_PLANES.values(), *map(bj.parse_space, [
    "dayjames:1.01:101", "dayjames:3:5", "lp:2:1.1", "lp:2:2"])]


@pytest.mark.parametrize("grid", [16, 61, 720])
@pytest.mark.parametrize("plane", REFERENCE_PLANES, ids=bj.format_space)
def test_radon_deficits_are_the_public_oracles_bit_for_bit(plane, grid):
    # The scan takes the oracle's arithmetic on partner2's floats; the
    # reference is the public oracle on the unit vectors as arrays.
    for theta, _, _, deficit in bj.radon_defect(plane, grid=grid).rows:
        y, _, y_star, _ = partner2(plane, theta)
        _, val = bj.oracle_min_over_line(plane, np.array(y_star), np.array(y))
        want = max(0.0, plane.norm(np.array(y_star)) - val)
        assert float(deficit).hex() == float(want).hex(), theta


# ---------------------------------------------------------------------------
# Smoothness probes.


def test_smoothness_euclid():
    probe = bj.smoothness_probe(L2, samples=100)
    assert probe.smooth and probe.worst_gap <= 1e-5


def test_smoothness_linf_detects_tie_kink():
    probe = bj.smoothness_probe(bj.LInf(2), samples=100)
    assert not probe.smooth
    # Gap along the tie-difference direction at (1,1) is 2/sqrt(2).
    assert probe.worst_gap == pytest.approx(math.sqrt(2), abs=1e-2)


def test_smoothness_dayjames_with_axis_probes():
    probe = bj.smoothness_probe(DJ, samples=300)
    assert probe.smooth


def test_smoothness_sum_detects_part_tie():
    probe = bj.smoothness_probe(bj.InfSum((L2, bj.LInf(1))), samples=100)
    assert not probe.smooth
    assert probe.worst_gap > 1.0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_smoothness_verdicts_split_the_zoo(space, seed):
    # p-norms and Day-James planes are smooth; max norms and max-sums kink.
    probe = bj.smoothness_probe(space, seed=seed)
    assert probe.smooth is not isinstance(space, (bj.LInf, bj.InfSum))
    assert probe.worst_gap >= 0.0


# ---------------------------------------------------------------------------
# Parallelogram identity.


def test_parallelogram_euclid_zero():
    assert bj.parallelogram_defect(L2, [1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(500):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        scale2 = L2.norm(u) ** 2 + L2.norm(v) ** 2
        assert abs(bj.parallelogram_defect(L2, u, v)) <= 1e-12 * max(scale2, 1.0)


def test_parallelogram_dayjames_axes():
    expected = 2 ** (2 / 3) + 2 ** (4 / 3) - 4
    got = bj.parallelogram_defect(DJ, [1, 0], [0, 1])
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.1072432, abs=1e-6)


def test_parallelogram_linf():
    assert bj.parallelogram_defect(bj.LInf(2), [1, 0], [0, 1]) == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# Euclidean-section search.


def test_sections_flag_canonical_euclid_summand():
    space = bj.InfSum((L2, bj.LInf(1)))
    cands = bj.section_candidates(space, 200, seed=5)
    flagged = bj.euclidean_section_search(space, cands, pair_samples=64, seed=5)
    assert any(f is cands[0] for f in flagged)  # span{(e1,0),(e2,0)} first
    # The two mixed coordinate sections are max-norm planes, never flagged.
    assert not any(f is cands[1] or f is cands[2] for f in flagged)


def test_sections_dayjames_summand_flags_nothing():
    space = bj.InfSum((DJ, bj.LInf(1)))
    cands = bj.section_candidates(space, 200, seed=5)
    assert bj.euclidean_section_search(space, cands, pair_samples=64, seed=5) == []


def test_sections_linf3_flags_nothing():
    space = bj.LInf(3)
    cands = bj.section_candidates(space, 100, seed=5)
    assert bj.euclidean_section_search(space, cands, pair_samples=64, seed=5) == []


def test_sections_flags_shrink_with_more_samples():
    space = bj.InfSum((L2, bj.LInf(1)))
    cands = bj.section_candidates(space, 300, seed=9)
    few = bj.euclidean_section_search(space, cands, pair_samples=16, seed=9)
    many = bj.euclidean_section_search(space, cands, pair_samples=128, seed=9)
    assert set(map(id, many)) <= set(map(id, few))


# Flagged candidate indices of the two certify sums (200 candidates, 64
# pair samples, tol 1e-6), recorded with the one-candidate-at-a-time search.
PINNED_SECTION_FLAGS = {
    ("sum(lp:2:2,linf:1)", 0): [
        0, 5, 6, 12, 14, 20, 23, 24, 26, 31, 34, 35, 36, 38, 40, 41, 43, 44, 46, 52, 53, 56,
        68, 72, 75, 77, 86, 90, 99, 100, 103, 107, 110, 114, 115, 119, 127, 133, 140, 141,
        142, 145, 146, 148, 152, 156, 158, 161, 163, 165, 167, 176, 179, 182, 186],
    ("sum(lp:2:2,linf:1)", 7): [
        0, 4, 5, 8, 11, 12, 13, 16, 18, 20, 22, 23, 24, 25, 28, 30, 32, 35, 37, 40, 41, 44,
        46, 52, 55, 56, 59, 62, 65, 67, 70, 71, 76, 77, 78, 81, 83, 86, 90, 91, 94, 97, 100,
        103, 108, 110, 112, 113, 120, 125, 130, 143, 144, 146, 155, 156, 160, 163, 166, 170,
        172, 174, 178, 179, 180, 181, 184, 186, 187, 197],
    ("sum(dayjames:3:1.5,linf:1)", 0): [],
    ("sum(dayjames:3:1.5,linf:1)", 7): [],
}


@pytest.mark.parametrize("text,seed", sorted(PINNED_SECTION_FLAGS))
def test_section_flags_match_pinned_values(text, seed):
    space = bj.parse_space(text)
    pinned = PINNED_SECTION_FLAGS[text, seed]
    assert _sections_record(space, 200, 64, 1e-6, seed)["flagged"] == pinned
    # The first 8 candidates are the same sections, with the same draws.
    assert _sections_record(space, 8, 64, 1e-6, seed)["flagged"] == [i for i in pinned if i < 8]


def test_section_flags_are_prefix_stable_across_blocks(monkeypatch):
    # Flags at 64 pair samples are a subset of the flags at 16, and blocks
    # of one or of several candidates give the same flags.
    space = bj.InfSum((L2, bj.LInf(1)))
    cands = bj.section_candidates(space, 120, seed=7)

    def flags(pair_samples):
        found = bj.euclidean_section_search(space, cands, pair_samples=pair_samples, seed=7)
        return [i for i, c in enumerate(cands) if any(c is f for f in found)]

    few, many = flags(16), flags(64)
    assert set(many) <= set(few) and len(many) < len(few)
    monkeypatch.setattr(bj.analysis, "PAIR_BLOCK", 64)
    assert flags(64) == many
    monkeypatch.setattr(bj.analysis, "PAIR_BLOCK", 200)
    assert flags(64) == many and flags(16) == few


def test_section_candidates_are_the_first_count():
    # The coordinate sections come first, then the seeded random ones.
    space = bj.Lp(4, 2.0)
    full = bj.section_candidates(space, 10, seed=3)
    assert [(c.u.argmax(), c.v.argmax()) for c in full[:6]] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for count in (1, 2, 6, 7, 10):
        cands = bj.section_candidates(space, count, seed=3)
        assert len(cands) == count
        for a, b in zip(cands, full):
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.v, b.v)


def test_degenerate_section_rejected():
    # A line has no 2-D sections; random candidates would be redrawn forever.
    with pytest.raises(DegenerateSection):
        bj.section_candidates(bj.LInf(1), 3)
    with pytest.raises(DegenerateSection):
        bj.SectionCandidate(np.array([1.0, 0.0, 0.0]), np.array([1.0, 1e-5, 0.0]))
    with pytest.raises(DegenerateSection):
        bj.SectionCandidate(np.zeros(3), np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Max-sum acute trichotomy.


def test_sum_acute_known_cases():
    s = bj.InfSum((L2, bj.LInf(1)))
    # Dominant first part, acute there: acute on the sum.
    assert bj.one_sided_acute_oracle(s, [1, 0, 0.5], [1, 1, -7])
    # Exact tie, second branch: y-part acute suffices.
    assert bj.one_sided_acute_oracle(s, [1, 0, 1], [-1, 0, 1])
    # Dominant first part, not acute there: not acute on the sum.
    assert not bj.one_sided_acute_oracle(s, [1, 0, 0.5], [-1, 0, 0])


@pytest.mark.parametrize(
    "space_x,space_y",
    [(L2, bj.LInf(1)), (DJ, bj.LInf(2))],
    ids=["euclid+linf1", "dayjames+linf2"],
)
def test_sum_acute_equivalence(space_x, space_y):
    rep = bj.sum_acute_equivalence_check(space_x, space_y, n_samples=2000, seed=11)
    assert rep.disagreements == 0
    assert rep.excluded_fraction < 0.05
    assert rep.tie_samples > 0


# to_dict() minus tool_version of the two certify pairs, recorded with the
# sample-at-a-time check; the reports name their space (CERTIFY_SPACES).
# Recorded again when the samples moved to the block draw table: every
# report still passes with 0 disagreements, and the exclusion counts moved
# with the draws.
PINNED_SUM_ACUTE = {
    ("l2_linf1", 0, 20): {"evaluated": 20, "boundary_excluded": 0, "tie_excluded": 0,
                          "tie_samples": 3},
    ("l2_linf1", 0, 1000): {"evaluated": 1000, "boundary_excluded": 0, "tie_excluded": 0,
                            "tie_samples": 125},
    ("l2_linf1", 7, 20): {"evaluated": 20, "boundary_excluded": 0, "tie_excluded": 0,
                          "tie_samples": 3},
    ("l2_linf1", 7, 1000): {"evaluated": 999, "boundary_excluded": 1, "tie_excluded": 0,
                            "tie_samples": 125},
    ("dj3_linf2", 0, 20): {"evaluated": 20, "boundary_excluded": 0, "tie_excluded": 0,
                           "tie_samples": 3},
    ("dj3_linf2", 0, 1000): {"evaluated": 999, "boundary_excluded": 1, "tie_excluded": 0,
                             "tie_samples": 125},
    ("dj3_linf2", 7, 20): {"evaluated": 20, "boundary_excluded": 0, "tie_excluded": 0,
                           "tie_samples": 3},
    ("dj3_linf2", 7, 1000): {"evaluated": 997, "boundary_excluded": 2, "tie_excluded": 1,
                             "tie_samples": 125},
}
CERTIFY_PAIRS = {"l2_linf1": (L2, bj.LInf(1)), "dj3_linf2": (DJ, bj.LInf(2))}
CERTIFY_SPACES = {"l2_linf1": "sum(lp:2:2,linf:1)", "dj3_linf2": "sum(dayjames:3:1.5,linf:2)"}


@pytest.mark.parametrize("label,seed,n", sorted(PINNED_SUM_ACUTE))
def test_sum_acute_report_matches_pinned_values(label, seed, n):
    report = bj.sum_acute_equivalence_check(*CERTIFY_PAIRS[label], n_samples=n, seed=seed)
    got = report.to_dict()
    del got["tool_version"]
    pinned = PINNED_SUM_ACUTE[label, seed, n]
    assert got == {
        "space": CERTIFY_SPACES[label],
        "samples": n, "evaluated": pinned["evaluated"], "disagreements": 0,
        "first_disagreement": None,
        "boundary_excluded": pinned["boundary_excluded"],
        "tie_excluded": pinned["tie_excluded"], "tie_samples": pinned["tie_samples"],
        "excluded_fraction": (pinned["boundary_excluded"] + pinned["tie_excluded"]) / n,
        "seed": seed, "pass": True}


def test_sum_acute_report_does_not_depend_on_blocks(monkeypatch):
    # A wider near-tie band, so that some samples are excluded as ties.
    monkeypatch.setattr(bj.analysis, "TIE_BAND", 0.05)
    full = bj.sum_acute_equivalence_check(DJ, bj.LInf(2), n_samples=300, seed=3)
    assert full.tie_excluded > 0 and full.boundary_excluded == 0
    # Judging blocks of 7 samples, and blocks that cut through the draw
    # table's blocks of BLOCK samples at other offsets.
    for pair_block in (7, BLOCK - 1, BLOCK + 1, 100):
        monkeypatch.setattr(bj.analysis, "PAIR_BLOCK", pair_block)
        assert bj.sum_acute_equivalence_check(DJ, bj.LInf(2), n_samples=300, seed=3) == full


def test_sum_acute_counts_boundary_exclusions():
    rep = bj.sum_acute_equivalence_check(L2, bj.LInf(1), n_samples=200, seed=1)
    assert rep.boundary_excluded > 0
    assert rep.evaluated + rep.boundary_excluded + rep.tie_excluded == 200
    assert rep.disagreements == 0


@pytest.mark.parametrize("knob, value", [("boundary_band", 0.2), ("tie_band", 0.05),
                                         ("tie_every", 4)])
def test_sum_acute_knobs_are_retired(knob, value):
    # The exclusion bands and the tie cadence are module constants.
    with pytest.raises(TypeError):
        bj.sum_acute_equivalence_check(L2, bj.LInf(1), n_samples=4, **{knob: value})


@pytest.mark.parametrize("call", [
    lambda: bj.sum_acute_equivalence_check(L2, bj.LInf(1), n_samples=0),
    lambda: bj.euclidean_section_search(DJ, [bj.SectionCandidate([1, 0], [0, 1])],
                                        pair_samples=0),
    lambda: bj.verify_preserver(bj.IdentityMap(L2), 0),
    lambda: bj.radon_defect(DJ, grid=8),
    lambda: bj.sample_orthograph(DJ, -2),
    lambda: bj.sample_orthograph(DJ, 0),
    lambda: bj.euclidean_section_search(DJ, []),
    lambda: bj.smoothness_probe(L2, samples=0),
    lambda: bj.section_candidates(bj.InfSum((L2, bj.LInf(1))), 0),
], ids=["sum_acute", "sections", "verify", "radon", "orthograph", "orthograph-0",
        "sections-empty", "smooth", "section-candidates"])
def test_counts_below_the_minimum_are_rejected(call):
    with pytest.raises(InvalidCount) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, bj.BjorthError)


# Every library call that takes a count and a seed: call(count, seed).
SEEDED_CALLS = {
    "verify": lambda n, seed: bj.verify_preserver(bj.IdentityMap(L2), n, seed=seed),
    "sum_acute": lambda n, seed: bj.sum_acute_equivalence_check(L2, bj.LInf(1), n_samples=n,
                                                                seed=seed),
    "smooth": lambda n, seed: bj.smoothness_probe(L2, samples=n, seed=seed),
    "section-candidates": lambda n, seed: bj.section_candidates(
        bj.InfSum((L2, bj.LInf(1))), n, seed=seed),
    "sections": lambda n, seed: bj.euclidean_section_search(
        DJ, [bj.SectionCandidate([1, 0], [0, 1])], pair_samples=n, seed=seed),
}


@pytest.mark.parametrize("name", ["verify", "sum_acute"])
def test_numpy_counts_and_seeds_give_reports_that_serialize(name):
    # An np.int64 count or seed used to reach the report, whose to_dict()
    # then made to_json_text raise TypeError.
    report = SEEDED_CALLS[name](np.int64(5), np.int64(3))
    record = report.to_dict()
    assert type(record["samples"]) is int and type(record["seed"]) is int
    assert record == SEEDED_CALLS[name](5, 3).to_dict()
    assert '"samples": 5' in bj.serialize.to_json_text(record)


@pytest.mark.parametrize("name", sorted(SEEDED_CALLS))
@pytest.mark.parametrize("count", [True, False])
def test_bool_counts_are_refused(name, count):
    # True used to run one sample and write "samples": true.
    with pytest.raises(InvalidCount):
        SEEDED_CALLS[name](count, 0)


@pytest.mark.parametrize("name", sorted(SEEDED_CALLS))
def test_negative_seeds_raise_a_bjorth_error(name):
    # numpy's generators raised a plain ValueError before the library checked.
    with pytest.raises(InvalidCount, match="seed must be >= 0"):
        SEEDED_CALLS[name](4, -1)
    with pytest.raises(InvalidCount):
        SEEDED_CALLS[name](4, True)


@pytest.mark.parametrize("name", sorted(SEEDED_CALLS))
@pytest.mark.parametrize("bad", [4.0, "4", None], ids=["float", "str", "None"])
def test_non_integer_counts_and_seeds_raise_a_bjorth_error(name, bad):
    # Each is an InvalidCount chained from operator.index's TypeError, so a
    # caller that catches BjorthError sees it.
    for count, seed in ((bad, 0), (4, bad)):
        with pytest.raises(InvalidCount) as info:
            SEEDED_CALLS[name](count, seed)
        assert isinstance(info.value.__cause__, TypeError)


def test_check_count_returns_a_python_int():
    assert [type(check_count(v, "n")) for v in (3, np.int64(3), np.uint8(3))] == [int] * 3
    assert check_count(np.int32(0), "seed", 0) == 0
    for bad in (2.0, "2", None):
        with pytest.raises(InvalidCount) as info:
            check_count(bad, "n")
        assert isinstance(info.value.__cause__, TypeError)
    with pytest.raises(InvalidCount):
        bj.verify_preserver(bj.IdentityMap(L2), 10.0)
    with pytest.raises(InvalidCount):
        bj.radon_defect(L2, 720.0)
    with pytest.raises(InvalidCount, match="grid must be >= 16 .*, got 15"):
        check_count(15, "grid", 16)


def test_sum_acute_report_round_trip():
    rep = bj.sum_acute_equivalence_check(L2, bj.LInf(1), n_samples=100, seed=2)
    d = rep.to_dict()
    assert d["pass"] is True and d["samples"] == 100


# ---------------------------------------------------------------------------
# Orthogonality graphs.


def test_orthograph_euclid_four_angles():
    g = bj.sample_orthograph(L2, [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    assert g.edge_list() == [(0, 2), (1, 3)]
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()


def test_orthograph_lp3_one_directional_pair_has_no_edge():
    g = bj.sample_orthograph(bj.Lp(2, 3.0), [np.array([2.0, 1.0]), np.array([1.0, -4.0])])
    assert g.edge_list() == []


def test_orthograph_dayjames_unique_partner():
    # Vertices: uniform angles plus their solved partners; each original
    # direction is adjacent to exactly its own partner.  The margin absorbs
    # the Hoelder amplification of axis quantization (exponent below two).
    n = 72
    angles = list(np.linspace(0.0, math.pi, n, endpoint=False))
    partners = []
    for t in angles:
        f = DJ.support_set(bj.unit_vector_at_angle(DJ, float(t)))[0]
        partners.append(math.atan2(f[1], f[0]) + math.pi / 2)
    g = bj.sample_orthograph(DJ, angles + partners, margin=1e-7)
    adj = g.adjacency
    for i in range(n):
        assert adj[i, n + i]
        assert int(adj[i, n:].sum()) == 1
    assert np.array_equal(adj, adj.T)


def test_orthograph_integer_form_requires_plane():
    with pytest.raises(NotAPlane):
        bj.sample_orthograph(bj.Lp(3, 2.0), 8)


def test_orthograph_edge_file(tmp_path):
    g = bj.sample_orthograph(L2, [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    path = tmp_path / "edges.txt"
    g.write_edges(path)
    assert path.read_text() == "0 2\n1 3\n"


@pytest.mark.parametrize("space", [DJ, bj.LInf(3), bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1)))],
                         ids=str)
def test_orthograph_vector_list_matches_pairwise_test(space, monkeypatch):
    # Blocks of 5 pairs, the last one short, so the block seams are covered.
    monkeypatch.setattr(bj.analysis, "PAIR_BLOCK", 5)
    rng = np.random.default_rng(3)
    vectors = [np.zeros(space.dim)]
    for _ in range(6):
        x = rng.standard_normal(space.dim)
        vectors += [x, bj.orthogonal_direction(space, x, rng)]
    g = bj.sample_orthograph(space, vectors)
    n = len(vectors)
    expected = np.array([[i != j and bj.is_mutually_orthogonal(space, vectors[i], vectors[j])
                          for j in range(n)] for i in range(n)])
    assert np.array_equal(g.adjacency, expected)
    # The zero vector is orthogonal to everything, both ways.
    assert g.adjacency[0, 1:].all()
    edges = g.edge_list()
    assert edges == [(i, j) for i in range(n) for j in range(i + 1, n) if expected[i, j]]
    assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is int for e in edges)


# ---------------------------------------------------------------------------
# The sum-acute and orthograph judges read witness_rows and angle_masks; the
# reference is the same judge on classify_many's AngleRelation arrays.


def reference_judge_rows(space, X, Y, margin):
    rel = bj.classify_many(space, X, Y, margin)
    return rel.is_acute, rel.is_bj_orthogonal, rel.acute_distance()


def assert_judged_alike(space, X, Y, margin):
    for got, want in zip(_judge_rows(space, X, Y, margin),
                         reference_judge_rows(space, X, Y, margin)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(data=st.data(), space=st.sampled_from(SPACE_ZOO))
def test_judge_rows_match_their_classify_many_reference(data, space):
    margin = data.draw(st.sampled_from([bj.MARGIN, 1e-6, 1e-3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.lists(KIND, min_size=1, max_size=24))
    assert_judged_alike(space, *judge_stack(space, rng, kinds, margin), margin)


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_judge_rows_match_their_reference_on_zero_and_overflowing_rows(space):
    rng = np.random.default_rng(29)
    kinds = [(zero, kind, c) for zero in (False, True) for kind in ("random", "near", "huge")
             for c in (-11.0, -2.0, -0.5, 0.5, 2.0, 11.0)]
    X, Y = judge_stack(space, rng, kinds, bj.MARGIN)
    assert_judged_alike(space, X, Y, bj.MARGIN)
    _, _, _, live, k = witness_rows(space, X, Y)
    assert not live.all()
    assert (k is None) == isinstance(space, bj.LInf)  # a max norm does not overflow


def reference_orthograph(space, vectors, margin):
    """sample_orthograph's adjacency from two classify_many calls on all pairs."""
    V = np.array(vectors)
    i, j = np.triu_indices(len(V), 1)
    mutual = (bj.classify_many(space, V[i], V[j], margin).is_bj_orthogonal
              & bj.classify_many(space, V[j], V[i], margin).is_bj_orthogonal)
    adj = np.zeros((len(V), len(V)), dtype=bool)
    adj[i[mutual], j[mutual]] = True
    return adj | adj.T


@pytest.mark.parametrize("space", SPACE_ZOO, ids=str)
def test_orthograph_matches_its_classify_many_reference(space, monkeypatch):
    # Zero vectors, vectors near orthogonal to others, and vectors whose
    # norms overflow, judged in blocks of 7 pairs.
    monkeypatch.setattr(bj.analysis, "PAIR_BLOCK", 7)
    rng = np.random.default_rng(31)
    kinds = [(zero, kind, c) for zero in (False, True) for kind in ("random", "near", "huge")
             for c in (-2.0, 0.5)]
    X, Y = judge_stack(space, rng, kinds, bj.MARGIN)
    vectors = [*X, *Y]
    for margin in (bj.MARGIN, 1e-3):
        adjacency = bj.sample_orthograph(space, vectors, margin).adjacency
        assert np.array_equal(adjacency, reference_orthograph(space, vectors, margin))
        assert adjacency.any() and not adjacency.all()


@pytest.mark.parametrize("label", sorted(CERTIFY_PAIRS))
@pytest.mark.parametrize("margin", [bj.MARGIN, 1e-3])
def test_sum_acute_report_matches_its_classify_many_reference(label, margin, monkeypatch):
    got = bj.sum_acute_equivalence_check(*CERTIFY_PAIRS[label], n_samples=600, margin=margin,
                                         seed=5)
    monkeypatch.setattr(bj.analysis, "_judge_rows", reference_judge_rows)
    want = bj.sum_acute_equivalence_check(*CERTIFY_PAIRS[label], n_samples=600, margin=margin,
                                          seed=5)
    assert got == want
    assert got.evaluated > 0
