"""Acceptance suite: one test per criterion, full stated sizes.

Run with `pytest -sv tests/test_acceptance.py` to see one pass/fail line per
criterion (plain `pytest -v` shows the same verdicts as test outcomes).
"""

import math
import time

import numpy as np
import pytest

import bjorth as bj
from bjorth.orthogonality import AngleTag

from conftest import non_radon_map, random_nonzero

DJ = bj.DayJames(3.0, 1.5)
L2 = bj.Lp(2, 2.0)


def _report(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_radon_symmetry():
    details = []
    ok = True
    for p in (1.5, 2.0, 3.0, 4.0):
        t0 = time.perf_counter()
        scan = bj.radon_defect(bj.DayJames(p, p / (p - 1)), grid=720)
        dt = time.perf_counter() - t0
        ok = ok and scan.defect <= 1e-8 and scan.witness is None and dt < 10.0
        details.append(f"dj({p})={scan.defect:.2e}")
    for p in (1.5, 3.0, 4.0):
        t0 = time.perf_counter()
        scan = bj.radon_defect(bj.Lp(2, p), grid=720)
        dt = time.perf_counter() - t0
        ok = ok and scan.defect > 1e-2 and scan.witness is not None and dt < 10.0
        details.append(f"lp({p})={scan.defect:.2e}")
    _report("1 Radon symmetry", ok, ", ".join(details))


def test_criterion_2_eta_construction():
    t0 = time.perf_counter()
    table = bj.build_preserver(DJ, 1024).eta
    dt = time.perf_counter() - t0
    ok = (
        len(table.grid) == 1025
        and abs(table.values[0] - math.pi / 2) <= 1e-10
        and abs(table.values[-1] - math.pi) <= 1e-10
        and bool(np.all(np.diff(table.values) > 0))
        and float(table.residuals.max()) <= 1e-8
        and dt < 5.0
    )
    _report(
        "2 eta construction",
        ok,
        f"nodes=1025 max_residual={float(table.residuals.max()):.2e} time={dt:.2f}s",
    )


def test_criterion_3_preserver_correctness():
    t0 = time.perf_counter()
    pmap = bj.build_preserver(DJ, 1024)
    report = bj.verify_preserver(pmap, 10000, margin=1e-9, seed=0)

    # The fault-injection control: the same map onto a plane that is not Radon.
    fault = non_radon_map(bj.Lp(2, 3.0), 1024)
    fault_report = bj.verify_preserver(fault, 10000, margin=1e-9, seed=7)
    dt = time.perf_counter() - t0

    ok = (
        report.passed
        and report.orth_disagreements == 0
        and report.acute_disagreements == 0
        and report.max_norm_error <= 1e-9
        and report.max_homog_error <= 1e-12
        and not fault_report.passed
        and fault_report.orth_disagreements >= 1
        and dt < 30.0
    )
    _report(
        "3 preserver correctness",
        ok,
        f"disagreements={report.disagreements} norm_err={report.max_norm_error:.2e} "
        f"homog_err={report.max_homog_error:.2e} fault_disagreements="
        f"{fault_report.orth_disagreements} time={dt:.2f}s",
    )


def test_criterion_4_sum_lifting():
    t0 = time.perf_counter()
    plane_map = bj.build_preserver(DJ, 1024)
    details = []
    ok = True
    for n in (1, 2, 8):
        sm = bj.compose_inf_sum([plane_map, bj.IdentityMap(bj.LInf(n))])
        report = bj.verify_preserver(sm, 10000, margin=1e-9, seed=0)
        ok = (
            ok
            and report.passed
            and report.disagreements == 0
            and report.max_norm_error <= 1e-9
            and report.max_homog_error <= 1e-12
        )
        details.append(f"n={n}:dis={report.disagreements}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _report("4 sum lifting", ok, ", ".join(details) + f" time={dt:.2f}s")


def test_criterion_5_sum_acute_equivalence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for space_x, space_y, label in ((L2, bj.LInf(1), "l2+linf1"), (DJ, bj.LInf(2), "dj+linf2")):
        report = bj.sum_acute_equivalence_check(space_x, space_y, n_samples=10000, seed=0)
        ok = ok and report.disagreements == 0 and report.excluded_fraction < 0.05
        details.append(
            f"{label}:dis={report.disagreements},excl={report.excluded_fraction:.4f}"
        )
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report("5 sum-acute equivalence", ok, ", ".join(details) + f" time={dt:.2f}s")


def test_criterion_6_non_isometry_evidence():
    t0 = time.perf_counter()
    defect = bj.parallelogram_defect(DJ, [1, 0], [0, 1])
    ok = abs(defect - 0.1072432) <= 1e-6

    euclid_sum = bj.InfSum((L2, bj.LInf(1)))
    cands = bj.section_candidates(euclid_sum, 1000, seed=0)
    flagged = bj.euclidean_section_search(euclid_sum, cands, pair_samples=64, seed=0)
    ok = ok and any(f is cands[0] for f in flagged)

    dj_sum = bj.InfSum((DJ, bj.LInf(1)))
    cands_dj = bj.section_candidates(dj_sum, 1000, seed=0)
    flagged_dj = bj.euclidean_section_search(dj_sum, cands_dj, pair_samples=64, seed=0)
    ok = ok and flagged_dj == []
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _report(
        "6 non-isometry evidence",
        ok,
        f"parallelogram={defect:.7f} euclid_flagged={len(flagged)} "
        f"dj_flagged={len(flagged_dj)} time={dt:.2f}s",
    )


def test_criterion_7_oracle_cross_validation():
    spaces = [
        L2,
        bj.Lp(2, 3.0),
        bj.LInf(2),
        DJ,
        bj.InfSum((L2, bj.LInf(1))),
        bj.InfSum((DJ, bj.LInf(2))),
    ]
    band = bj.oracle_exclusion_band(1e-9)
    t0 = time.perf_counter()
    compared = excluded = two_sided_dis = one_sided_dis = 0
    for si, space in enumerate(spaces):
        for i in range(1667):
            rng = np.random.default_rng([97, si, i])
            x = random_nonzero(space, rng)
            if i % 8 == 0:
                y = bj.orthogonal_direction(space, x, rng)
                if space.is_zero(y):
                    continue
            else:
                y = random_nonzero(space, rng)
            rel = bj.classify_angle(space, x, y)
            informative = False
            if rel.is_orthogonal or rel.orthogonality_distance() > band:
                informative = True
                if bj.is_bj_orthogonal(space, x, y) != bj.is_bj_orthogonal_oracle(space, x, y):
                    two_sided_dis += 1
            if rel.is_orthogonal or rel.acute_distance() > band:
                informative = True
                if rel.is_acute != bj.one_sided_acute_oracle(space, x, y):
                    one_sided_dis += 1
            if informative:
                compared += 1
            else:
                excluded += 1
    dt = time.perf_counter() - t0
    ok = two_sided_dis == 0 and one_sided_dis == 0 and compared >= 9900 and dt < 30.0
    _report(
        "7 oracle cross-validation",
        ok,
        f"compared={compared} excluded={excluded} two_sided={two_sided_dis} "
        f"one_sided={one_sided_dis} time={dt:.2f}s",
    )


def test_criterion_8_structural_invariants():
    zoo = [L2, bj.Lp(2, 3.0), bj.LInf(2), DJ, bj.InfSum((DJ, bj.LInf(2)))]
    flip = {
        AngleTag.STRICTLY_ACUTE: AngleTag.STRICTLY_OBTUSE,
        AngleTag.STRICTLY_OBTUSE: AngleTag.STRICTLY_ACUTE,
        AngleTag.ORTHOGONAL: AngleTag.ORTHOGONAL,
    }
    t0 = time.perf_counter()
    violations = {"nondegen": 0, "scaling": 0, "reflection": 0, "decomp": 0, "convex": 0}

    for i in range(10000):
        rng = np.random.default_rng([11, i])
        space = zoo[i % len(zoo)]
        x = random_nonzero(space, rng)
        if bj.is_bj_orthogonal(space, x, x):
            violations["nondegen"] += 1

    for i in range(10000):
        rng = np.random.default_rng([13, i])
        space = zoo[i % len(zoo)]
        x = random_nonzero(space, rng)
        y = random_nonzero(space, rng)
        rel = bj.classify_angle(space, x, y)
        a, b = math.exp(rng.uniform(-2, 2)), math.exp(rng.uniform(-2, 2))
        if bj.classify_angle(space, a * x, b * y).tag is not rel.tag:
            violations["scaling"] += 1
        if bj.classify_angle(space, x, -y).tag is not flip[rel.tag]:
            violations["reflection"] += 1
        if rel.is_orthogonal != (rel.is_acute and rel.is_obtuse):
            violations["decomp"] += 1

    checked = 0
    i = 0
    while checked < 10000:
        rng = np.random.default_rng([17, i])
        i += 1
        space = zoo[i % len(zoo)]
        x = random_nonzero(space, rng)
        y1 = random_nonzero(space, rng)
        y2 = random_nonzero(space, rng)
        if (
            bj.classify_angle(space, x, y1).tag is AngleTag.STRICTLY_ACUTE
            and bj.classify_angle(space, x, y2).tag is AngleTag.STRICTLY_ACUTE
        ):
            t = rng.uniform(0.0, 1.0)
            combo = t * y1 + (1 - t) * y2
            if bj.classify_angle(space, x, combo).tag is not AngleTag.STRICTLY_ACUTE:
                violations["convex"] += 1
            checked += 1

    dt = time.perf_counter() - t0
    total = sum(violations.values())
    ok = total == 0 and dt < 30.0
    _report(
        "8 structural invariants",
        ok,
        " ".join(f"{k}={v}" for k, v in violations.items()) + f" time={dt:.2f}s",
    )
