"""Tests of the benchmark itself: its gate, its determinism and its trace.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from workloads import WORKLOADS, Spans, part_seed

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def bj():
    return run.fresh_import()


def _corrupted(bj, pmap):
    """The plane map with its pairing table replaced by the Euclidean one.

    The table is still a valid monotone table with the right endpoints, so
    it is accepted, but it is wrong for the Day-James plane.
    """
    eta = pmap.eta
    table = bj.EtaTable(grid=eta.grid, values=eta.grid + math.pi / 2,
                        residuals=eta.residuals, plane=eta.plane)
    return bj.RadonPlaneMap(eta=table)


def test_corrupted_table_fails_the_gate(bj, tmp_path):
    workload = WORKLOADS["preserver-sweep"]
    state = workload.build(bj, Spans())
    honest = workload.run_round(state, 7, Spans(), tmp_path)
    assert honest.verdicts.attempted == 3 * workload.chunks and honest.verdicts.failed == 0

    plane = state["maps"][0][1]
    state["maps"] = workload.maps(bj, _corrupted(bj, plane))
    broken = workload.run_round(state, 7, Spans(), tmp_path)
    assert broken.verdicts.failed / broken.verdicts.attempted > 0


def test_corrupted_table_fails_point_queries(bj, tmp_path):
    workload = WORKLOADS["point-queries"]
    state = workload.build(bj, Spans())
    state["pmap"] = _corrupted(bj, state["pmap"])
    broken = workload.run_round(state, 7, Spans(), tmp_path)
    assert broken.verdicts.failed > 0


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Two traced runs with seed 1 and one with seed 2, per workload."""
    out = {}
    for name, workload in WORKLOADS.items():
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            d = tmp_path_factory.mktemp(f"{name}-{tag}")
            out[name, tag] = run.traced_run(workload, seed, 1.0, d)
            shutil.rmtree(d)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_artifacts_and_counts(traces, name):
    (ma, va, ia), (mb, vb, ib) = traces[name, "a"], traces[name, "b"]
    assert va.failed == vb.failed == 0
    assert ia["artifact_sha256"] == ib["artifact_sha256"]
    counts = {k for k, (_, unit) in ma.items() if unit == "count"}
    assert counts
    assert {k: ma[k] for k in counts} == {k: mb[k] for k in counts}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes_the_gate(traces, name):
    metrics, verdicts, _ = traces[name, "c"]
    assert verdicts.attempted > 0 and verdicts.failed == 0


def test_bypass_predictions(traces):
    preserver, _, _ = traces["preserver-sweep", "a"]
    geometry, _, _ = traces["geometry-sweep", "a"]
    assert preserver["orthogonality.oracle.calls"][0] == 0
    assert preserver["preserver.apply.calls"][0] > 0
    assert geometry["preserver.apply.calls"][0] == 0
    assert geometry["orthogonality.oracle.calls"][0] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "point-queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_metrics(traces):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    traced, _, _ = traces["point-queries", "a"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in traced.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "sweep_s", "items_per_s", "query_p50_us", "query_p99_us", "peak_rss_mb"}


@pytest.mark.skipif(not hasattr(compile("", "", "exec"), "co_qualname"),
                    reason="code objects carry co_qualname from Python 3.11")
def test_qualified_names_match_python():
    from layers import _qualnames

    expected = {}
    for path in run.PACKAGE.glob("*.py"):
        stack = list(compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts)
        while stack:
            code = stack.pop()
            if hasattr(code, "co_code"):
                expected[(path.stem, code.co_firstlineno, code.co_name)] = code.co_qualname
                stack.extend(code.co_consts)
    assert _qualnames(run.PACKAGE) == expected


@pytest.mark.xfail(strict=True, reason=(
    "euclidean_section_search flags a near-degenerate candidate of a sum with no "
    "Euclidean section; geometry-sweep reports the flagged count without judging it"))
def test_dayjames_sum_has_no_flagged_section(bj):
    # Round 5 of geometry-sweep seed 14, with 200 candidates: candidate 153
    # has a basis Gram determinant of 3.4e-5 and survives all 64 draws.
    seed = part_seed(14, 5)
    space = bj.parse_space("sum(dayjames:3:1.5,linf:1)")
    cands = bj.section_candidates(space, 200, seed=seed)
    assert bj.euclidean_section_search(space, cands, pair_samples=64, seed=seed) == []


@pytest.mark.xfail(strict=True, reason=(
    "apply_inverse(apply(v)) misses 1e-9 relative within about 1e-6 rad of an axis "
    "in the q < 2 quadrants; point-queries keeps its map inputs 1e-4 rad away"))
def test_round_trip_near_an_axis(bj):
    pmap = bj.build_preserver(bj.parse_space("dayjames:3:1.5"), 1024)
    v = np.array([-1e-9, 1.0])
    back = pmap.apply_inverse(pmap.apply(v))
    assert np.linalg.norm(back - v) <= 1e-9 * np.linalg.norm(v)
