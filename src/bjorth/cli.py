"""Command line front end.

Verbs map one-to-one onto library operations, except ``certify``, which
runs the full certification sweep and writes every artifact through the same
writers as the single verbs.  Every run prints the tool version (and seed
where one applies) and exits 0 on pass/success, 1 on a verification failure
(reports are still written), 2 on usage or parse errors.  The BJORTH_OUTDIR
environment variable sets the default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    radon_defect,
    sample_orthograph,
    section_candidates,
    smoothness_probe,
    sum_acute_equivalence_check,
    euclidean_section_search,
)
from .errors import BjorthError, check_count
from .orthogonality import MARGIN, classify_angle
from .preserver import (IdentityMap, RadonPlaneMap, build_preserver, compose_inf_sum,
                        pairing_table, verify_preserver)
from .serialize import fmt_float, write_csv, write_json
from .spaces import (
    DayJames,
    InfSum,
    LInf,
    Lp,
    NormedSpace,
    format_space,
    load_space_file,
    parse_space,
    unit_vector_at_angle,
)


def load_space(descriptor: str) -> NormedSpace:
    """Parse a compact space string, or read a JSON space file."""
    path = Path(descriptor)
    if descriptor.endswith(".json") or path.is_file():
        return load_space_file(path)
    return parse_space(descriptor)


def _out_path(name: str) -> Path:
    p = Path(name)
    if p.is_absolute():
        return p
    return Path(os.environ.get("BJORTH_OUTDIR", ".")) / p


def _emit(name: str | None, write) -> None:
    """Write an artifact by write(path) to the --out path name, if given."""
    if name is not None:
        path = _out_path(name)
        write(path)
        print(f"wrote {path}")


def _seed(text: str) -> int:
    """The type of every --seed: numpy's generators take integers >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _coords(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise BjorthError(f"cannot parse coordinates {text!r}") from exc


def _print_header(seed=None) -> None:
    line = f"bjorth {__version__}"
    if seed is not None:
        line += f" seed={seed}"
    print(line)


def _write_radon(path, scan) -> None:
    write_csv(path, ["theta", "theta_star", "forward_residual", "reverse_deficit"], scan.rows)


def _write_eta(path, rows) -> None:
    write_csv(path, ["theta", "eta", "residual"], rows)


def _write_circle(path, plane: NormedSpace, grid: int) -> None:
    rows = []
    for t in np.linspace(0.0, 2.0 * math.pi, check_count(grid, "grid"), endpoint=False):
        u = unit_vector_at_angle(plane, float(t))
        rows.append((float(t), float(u[0]), float(u[1])))
    write_csv(path, ["theta", "x", "y"], rows)


def _sections_record(space: NormedSpace, count: int, pair_samples: int, tol: float,
                     seed: int) -> dict:
    """Search seeded section candidates; the record lists flagged indices."""
    candidates = section_candidates(space, count, seed=seed)
    flagged = {id(f) for f in euclidean_section_search(
        space, candidates, pair_samples=pair_samples, tol=tol, seed=seed
    )}
    return {
        "space": format_space(space),
        "candidates": len(candidates),
        "flagged": [i for i, c in enumerate(candidates) if id(c) in flagged],
        "pair_samples": pair_samples,
        "tol": tol,
        "seed": seed,
        "tool_version": __version__,
    }


def cmd_check(args) -> int:
    space = load_space(args.space)
    _print_header()
    x, y = _coords(args.x), _coords(args.y)
    rel = classify_angle(space, x, y, args.margin)
    print(rel.tag.value)
    rev = classify_angle(space, y, x, args.margin)
    print(f"reverse: {rev.tag.value}")
    mutual = rel.is_bj_orthogonal and rev.is_bj_orthogonal
    print(f"mutual: {'yes' if mutual else 'no'}")
    print(f"bounds: {fmt_float(rel.min_bound)} {fmt_float(rel.max_bound)}")
    print(f"scale: {fmt_float(rel.scale)}")
    print(f"margin: {fmt_float(args.margin)}")
    return 0 if rel.is_bj_orthogonal else 1


def cmd_radon(args) -> int:
    space = load_space(args.space)
    _print_header()
    scan = radon_defect(space, grid=args.grid, margin=args.margin)
    print(f"space: {format_space(space)}")
    print(f"defect: {fmt_float(scan.defect)}")
    if scan.witness is not None:
        print(f"witness: theta={fmt_float(scan.witness[0])} theta_star={fmt_float(scan.witness[1])}")
    _emit(args.out, lambda path: _write_radon(path, scan))
    return 0 if scan.witness is None else 1


def cmd_smooth(args) -> int:
    space = load_space(args.space)
    _print_header(seed=args.seed)
    probe = smoothness_probe(space, samples=args.samples, seed=args.seed)
    print(f"smooth: {'yes' if probe.smooth else 'no'}")
    print(f"worst_gap: {fmt_float(probe.worst_gap)}")
    return 0 if probe.smooth else 1


def cmd_preserver_build(args) -> int:
    plane = load_space(args.target)
    _print_header()
    rows = pairing_table(plane, args.grid)
    print(f"target: {format_space(plane)}")
    print(f"nodes: {len(rows)}")
    print(f"endpoints: {fmt_float(rows[0][1])} {fmt_float(rows[-1][1])}")
    print(f"max_residual: {fmt_float(max(resid for _, _, resid in rows))}")
    _emit(args.out, lambda path: _write_eta(path, rows))
    return 0


def cmd_preserver_verify(args) -> int:
    plane = load_space(args.target)
    _print_header(seed=args.seed)
    pmap = build_preserver(plane, grid_size=args.grid)
    report = verify_preserver(pmap, args.samples, margin=args.margin, seed=args.seed)
    print(f"target: {format_space(plane)}")
    print(f"pass: {'yes' if report.passed else 'no'}")
    print(f"disagreements: {report.disagreements}")
    print(f"max_norm_error: {fmt_float(report.max_norm_error)}")
    _emit(args.out, lambda path: write_json(path, report.to_dict()))
    return 0 if report.passed else 1


def cmd_sections(args) -> int:
    space = load_space(args.space)
    _print_header(seed=args.seed)
    record = _sections_record(space, args.candidates, args.pair_samples, args.tol, args.seed)
    print(f"space: {record['space']}")
    print(f"candidates: {record['candidates']}")
    print(f"flagged: {len(record['flagged'])}")
    _emit(args.out, lambda path: write_json(path, record))
    return 0


def cmd_sum_acute(args) -> int:
    space_x = load_space(args.x_space)
    space_y = load_space(args.y_space)
    _print_header(seed=args.seed)
    report = sum_acute_equivalence_check(
        space_x, space_y, n_samples=args.samples, margin=args.margin, seed=args.seed
    )
    print(f"spaces: {format_space(space_x)} (+) {format_space(space_y)}")
    print(f"pass: {'yes' if report.passed else 'no'}")
    print(f"disagreements: {report.disagreements}")
    print(f"excluded_fraction: {fmt_float(report.excluded_fraction)}")
    print(f"evaluated: {report.evaluated}")
    _emit(args.out, lambda path: write_json(path, report.to_dict()))
    return 0 if report.passed else 1


def cmd_orthograph(args) -> int:
    space = load_space(args.space)
    _print_header()
    directions = args.directions if args.angles is None else _coords(args.angles)
    graph = sample_orthograph(space, directions, margin=args.margin)
    print(f"vertices: {len(graph.vectors)}")
    print(f"edges: {len(graph.edge_list())}")
    _emit(args.out, graph.write_edges)
    return 0


def cmd_circle(args) -> int:
    space = load_space(args.space)
    _print_header()
    _emit(args.out, lambda path: _write_circle(path, space, args.grid))
    return 0


def cmd_certify(args) -> int:
    """Symmetry scans, the plane preserver and its max-sum lifts, the acute
    trichotomy, section searches and the orthograph, all seeded; exits 1 when
    any preserver or sum-acute report fails."""
    out = _out_path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = 256 if args.fast else 1024
    radon_grid = 180 if args.fast else 720
    samples = 1000 if args.fast else 10000
    candidates = 200 if args.fast else 1000
    t_start = time.perf_counter()
    checks = {}
    passed = True
    _print_header(seed=args.seed)

    # Symmetry scans across the conjugate family and the asymmetric planes.
    for label, plane in [
        ("dayjames_1.5", DayJames(1.5, 3.0)),
        ("dayjames_2", DayJames(2.0, 2.0)),
        ("dayjames_3", DayJames(3.0, 1.5)),
        ("dayjames_4", DayJames(4.0, 4.0 / 3.0)),
        ("lp_1.5", Lp(2, 1.5)),
        ("lp_3", Lp(2, 3.0)),
        ("lp_4", Lp(2, 4.0)),
    ]:
        scan = radon_defect(plane, grid=radon_grid)
        _write_radon(out / f"radon_{label}.csv", scan)
        checks[f"radon_{label}"] = scan.defect
        print(f"  radon {label:14s} defect={scan.defect:.3e}")

    # Plane preserver: pairing table (build_preserver's gate, run once), unit
    # circle, then the verification reports of the plane map and its lifts.
    dj = DayJames(3.0, 1.5)
    _write_eta(out / "eta_dayjames_3.csv", pairing_table(dj, grid))
    pmap = RadonPlaneMap(dj)
    _write_circle(out / "circle_dayjames_3.csv", dj, 720)
    maps = [("dayjames_3", pmap)] + [
        (f"sum_linf{n}", compose_inf_sum([pmap, IdentityMap(LInf(n))])) for n in (1, 2, 8)
    ]
    for label, m in maps:
        report = verify_preserver(m, samples, seed=args.seed)
        write_json(out / f"preserver_{label}.json", report.to_dict())
        checks[f"preserver_{label}"] = report.passed
        passed = passed and report.passed
        print(f"  preserver {label:14s} pass={report.passed} "
              f"disagreements={report.disagreements}")

    # Acute trichotomy on max-sums.
    for label, sx, sy in [
        ("l2_linf1", Lp(2, 2.0), LInf(1)),
        ("dj3_linf2", dj, LInf(2)),
    ]:
        report = sum_acute_equivalence_check(sx, sy, n_samples=samples, seed=args.seed)
        write_json(out / f"sum_acute_{label}.json", report.to_dict())
        checks[f"sum_acute_{label}"] = report.passed
        passed = passed and report.passed
        print(f"  sum-acute {label:14s} pass={report.passed} "
              f"excluded={report.excluded_fraction:.4f}")

    # Euclidean-section search on both sum families.
    for label, space in [
        ("l2_linf1", InfSum((Lp(2, 2.0), LInf(1)))),
        ("dj3_linf1", InfSum((dj, LInf(1)))),
    ]:
        record = _sections_record(space, candidates, pair_samples=64, tol=1e-6, seed=args.seed)
        write_json(out / f"sections_{label}.json", record)
        checks[f"sections_{label}_flagged"] = len(record["flagged"])
        print(f"  sections {label:15s} flagged={len(record['flagged'])}")

    # Orthograph of the Radon plane.  Every direction has one orthogonal
    # partner, but an edge needs that partner on the grid as well, which of
    # the 180 uniform directions holds only for the axis and diagonal pairs.
    graph = sample_orthograph(dj, 180, margin=1e-7)
    graph.write_edges(out / "orthograph_dayjames_3.txt")
    checks["orthograph_edges"] = len(graph.edge_list())
    print(f"  orthograph dayjames_3     edges={checks['orthograph_edges']}")

    write_json(out / "summary.json",
               {"seed": args.seed, "tool_version": __version__, "checks": checks})
    print(f"done in {time.perf_counter() - t_start:.1f}s; artifacts in {out}/")
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjorth",
        description="Birkhoff-James orthogonality toolkit for finite-dimensional normed spaces.",
    )
    parser.add_argument("--version", action="version", version=f"bjorth {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    # The options several verbs share, each declared once in a parent parser.
    space, margin, seed, out = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    space.add_argument("--space", required=True)
    margin.add_argument("--margin", type=float, default=MARGIN)
    seed.add_argument("--seed", type=_seed, default=0)
    out.add_argument("--out")

    def verb(name, func, text, *shared):
        p = sub.add_parser(name, help=text, parents=shared)
        p.set_defaults(func=func)
        return p

    p = verb("check", cmd_check, "classify the angle relation of a vector pair", space, margin)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = verb("radon", cmd_radon, "scan a plane for orthogonality symmetry", space, out)
    p.add_argument("--grid", type=int, default=720)
    p.add_argument("--margin", type=float, default=1e-8)

    p = verb("smooth", cmd_smooth, "probe norm smoothness", space, seed)
    p.add_argument("--samples", type=int, default=200)

    p = verb("preserver-build", cmd_preserver_build, "tabulate the plane preserver pairing", out)
    p.add_argument("--target", required=True)
    p.add_argument("--grid", type=int, default=1024)

    p = verb("preserver-verify", cmd_preserver_verify, "build and certify a plane preserver",
             margin, seed, out)
    p.add_argument("--target", required=True)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--samples", type=int, default=10000)

    p = verb("sections", cmd_sections, "search 2-D sections for Euclidean ones", space, seed, out)
    p.add_argument("--candidates", type=int, default=1000)
    p.add_argument("--pair-samples", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-6)

    p = verb("sum-acute", cmd_sum_acute, "check the max-sum acute-angle trichotomy",
             margin, seed, out)
    p.add_argument("--x-space", required=True)
    p.add_argument("--y-space", required=True)
    p.add_argument("--samples", type=int, default=10000)

    p = verb("orthograph", cmd_orthograph, "sample the mutual-orthogonality graph",
             space, margin, out)
    p.add_argument("--directions", type=int, default=360)
    p.add_argument("--angles", help="explicit comma-separated angles (plane only)")

    p = verb("circle", cmd_circle, "sample the unit circle of a plane to CSV", space)
    p.add_argument("--grid", type=int, default=360)
    p.add_argument("--out", required=True)

    p = verb("certify", cmd_certify, "run the full certification sweep and write every artifact",
             seed)
    p.add_argument("--out", default="out")
    p.add_argument("--fast", action="store_true",
                   help="smaller grids and sample counts for a quick pass")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BjorthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
