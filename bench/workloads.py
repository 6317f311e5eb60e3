"""The three benchmark workloads, driven through bjorth's public API.

Each workload is closed-loop with a single client: it builds its spaces (and
the plane preserver where it needs one), then runs rounds.  A round has
three phases:

* ``prepare`` makes the round's inputs from the workload seed and the round
  index, outside the timed region;
* ``measure`` makes the library calls, each inside a span, and writes the
  artifacts the sweep serializes;
* ``check`` decides, outside the timed region, whether every verdict the
  library gave is correct.

The ``bj`` module object is passed in rather than imported here, so that the
benchmark can time a fresh import of the library as part of set-up.
"""

from __future__ import annotations

import contextlib
import math
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Secant slopes decide a verdict only when they clear zero by this much,
# relative to ||y||.  The secant step is 1e-6 ||x|| / ||y||, so its
# truncation error (order 1e-6) and rounding error (order 1e-10) stay far
# below the band; random Gaussian pairs fall inside it about once in 1e3.
SECANT_BAND = 1e-3
SECANT_STEP = 1e-6

# Relative tolerance for norm preservation and apply/apply_inverse round trips.
ROUND_TRIP_TOL = 1e-9
# Map inputs keep this angle (radians) from the coordinate axes.  Closer in,
# the round trip misses the tolerance (see test_bench.py); at this distance
# its error is about 1e-11.
AXIS_GAP = 1e-4


class Spans:
    """Durations of the library calls the benchmark makes, by call name.

    Durations are kept in integer nanoseconds in compact arrays, so a run of
    a few hundred thousand calls adds little to the process's memory.
    """

    def __init__(self):
        self.ns: dict[str, array] = {}

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - t0
            self.ns.setdefault(name, array("q")).append(elapsed)

    def durations_us(self, names=None) -> list[float]:
        return [d / 1e3 for name, ds in self.ns.items()
                if names is None or name in names for d in ds]

    def total_s(self, name: str) -> float:
        return sum(self.ns.get(name, ())) / 1e9


@dataclass
class Verdicts:
    """Outcome of checks: one entry per verdict the library gave."""

    attempted: int = 0
    failed: int = 0
    excluded: int = 0
    first_failure: str | None = None

    def record(self, ok: bool, what) -> None:
        """Count one verdict; what() describes it and is called only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what()

    def raised(self, exc: BaseException, what) -> None:
        first = self.first_failure is None
        self.record(False, lambda: f"{what()} raised {type(exc).__name__}: {exc}")
        if first:
            traceback.print_exception(exc)

    def add(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.excluded += other.excluded
        if self.first_failure is None:
            self.first_failure = other.first_failure


@dataclass
class RoundResult:
    wall_s: float
    items: int
    verdicts: Verdicts
    stats: dict = field(default_factory=dict)


def _guarded(fn):
    """Run one unit of measured work, keeping an exception as its output."""
    try:
        return fn()
    except Exception as exc:  # a failed call counts against the run, not a crash
        return exc


class Workload:
    """Every round makes the same library calls on the same inputs, drawn
    from the workload seed, so the k-th call of a name is the same call in
    every round and its best time over a run is its least disturbed one."""

    name = ""

    def build(self, bj, spans: Spans):
        """Spaces and maps the workload needs; the part of set-up after import."""
        raise NotImplementedError

    def prepare(self, state, seed: int):
        raise NotImplementedError

    def measure(self, state, inputs, spans: Spans, out: Path):
        raise NotImplementedError

    def check(self, state, inputs, outputs, v: "Verdicts") -> None:
        raise NotImplementedError

    def items(self, inputs) -> int:
        raise NotImplementedError

    def latency_spans(self) -> set[str] | None:
        """Span names whose durations are the query latencies; None for all."""
        raise NotImplementedError

    def round_stats(self, outputs) -> dict:
        return {}

    def run_round(self, state, seed: int, spans: Spans, out: Path,
                  measuring=contextlib.nullcontext()) -> RoundResult:
        """Prepare, measure and check one round; measuring wraps the timed phase."""
        inputs = self.prepare(state, seed)
        with measuring:
            t0 = time.perf_counter()
            outputs = self.measure(state, inputs, spans, out)
            wall = time.perf_counter() - t0
        verdicts = Verdicts()
        self.check(state, inputs, outputs, verdicts)
        return RoundResult(wall, self.items(inputs), verdicts, self.round_stats(outputs))


def part_seed(seed: int, part: int) -> int:
    """Library seed for one part of a round: a fixed function of the workload seed."""
    return int(np.random.SeedSequence([seed, part]).generate_state(1)[0])


def _checked(v: Verdicts, res, what, judge) -> None:
    """Record judge(res), counting an exception from the call or the judge."""
    if isinstance(res, Exception):
        v.raised(res, what)
        return
    try:
        judge(res)
    except Exception as exc:  # a malformed result must fail the check, not the run
        v.raised(exc, what)


# ---------------------------------------------------------------------------
# Sweeps
#
# On a shared host, other tenants can slow every call by half or more for
# most of a run, leaving only short windows at full speed.  A call's best
# time over a run finds such a window only if the call is short, so the
# sweeps split their work into calls of about ten milliseconds at most, each
# with its own seed.


class PreserverSweep(Workload):
    """verify_preserver on the plane map and its max-sum lifts."""

    name = "preserver-sweep"
    chunks = 10
    samples = 10  # per call; chunks * samples per map and round
    grid = 1024

    def build(self, bj, spans):
        dj = bj.parse_space("dayjames:3:1.5")
        pmap = spans.call("build_preserver", bj.build_preserver, dj, self.grid)
        return {"bj": bj, "maps": self.maps(bj, pmap)}

    @staticmethod
    def maps(bj, pmap):
        return [
            ("plane", pmap),
            ("sum_linf1", bj.compose_inf_sum([pmap, bj.IdentityMap(bj.LInf(1))])),
            ("sum_linf8", bj.compose_inf_sum([pmap, bj.IdentityMap(bj.LInf(8))])),
        ]

    def prepare(self, state, seed):
        return {"seeds": [part_seed(seed, c) for c in range(self.chunks)]}

    def measure(self, state, inputs, spans, out):
        bj = state["bj"]
        reports = {}
        for label, pmap in state["maps"]:
            for c, s in enumerate(inputs["seeds"]):
                def unit():
                    rep = spans.call("verify_preserver", bj.verify_preserver, pmap,
                                     self.samples, seed=s)
                    spans.call("write", bj.serialize.write_json,
                               out / f"preserver_{label}_{c}.json", rep.to_dict())
                    return rep
                reports[label, c] = _guarded(unit)
        return reports

    def check(self, state, inputs, outputs, v):
        for (label, c), rep in outputs.items():
            def what(label=label, c=c, rep=rep):
                return f"verify_preserver {label} seed={inputs['seeds'][c]}: {rep}"
            _checked(v, rep, what, lambda rep, what=what: v.record(
                rep.passed and rep.samples == self.samples, what))

    def items(self, inputs):
        return 3 * self.chunks * self.samples

    def latency_spans(self):
        return {"verify_preserver"}

    def round_stats(self, outputs):
        reps = [r for r in outputs.values() if not isinstance(r, Exception)]
        # Each sample makes two pair comparisons, each judged on
        # orthogonality and on acuteness.
        return {
            "verify_excluded": sum(r.boundary_excluded for r in reps),
            "verify_comparisons": sum(4 * r.samples for r in reps),
        }


class GeometrySweep(Workload):
    """Radon scans, orthographs, max-sum acute checks and section search."""

    name = "geometry-sweep"
    radon_grid = 32
    graphs = 4
    directions = 30  # per orthograph
    chunks = 3       # calls per round of each sum-acute check and section search
    sum_samples = 20
    candidates = 8
    pair_samples = 64
    # The Day-James conjugate planes are Radon planes, so their scans must
    # find no witness; the p-norm planes are not, so theirs must find one.
    planes = [
        ("dayjames_1.5", "dayjames:1.5:3", True),
        ("dayjames_2", "dayjames:2:2", True),
        ("dayjames_3", "dayjames:3:1.5", True),
        ("dayjames_4", "dayjames:4:1.3333333333333333", True),
        ("lp_1.5", "lp:2:1.5", False),
        ("lp_3", "lp:2:3", False),
        ("lp_4", "lp:2:4", False),
    ]

    def build(self, bj, spans):
        p = bj.parse_space
        return {
            "bj": bj,
            "planes": [(label, p(text), radon) for label, text, radon in self.planes],
            "dj": p("dayjames:3:1.5"),
            "acute": [("l2_linf1", p("lp:2:2"), p("linf:1")),
                      ("dj3_linf2", p("dayjames:3:1.5"), p("linf:2"))],
            # The first candidate of the l2 sum, the coordinate section of
            # its l2 part, is Euclidean and must be flagged.  The Day-James
            # sum has no Euclidean section, so nothing should be flagged,
            # but the search flags near-degenerate candidates on some seeds
            # (see test_bench.py); its flagged count is reported, not judged.
            "sections": [("l2_linf1", p("sum(lp:2:2,linf:1)")),
                         ("dj3_linf1", p("sum(dayjames:3:1.5,linf:1)"))],
        }

    def prepare(self, state, seed):
        bj = state["bj"]
        seeds = [part_seed(seed, c) for c in range(self.chunks)]
        rng = np.random.default_rng([seed])
        step = math.pi / self.directions
        angles = [[offset + k * step for k in range(self.directions)]
                  for offset in rng.uniform(0.0, step, size=self.graphs)]
        cands = {(label, c): bj.section_candidates(space, self.candidates, seed=s)
                 for label, space in state["sections"] for c, s in enumerate(seeds)}
        return {"seeds": seeds, "angles": angles, "candidates": cands}

    def measure(self, state, inputs, spans, out):
        bj = state["bj"]
        write_csv, write_json = bj.serialize.write_csv, bj.serialize.write_json
        outputs = {}
        for label, plane, _ in state["planes"]:
            def radon():
                scan = spans.call("radon_defect", bj.radon_defect, plane, grid=self.radon_grid)
                spans.call("write", write_csv, out / f"radon_{label}.csv",
                           ["theta", "theta_star", "forward_residual", "reverse_deficit"],
                           scan.rows)
                return scan
            outputs["radon", label, 0] = _guarded(radon)

        for g, angles in enumerate(inputs["angles"]):
            def orthograph():
                graph = spans.call("sample_orthograph", bj.sample_orthograph, state["dj"],
                                   angles, margin=1e-7)
                # write_edges builds the edge list itself, so it has a span
                # of its own and is not counted as serialize time.
                spans.call("write_edges", graph.write_edges,
                           out / f"orthograph_dayjames_3_{g}.txt")
                return graph
            outputs["orthograph", "dayjames_3", g] = _guarded(orthograph)

        for label, sx, sy in state["acute"]:
            for c, s in enumerate(inputs["seeds"]):
                def acute():
                    rep = spans.call("sum_acute_equivalence_check",
                                     bj.sum_acute_equivalence_check, sx, sy,
                                     n_samples=self.sum_samples, seed=s)
                    spans.call("write", write_json, out / f"sum_acute_{label}_{c}.json",
                               rep.to_dict())
                    return rep
                outputs["acute", label, c] = _guarded(acute)

        for label, space in state["sections"]:
            for c, s in enumerate(inputs["seeds"]):
                cands = inputs["candidates"][label, c]

                def sections():
                    flagged = spans.call("euclidean_section_search",
                                         bj.euclidean_section_search, space, cands,
                                         pair_samples=self.pair_samples, seed=s)
                    ids = [i for i, cand in enumerate(cands) if any(cand is f for f in flagged)]
                    spans.call("write", write_json, out / f"sections_{label}_{c}.json", {
                        "space": bj.format_space(space), "candidates": len(cands),
                        "flagged": ids, "seed": s, "tool_version": bj.__version__})
                    return ids
                outputs["sections", label, c] = _guarded(sections)
        return outputs

    def check(self, state, inputs, outputs, v):
        radon = {label: is_radon for label, _, is_radon in state["planes"]}

        def judge(key, res):
            kind, label, _ = key
            if kind == "radon":
                return (res.witness is None) == radon[label]
            if kind == "orthograph":
                # The edge count is reported, not judged: the sampled
                # orthograph is expected to change by design.
                return len(res.vectors) == self.directions
            if kind == "acute":
                return res.passed
            if label == "dj3_linf1":
                # Reported as analysis.sections.dayjames_flagged, not judged.
                return True
            return 0 in res

        for key, res in outputs.items():
            def what(key=key, res=res):
                return f"{' '.join(map(str, key))} round seeds={inputs['seeds']}: {res}"
            _checked(v, res, what, lambda res, key=key, what=what: v.record(judge(key, res), what))

    def items(self, inputs):
        return (len(self.planes) * self.radon_grid + self.graphs * self.directions
                + 2 * self.chunks * (self.sum_samples + self.candidates))

    def latency_spans(self):
        # One scan answers one question, whether a plane is a Radon plane.
        # The other calls differ in size, so a median over all of them
        # would fall between their sizes.
        return {"radon_defect"}

    def round_stats(self, outputs):
        def done(kind, label=None):
            return [r for k, r in outputs.items() if k[0] == kind
                    and label in (None, k[1]) and not isinstance(r, Exception)]
        acute = done("acute")
        return {
            "orthograph_edges": sum(len(g.edge_list()) for g in done("orthograph")),
            "sections_dayjames_flagged": sum(len(ids) for ids in done("sections", "dj3_linf1")),
            "sum_acute_evaluated": sum(r.evaluated for r in acute),
            "sum_acute_samples": sum(r.samples for r in acute),
        }


# ---------------------------------------------------------------------------
# point-queries


class PointQueries(Workload):
    """Single scalar calls over a seeded mix of spaces, each timed on its own."""

    name = "point-queries"
    grid = 1024
    spaces = ["lp:2:3", "lp:5:1.5", "linf:4", "dayjames:3:1.5", "sum(dayjames:3:1.5,linf:2)"]
    # 1200 calls a round, so the round's 99th percentile has 12 beyond it.
    per_space = 40   # of each of: constructed pair, random classify, mutual test
    per_map = 200    # of each of: apply, apply_inverse
    radon_plane = "dayjames:3:1.5"

    def build(self, bj, spans):
        spaces = {text: bj.parse_space(text) for text in self.spaces}
        pmap = spans.call("build_preserver", bj.build_preserver,
                          spaces[self.radon_plane], self.grid)
        return {"bj": bj, "spaces": spaces, "pmap": pmap}

    def prepare(self, state, seed):
        bj = state["bj"]
        rng = np.random.default_rng([seed])
        units = []
        for text, space in state["spaces"].items():
            for _ in range(self.per_space):
                units.append(("orth", text, _random_vector(rng, space.dim), None))
                units.append(("classify", text, _random_vector(rng, space.dim),
                              _random_vector(rng, space.dim)))
                x = _random_vector(rng, space.dim)
                # In the Radon plane orthogonality is symmetric, so a
                # constructed pair is mutually orthogonal; elsewhere the
                # mutual test runs on random pairs.
                y = (bj.orthogonal_direction(space, x, rng) if text == self.radon_plane
                     else _random_vector(rng, space.dim))
                units.append(("mutual", text, x, y))
        for _ in range(self.per_map):
            units.append(("apply", None, _off_axis_vector(rng), None))
            units.append(("apply_inverse", None, _off_axis_vector(rng), None))
        order = rng.permutation(len(units))
        # orthogonal_direction draws from this generator inside the timed
        # calls, always in the same order.
        return {"units": [units[i] for i in order], "rng": np.random.default_rng([seed, 1])}

    def measure(self, state, inputs, spans, out):
        bj, spaces, pmap = state["bj"], state["spaces"], state["pmap"]
        rng = inputs["rng"]
        call = spans.call
        outputs = []
        for kind, text, x, y in inputs["units"]:
            space = spaces.get(text)
            if kind == "orth":
                def unit():
                    yp = call("orthogonal_direction", bj.orthogonal_direction, space, x, rng)
                    return yp, call("classify_angle", bj.classify_angle, space, x, yp)
            elif kind == "classify":
                def unit():
                    return call("classify_angle", bj.classify_angle, space, x, y)
            elif kind == "mutual":
                def unit():
                    return call("is_mutually_orthogonal", bj.is_mutually_orthogonal,
                                space, x, y)
            elif kind == "apply":
                def unit():
                    return call("apply", pmap.apply, x)
            else:
                def unit():
                    return call("apply_inverse", pmap.apply_inverse, x)
            outputs.append(_guarded(unit))
        return outputs

    def check(self, state, inputs, outputs, v):
        bj, spaces, pmap = state["bj"], state["spaces"], state["pmap"]
        orth = bj.AngleTag.ORTHOGONAL
        plane = pmap.target

        def judge(kind, text, x, y, res, what):
            space = spaces.get(text)
            if kind == "orth":
                yp, rel = res
                left, right = _secants(space, x, yp)
                # The secants bracket the one-sided derivatives, so a true
                # orthogonal pair has left <= 0 <= right up to the band.
                v.record(left <= SECANT_BAND and right >= -SECANT_BAND, what)
                v.record(rel.tag is orth, what)
            elif kind == "classify":
                expected = _secant_tag(bj, space, x, y)
                v.excluded += expected is None
                v.record(expected is None or res.tag is expected, what)
            elif kind == "mutual" and text == self.radon_plane:
                v.record(res is True, what)
            elif kind == "mutual":
                decided = (_secant_tag(bj, space, x, y) is not None
                           or _secant_tag(bj, space, y, x) is not None)
                v.excluded += not decided
                v.record(not decided or res is False, what)
            elif kind == "apply":
                nv = math.hypot(x[0], x[1])
                back = pmap.apply_inverse(res)
                v.record(abs(plane.norm(res) - nv) <= ROUND_TRIP_TOL * nv
                         and math.hypot(*(back - x)) <= ROUND_TRIP_TOL * nv, what)
            else:
                nw = plane.norm(x)
                back = pmap.apply(res)
                v.record(abs(math.hypot(res[0], res[1]) - nw) <= ROUND_TRIP_TOL * nw
                         and plane.norm(back - x) <= ROUND_TRIP_TOL * nw, what)

        for (kind, text, x, y), res in zip(inputs["units"], outputs):
            def what(kind=kind, text=text, x=x, y=y, res=res):
                return f"{kind} {text} x={x!r} y={y!r}: {res!r}"
            _checked(v, res, what, lambda res, k=kind, t=text, x=x, y=y, what=what:
                     judge(k, t, x, y, res, what))

    def items(self, inputs):
        return sum(2 if kind == "orth" else 1 for kind, *_ in inputs["units"])

    def latency_spans(self):
        return None


def _random_vector(rng, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        if np.max(np.abs(v)) >= 1e-3:
            return v


def _off_axis_vector(rng) -> np.ndarray:
    while True:
        v = _random_vector(rng, 2)
        if abs(math.remainder(math.atan2(v[1], v[0]), math.pi / 2)) >= AXIS_GAP:
            return v


def _secants(space, x, y) -> tuple[float, float]:
    """Left and right secant slopes of t -> ||x + t y|| at t = 0, over ||y||.

    The map is convex, so left <= D- <= D+ <= right, where D-, D+ are the
    one-sided derivatives that classify_angle reports as its witness bounds.
    Only the norm is used, not the support functionals.
    """
    nx, ny = space.norm(x), space.norm(y)
    h = SECANT_STEP * nx / ny
    right = (space.norm(x + h * y) - nx) / h
    left = (nx - space.norm(x - h * y)) / h
    return left / ny, right / ny


def _secant_tag(bj, space, x, y):
    """The strict angle tag the secants prove, or None when they prove none."""
    left, right = _secants(space, x, y)
    if left > SECANT_BAND:
        return bj.AngleTag.STRICTLY_ACUTE
    if right < -SECANT_BAND:
        return bj.AngleTag.STRICTLY_OBTUSE
    return None


WORKLOADS = {w.name: w for w in (PreserverSweep(), GeometrySweep(), PointQueries())}
