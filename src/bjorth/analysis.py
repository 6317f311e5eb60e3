"""Geometric certification: Radon symmetry, smoothness, section search,
max-sum acute-angle structure, and orthogonality graphs.

Everything here is sampling-based evidence against independent oracles: the
Radon defect reverses solved orthogonal pairs through direct line
minimization, the smoothness probe compares one-sided difference quotients,
the Euclidean-section search falsifies the parallelogram identity on random
coefficient draws, and the max-sum acute check plays the part-norm
trichotomy against a half-line minimization oracle on the sum.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .errors import DegenerateSection, InvalidCount, NotAPlane, NotSmooth, check_count
from .orthogonality import (
    MARGIN,
    acute_distance,
    angle_masks,
    check_margin,
    golden_section_min,
    one_sided_acute_many,
    oracle_exclusion_band,
    witness_rows,
)
from .sampling import as_uniform, draw_rows, nonzero_rows
from .spaces import (Frozen, FrozenValue, InfSum, NormedSpace, Report, partner2, space_label,
                     unit_vector_at_angle)

# Rows judged per block of array passes: orthograph pairs (all of them up to
# 362 directions), sum-acute and smoothness samples, and section-search
# coefficient draws (whole candidates: PAIR_BLOCK // pair_samples of them, at
# least one).  Bounds the memory of a block for any count: about 12 MB for
# orthograph pairs, 20 MB for section draws and 55 MB for sum-acute samples.
PAIR_BLOCK = 1 << 16

# sum_acute_equivalence_check's exact-tie cadence and near-tie band.
TIE_EVERY = 8
TIE_BAND = 1e-4


class RadonScan(Frozen):
    """Result of a symmetry scan: rows are (theta, theta_star,
    forward_residual, reverse_deficit)."""

    _fields = ("defect", "witness", "rows")


def radon_defect(plane: NormedSpace, grid: int = 720,
                 margin: float = 1e-8) -> RadonScan:
    """Measure how far Birkhoff-James orthogonality is from symmetric.

    Each grid direction theta's row is its pairing row spaces.partner2 (the
    partner theta_star over (theta, theta + pi), the forward residual; in
    the first quadrant, pairing_table's rows) and the reverse deficit: how far
    the line oracle's min_t ||y(theta_star) + t y(theta)|| falls below
    ||y(theta_star)||.  The defect is the maximal reverse deficit; a witness
    pair (first maximal in grid order) is reported when it exceeds the
    margin.  A plane that is not a smooth plane (_smooth_plane) raises
    NotSmooth.

    The deficit is oracle_min_over_line's arithmetic on partner2's floats,
    bit for bit: y, y* are unit to within rounding, so L = 2||y*||/||y|| ~ 2
    is in [_MIN_BRACKET, inf), ||y*|| in [_MIN_NORM, _MAX_NORM], and the
    oracle's power-of-two rescalings cannot fire.
    """
    if plane.dim != 2:
        raise NotAPlane(f"expected a plane, got dimension {plane.dim}")
    grid = check_count(grid, "grid", 16)
    check_margin(margin)
    if not plane._smooth_plane:
        raise NotSmooth(f"the scan needs a smooth plane, got {space_label(plane)}")
    rows = []
    for theta in np.linspace(0.0, math.pi, grid, endpoint=False).tolist():
        y, theta_star, y_star, forward = partner2(plane, theta)
        nx = plane._norm2(*y_star)
        lam = 2.0 * nx / plane._norm2(*y)
        _, val = golden_section_min(plane._line(y_star, y), -lam, lam)
        rows.append((theta, theta_star, forward, max(0.0, nx - val)))
    theta, theta_star, _, defect = max(rows, key=itemgetter(3))  # the first maximal
    witness = (theta, theta_star) if defect > margin else None
    return RadonScan(defect=defect, witness=witness, rows=rows)


class SmoothnessProbe(FrozenValue):
    _fields = ("smooth", "worst_gap")


def smoothness_probe(space: NormedSpace, samples: int = 200, seed: int = 0) -> SmoothnessProbe:
    """Empirical smoothness check.

    Compares left and right difference quotients of the norm at step 1e-6
    along random directions at random unit vectors and at a deterministic
    tie probe (a gap above 1e-4 is a kink), and requires a singleton
    support set at every probe including the axes.  Axis neighborhoods
    enter only through the singleton test: one-sided quotients converge
    like step^(min(p,q)-1) there, too slowly to compare against the gap
    bound, so every coordinate of a random probe below 1e-2 of its largest
    is raised to that floor, keeping its sign.

    Sample i reads row i of the seeded draw table (sampling.draw_rows),
    4 * dim columns: x, a reserve for x (sampling.nonzero_rows), and two
    directions of Euclidean length one.  The tie probe is probed along its
    own kink directions and along row 0's two directions.  The samples are
    judged in blocks of PAIR_BLOCK, with three space._norms passes each.
    """
    samples, seed = check_count(samples, "samples"), check_count(seed, "seed", 0)
    dim, step = space.dim, 1e-6
    tie, kinks = space._tie_probe()
    worst_gap = 0.0
    singletons = all(len(space._support(x)) == 1 for x in [*np.eye(dim), *-np.eye(dim), tie])
    for start in range(0, samples, PAIR_BLOCK):
        W = draw_rows(seed, start, min(start + PAIR_BLOCK, samples), 4 * dim)
        X = nonzero_rows(space, W[:, :dim], W[:, dim : 2 * dim])
        A = np.abs(X)
        floor = 1e-2 * A.max(axis=1, keepdims=True)
        X = np.where(A < floor, np.copysign(floor, X), X)
        X /= space._norms(X)[:, None]
        P, Q = np.repeat(X, 2, axis=0), W[:, 2 * dim :].reshape(-1, dim)
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        if not start:
            P = np.concatenate([np.tile(tie, (len(kinks) + 2, 1)), P])
            Q = np.concatenate([np.reshape(kinks, (-1, dim)), Q[:2], Q])
        n0 = space._norms(P)
        gaps = (space._norms(P + step * Q) - n0) / step - (n0 - space._norms(P - step * Q)) / step
        worst_gap = max(worst_gap, float(gaps.max()))
        singletons = singletons and all(len(space._support(x)) == 1 for x in X)
    return SmoothnessProbe(smooth=worst_gap <= 1e-4 and singletons, worst_gap=worst_gap)


def parallelogram_defect(space: NormedSpace, u, v) -> float:
    """||u+v||^2 + ||u-v||^2 - 2||u||^2 - 2||v||^2; zero in inner-product
    spaces and on their isometric sections."""
    ua, va = space.check_vector(u), space.check_vector(v)
    s, d, a, b = (space._norm(w) ** 2 for w in (ua + va, ua - va, ua, va))
    return s + d - 2.0 * a - 2.0 * b


class SectionCandidate(Frozen):
    """A 2-D subspace given by two numerically independent basis vectors."""

    _fields = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
        if uu == 0.0 or vv == 0.0:
            raise DegenerateSection("zero basis vector")
        # Gram determinant of the Euclidean-normalized basis = sin^2(angle).
        if 1.0 - uv * uv / (uu * vv) <= 1e-6:
            raise DegenerateSection("basis vectors are numerically dependent")


def section_candidates(space: NormedSpace, count: int, seed: int = 0) -> list[SectionCandidate]:
    """The first count of: all coordinate-aligned 2-D sections, then seeded
    random ones."""
    count, seed = check_count(count, "count"), check_count(seed, "seed", 0)
    dim = space.dim
    if dim < 2:
        raise DegenerateSection(f"a space of dimension {dim} has no 2-D sections")
    out = [SectionCandidate(np.eye(dim)[i], np.eye(dim)[j])
           for i in range(dim) for j in range(i + 1, dim)]
    rng = np.random.default_rng(seed)
    while len(out) < count:
        try:
            out.append(SectionCandidate(rng.standard_normal(dim), rng.standard_normal(dim)))
        except DegenerateSection:
            continue
    return out[:count]


def euclidean_section_search(space: NormedSpace, candidates, pair_samples: int = 64,
                             tol: float = 1e-6, seed: int = 0) -> list[SectionCandidate]:
    """Flag candidate sections on which the parallelogram identity survives
    every sampled coefficient quadruple.

    Candidate idx draws its pair_samples coefficient quadruples (a, b, c, d)
    from a child generator keyed by (seed, idx) and is flagged when
    |defect(a u + b v, c u + d v)| <= tol * scale^2 for every draw whose
    scale^2 = ||a u + b v||^2 + ||c u + d v||^2 is nonzero.  Draws are
    prefix-stable per candidate, so flags can only shrink as pair_samples
    grows.  Flagged sections are Euclidean up to the sampling evidence; this
    falsification search is not a proof.  All draws of a block of
    candidates are judged together, with four space._norms passes.
    """
    if not candidates:
        raise InvalidCount("candidate list must be nonempty")
    pair_samples, seed = check_count(pair_samples, "pair_samples"), check_count(seed, "seed", 0)
    check_margin(tol, "tol")
    bases = [(space.check_vector(cand.u), space.check_vector(cand.v)) for cand in candidates]
    per_block = max(1, PAIR_BLOCK // pair_samples)
    flagged = []
    for start in range(0, len(bases), per_block):
        block = range(start, min(start + per_block, len(bases)))
        coeffs = np.concatenate([np.random.default_rng([seed, idx]).standard_normal(
            (pair_samples, 4)) for idx in block])
        u = np.repeat([bases[idx][0] for idx in block], pair_samples, axis=0)
        v = np.repeat([bases[idx][1] for idx in block], pair_samples, axis=0)
        w1 = coeffs[:, 0:1] * u + coeffs[:, 1:2] * v
        w2 = coeffs[:, 2:3] * u + coeffs[:, 3:4] * v
        n1, n2 = space._norms(w1), space._norms(w2)
        scale2 = n1**2 + n2**2
        defect = (space._norms(w1 + w2) ** 2 + space._norms(w1 - w2) ** 2
                  - 2.0 * n1**2 - 2.0 * n2**2)
        violated = (scale2 != 0.0) & (np.abs(defect) > tol * scale2)
        survived = ~violated.reshape(len(block), pair_samples).any(axis=1)
        flagged += [candidates[idx] for idx, ok in zip(block, survived) if ok]
    return flagged


def _judge_rows(space: NormedSpace, X, Y, margin: float) -> tuple:
    """classify_many's is_acute, is_bj_orthogonal and acute_distance of each
    row pair, from witness_rows and angle_masks with no tag built."""
    mn, mx, scale, live, _ = witness_rows(space, X, Y)
    acute, orthogonal, _ = angle_masks(mn, mx, scale, live, margin)
    return acute | orthogonal, orthogonal | ~live, acute_distance(mx, scale)


class SumAcuteReport(Report):
    """Outcome of the max-sum acute-angle equivalence sweep on the space
    named by space_label; first_disagreement, the first that disagrees."""

    _fields = ("space", "samples", "evaluated", "disagreements", "boundary_excluded",
               "tie_excluded", "tie_samples", "seed", "first_disagreement")
    _defaults = {"first_disagreement": None}
    _json = ("space", "samples", "evaluated", "disagreements", "first_disagreement",
             "boundary_excluded", "tie_excluded", "tie_samples", "excluded_fraction", "seed",
             ("pass", "passed"))

    @property
    def excluded_fraction(self) -> float:
        return (self.boundary_excluded + self.tie_excluded) / self.samples

    @property
    def passed(self) -> bool:  # a sweep that judged no sample shows nothing
        return self.disagreements == 0 and self.evaluated > 0


def _exact_tie(sum_space: InfSum, k: int, z1: np.ndarray, draws: np.ndarray) -> np.ndarray | None:
    """z1 with its max-norm part k redrawn at the other part's norm, so both
    part norms are float-equal.

    Scaling a vector whose largest coordinate is exactly +-1 multiplies the
    norm exactly.  draws are the sample's tie columns: one per coordinate of
    part k, read as a uniform draw in [-1, 1], then the coordinate set to
    +-1 and its sign.  Returns None when the other part is zero or the
    product misses the tie.
    """
    part, other = sum_space.parts[k], sum_space.parts[1 - k]
    target = other._norm(sum_space.split(z1)[1 - k])
    if target == 0.0:
        return None
    u = [2.0 * as_uniform(z) - 1.0 for z in draws[: part.dim].tolist()]
    u[min(int(as_uniform(draws[part.dim]) * part.dim), part.dim - 1)] = math.copysign(
        1.0, draws[part.dim + 1])
    rebuilt = target * np.array(u)
    if part._norm(rebuilt) != target:
        return None
    tied = z1.copy()
    sum_space.split(tied)[k][:] = rebuilt
    return tied


def sum_acute_equivalence_check(space_x: NormedSpace, space_y: NormedSpace,
                                n_samples: int = 10000, margin: float = MARGIN,
                                seed: int = 0) -> SumAcuteReport:
    """Play the part-norm trichotomy against the half-line oracle on the sum.

    On X (+) Y with the max norm, (x1, y1) is at an acute angle to
    (x2, y2) exactly when the dominant part is (with both sub-conditions
    OR-ed at a tie).  Every TIE_EVERY-th sample is rebuilt as an exact tie
    when a max-norm part allows it (Y's if it is one, else X's), since
    random draws never tie.  Pairs whose deciding part relation sits within
    the oracle exclusion band, or whose part norms differ by a relative
    TIE_BAND or less without being equal, are excluded rather than
    adjudicated.

    The check runs in two phases per block of PAIR_BLOCK samples.  The draw
    phase reads the samples' rows of the seeded draw table
    (sampling.draw_rows): z1, a reserve for z1 and z2, each dim wide, then
    the tie columns, the max-norm part's dim plus two (none without such a
    part).  The reserve replaces a z1 whose norm is below
    sampling.MIN_SAMPLE_NORM; ties are rebuilt from the tie columns; the
    tie rule then excludes a sample or assigns its deciding parts on the
    parts' scalar norms, so float-equal ties stay equal.  The judge phase
    judges the deciding parts with one _judge_rows call per part, excludes
    the samples near the acute boundary, and runs one_sided_acute_many on
    the rest.  A sample depends only on (seed, i), so the report does not
    depend on PAIR_BLOCK, and first_disagreement at n samples names the
    same sample at any larger n.
    """
    n_samples, seed = check_count(n_samples, "n_samples"), check_count(seed, "seed", 0)
    check_margin(margin)
    band = oracle_exclusion_band(margin)
    sum_space = InfSum((space_x, space_y))
    dim, dx = sum_space.dim, space_x.dim
    tie_part = 1 if space_y._exact_ties else 0 if space_x._exact_ties else None
    tie_columns = 0 if tie_part is None else sum_space.parts[tie_part].dim + 2

    evaluated = disagreements = boundary_excluded = tie_excluded = tie_samples = 0
    first = None
    for start in range(0, n_samples, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, n_samples)
        W = draw_rows(seed, start, stop, 3 * dim + tie_columns)
        Z1 = nonzero_rows(sum_space, W[:, :dim], W[:, dim : 2 * dim])
        kept, needs = [], []
        for r, z1 in enumerate(Z1):
            if tie_part is not None and (start + r) % TIE_EVERY == 0:
                tied = _exact_tie(sum_space, tie_part, z1, W[r, 3 * dim :])
                if tied is not None:
                    z1 = Z1[r] = tied
                    tie_samples += 1
            nx, ny = space_x._norm(z1[:dx]), space_y._norm(z1[dx:])
            if nx != ny and abs(nx - ny) <= TIE_BAND * max(nx, ny):
                tie_excluded += 1
                continue
            kept.append(r)
            needs.append((nx >= ny, ny >= nx))
        if not kept:
            continue

        Z1, Z2, need = Z1[kept], W[kept, 2 * dim : 3 * dim], np.array(needs)
        near, predicted = np.zeros((2, len(Z1)), dtype=bool)
        for k, (part, P1, P2) in enumerate(zip(sum_space.parts, sum_space.split(Z1),
                                               sum_space.split(Z2))):
            rows = need[:, k]
            acute, _, distance = _judge_rows(part, P1[rows], P2[rows], margin)
            near[rows] |= distance <= band
            predicted[rows] |= acute
        judged = ~near
        actual = one_sided_acute_many(sum_space, Z1[judged], Z2[judged], margin)
        wrong = np.flatnonzero(judged)[predicted[judged] != actual]
        if first is None and len(wrong):
            first = start + kept[wrong[0]]
        boundary_excluded += int(near.sum())
        evaluated += int(judged.sum())
        disagreements += len(wrong)

    return SumAcuteReport(space=space_label(sum_space), samples=n_samples, evaluated=evaluated,
                          disagreements=disagreements, boundary_excluded=boundary_excluded,
                          tie_excluded=tie_excluded, tie_samples=tie_samples, seed=seed,
                          first_disagreement=first)


class Orthograph(Frozen):
    """Sampled orthogonality graph: directions modulo sign, edges at mutual
    Birkhoff-James orthogonality."""

    _fields = ("vectors", "adjacency")

    def edge_list(self) -> list[tuple[int, int]]:
        return [tuple(e) for e in np.argwhere(np.triu(self.adjacency, 1)).tolist()]

    def write_edges(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, j in self.edge_list():
                fh.write(f"{i} {j}\n")


def sample_orthograph(space: NormedSpace, directions, margin: float = MARGIN) -> Orthograph:
    """Adjacency of mutual orthogonality over sampled directions.

    directions may be an integer (uniform angles over [0, pi) of a plane),
    a sequence of angles (plane only), or a sequence of vectors (any
    space).  The matrix is symmetric by construction of mutuality; each
    block of pairs is judged both ways by _judge_rows.
    """
    check_margin(margin)
    if isinstance(directions, (int, np.integer)):
        directions = np.linspace(0.0, math.pi, check_count(directions, "directions"), endpoint=False)
    items = list(directions)
    if items and np.isscalar(items[0]):
        if space.dim != 2:
            raise NotAPlane("angle sampling needs a two-dimensional space")
        vectors = [unit_vector_at_angle(space, float(t)) for t in items]
    else:
        vectors = [space.check_vector(v) for v in items]
    n = len(vectors)
    V = np.reshape(vectors, (n, space.dim))
    i, j = np.triu_indices(n, 1)
    mutual = np.empty(len(i), dtype=bool)
    for s in range(0, len(i), PAIR_BLOCK):
        a, b = V[i[s : s + PAIR_BLOCK]], V[j[s : s + PAIR_BLOCK]]
        mutual[s : s + PAIR_BLOCK] = (_judge_rows(space, a, b, margin)[1]
                                      & _judge_rows(space, b, a, margin)[1])
    adj = np.zeros((n, n), dtype=bool)
    adj[i[mutual], j[mutual]] = True
    return Orthograph(vectors=vectors, adjacency=adj | adj.T)
