"""The one pair scan: bit-identical to the four loops it replaced, run once.

The oracle below is the four row-by-row loops as they stood before the
scan and its first-maximum reduction were shared (tight constant,
verification, relaxed check, duplicate search), copied verbatim. Every
certified constant, verdict, witness and collision pair must match it
bit for bit, including on sets built to produce tied ratios, colliding
observations, near-duplicate signals, identical observations and points
on the faces of block boxes, for every tile budget, leaf block size and
k-d tree depth up to 6, on the tiled scan, on the block-pruned scan and
under the rule that picks one. The fused verification pass, which also
reports the first collision, must match all three oracles from its one
pass, and asked for duplicates too it must raise the oracle's first
duplicate pair or else see exactly what it saw without the question.

The tiles sum squared differences coordinate by coordinate in the order
numpy's add.reduce uses, so a guard test compares them with
np.linalg.norm row by row: should numpy change that order, this fails
instead of an omega moving in its last bit.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liprec import (
    TOL_DUP,
    LabeledSet,
    LabelingError,
    MwetHypothesis,
    NotInjectiveError,
    check_relaxed_lipschitz,
    cli,
    core,
    lipschitz,
    tight_omega,
    verify_lipschitz,
)
from liprec.lipschitz import injectivity_tolerance

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


# --------------------------------------------------------------------------
# Oracle: the original loops.


def _row_pairs(x, y):
    for i in range(x.shape[0] - 1):
        dx = np.linalg.norm(x[i + 1:] - x[i], axis=1)
        dy = np.linalg.norm(y[i + 1:] - y[i], axis=1)
        yield i, dx, dy


def _oracle_tight(x, y):
    tol_inj = injectivity_tolerance(y)
    best = -np.inf
    witness = (0, 1)
    for i, dx, dy in _row_pairs(x, y):
        collisions = np.flatnonzero(dy <= tol_inj)
        if collisions.size:
            j = i + 1 + int(collisions[0])
            raise NotInjectiveError(
                f"signals {i} and {j} share an observation "
                f"(distance {dy[collisions[0]]:.3e} <= {tol_inj:.3e})", pair=(i, j))
        ratios = dx / dy
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best = float(ratios[k])
            witness = (i, i + 1 + k)
    return best, witness


def _oracle_verify(x, y, omega, tol_cert):
    best = -np.inf
    witness = (0, 1)
    violated = False
    for i, dx, dy in _row_pairs(x, y):
        violated = violated or bool(np.any(dx > omega * dy + tol_cert))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(dy > 0.0, dx / dy, np.where(dx > 0.0, np.inf, 0.0))
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best = float(ratios[k])
            witness = (i, i + 1 + k)
    return ("violated" if violated else "certified"), witness, best


def _oracle_relaxed(x, y, omega, epsilon, tol_cert):
    worst = np.inf
    worst_pair = (0, 1)
    for i, dx, dy in _row_pairs(x, y):
        slack = 2.0 * epsilon + omega * dy - dx
        k = int(np.argmin(slack))
        if slack[k] < worst:
            worst = float(slack[k])
            worst_pair = (i, i + 1 + k)
    return bool(worst >= -tol_cert), worst, worst_pair


def _oracle_duplicate(x, tol_dup):
    for i in range(x.shape[0] - 1):
        d = np.linalg.norm(x[i + 1:] - x[i], axis=1)
        hits = np.flatnonzero(d < tol_dup)
        if hits.size:
            return i, i + 1 + int(hits[0])
    return None


# --------------------------------------------------------------------------
# Inputs: small-integer grids (ties and collisions), free floats, and
# free floats with planted near-duplicates.


def _bits(value):
    return np.float64(value).tobytes()


@st.composite
def labeled_arrays(draw, sizes=st.sampled_from((2, 3, 9, 50, 200, 300))):
    # Dimensions from 8 up take add.reduce's eight-accumulator path; with
    # the default budget, n = 200 spans two tiles. "faces" puts free
    # signals over a few shared observation levels, so many points lie on
    # the faces of their block's box and observations repeat exactly.
    n = draw(sizes)
    sig_dim = draw(st.integers(1, 12))
    obs_dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["grid", "float", "near_duplicate", "faces"]))
    free = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    levels = st.integers(-2, 2).map(float)
    elements = levels if kind == "grid" else free
    x = draw(arrays(np.float64, (n, sig_dim), elements=elements))
    y = draw(arrays(np.float64, (n, obs_dim), elements=levels if kind == "faces" else elements))
    if kind == "near_duplicate":
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        x[j] = x[i] + draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-9]))
        if draw(st.booleans()):
            y[j] = y[i] + draw(st.sampled_from([0.0, 1e-13, 1e-6]))
    return x, y


MAX_DEPTH = 6


def _tree_depth(n, leaf_rows):
    """Levels of splits in the k-d tree over n rows: ceil(log2(leaves))."""
    return (-(-n // leaf_rows) - 1).bit_length()


def _rows_at_depth(leaf_rows):
    """Row counts that give the k-d tree over leaf_rows-row leaves a drawn
    depth, from 0 (one leaf) to MAX_DEPTH (33 to 64 leaves)."""
    def rows(depth):
        # Depth d > 0 takes 2^(d - 1) + 1 to 2^d leaves.
        low = 2 if depth == 0 else (1 << depth - 1) * leaf_rows + 1
        return st.integers(low, (1 << depth) * leaf_rows)
    return st.integers(0 if leaf_rows > 1 else 1, MAX_DEPTH).flatmap(rows)


@st.composite
def scan_cases(draw):
    """A labeled set with a tile budget and a leaf block size; its row count
    is one of the fixed sizes or gives the k-d tree a drawn depth."""
    budget = draw(st.sampled_from([1, 7, core._PAIR_TILE_ELEMENTS]))
    leaf_rows = draw(st.sampled_from([1, 2, 7, core._LEAF_ROWS]))
    # One block pair per tile over hundreds of one- or two-row blocks makes
    # tens of thousands of tiles: those runs keep to the smaller fixed sets.
    # The deepest trees of one- or two-row leaves have at most 64 leaves.
    many_tiles = budget < core._PAIR_TILE_ELEMENTS and leaf_rows <= 2
    sizes = (2, 3, 9, 50) if many_tiles else (2, 3, 9, 50, 200, 300)
    rows = st.one_of(st.sampled_from(sizes), _rows_at_depth(leaf_rows))
    return draw(labeled_arrays(rows)), budget, leaf_rows


def _prune_always(n, obs_dim, kept):
    return False


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=scan_cases(),
       omega=st.floats(1e-3, 1e3),
       epsilon=st.sampled_from([0.0, 1e-3, 0.5]),
       tol=st.sampled_from([TOL_DUP, 1e-9, 0.5, 1.0, 1.5]),
       path=st.sampled_from(["rule", "pruned"]))
def test_scan_matches_original_loops(case, omega, epsilon, tol, path):
    data, budget, leaf_rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_PAIR_TILE_ELEMENTS", budget)
        patch.setattr(core, "_LEAF_ROWS", leaf_rows)
        if path == "pruned":  # even where the fixed rule would scan every pair
            patch.setattr(core, "_scan_tiled", _prune_always)
            n = len(data[1])
            levels = core._kd_order(data[1], -(-n // leaf_rows))[1]
            assert len(levels) == _tree_depth(n, leaf_rows)
        # LabeledSet._find_duplicate reads the package constant; patching it
        # drives the labeling scan at the drawn radius too.
        patch.setattr(core, "TOL_DUP", tol)
        _check_against_oracles(data, omega, epsilon, tol)


def _scan_with_duplicates(labeled, omega, expected, plain, pairs):
    """The fused pass asked for duplicates too: it raises the LabelingError
    of ``expected``, the oracle's first duplicate pair, or else sees what
    ``plain``, the same pass without the question, saw."""
    if expected is not None:
        with pytest.raises(LabelingError) as exc:
            lipschitz._scan_sample(labeled, omega, collisions=True, duplicates=True)
        assert str(exc.value) == f"duplicate signals at indices {expected[0]} and {expected[1]}"
        assert exc.value.index == expected[1]
        return
    scan = lipschitz._scan_sample(labeled, omega, collisions=True, duplicates=True)
    assert scan.certificate(omega) == plain.certificate(omega)
    assert (scan.collision, _bits(scan.max_ratio)) == (plain.collision, _bits(plain.max_ratio))
    assert 0 < scan.pairs_examined <= pairs
    if core._scan_tiled(len(labeled), labeled.obs_dim, 0):
        assert scan.pairs_examined == pairs


def _check_against_oracles(data, omega, epsilon, tol):
    x, y = data
    labeled = LabeledSet(x, y)
    pairs = len(x) * (len(x) - 1) // 2

    omegas = [omega]
    collision = None
    try:
        expected = _oracle_tight(x, y)
    except NotInjectiveError as exc:
        collision = exc.pair
        with pytest.raises(NotInjectiveError) as got:
            tight_omega(labeled)
        assert got.value.pair == exc.pair
        assert str(got.value) == str(exc)
    else:
        cert = tight_omega(labeled)
        assert _bits(cert.omega) == _bits(expected[0])
        assert _bits(cert.max_ratio) == _bits(expected[0])
        assert cert.witness == expected[1]
        assert 0 < cert._pairs_examined <= pairs
        if expected[0] > 0.0:
            omegas.append(expected[0])  # the boundary case for verification

    for w in omegas:
        verdict, witness, max_ratio = _oracle_verify(x, y, w, 1e-9)
        cert = verify_lipschitz(labeled, w)
        assert (cert.verdict, cert.witness) == (verdict, witness)
        assert _bits(cert.max_ratio) == _bits(max_ratio)
        # The fused pass: verification and the first collision.
        scan = lipschitz._scan_sample(labeled, w, collisions=True)
        assert scan.certificate(w) == cert
        assert scan.collision == collision
        assert 0 < scan.pairs_examined <= pairs
        if core._scan_tiled(len(x), y.shape[1], 0):  # the rule chose the tiled scan
            assert scan.pairs_examined == pairs
        if collision is None:  # then its maximum ratio is the tight constant
            assert _bits(scan.max_ratio) == _bits(expected[0])
            assert scan.witness == expected[1]
        _scan_with_duplicates(labeled, w, _oracle_duplicate(x, tol), scan, pairs)

    passed, min_slack, worst_pair = _oracle_relaxed(x, y, omega, epsilon, 1e-9)
    relaxed = check_relaxed_lipschitz(labeled, omega, epsilon)
    assert relaxed.passed == passed
    assert _bits(relaxed.min_slack) == _bits(min_slack)
    assert relaxed.worst_pair == worst_pair

    assert labeled._find_duplicate() == _oracle_duplicate(x, tol)


ROW_NORM_DIMS = list(range(1, 21)) + [127, 128, 129, 200, 256, 300]


@pytest.mark.parametrize("dim", ROW_NORM_DIMS)
@pytest.mark.parametrize("budget", [1, 7, None], ids=["1", "7", "default"])
def test_tiles_match_numpy_row_norms(monkeypatch, dim, budget):
    if budget is not None:
        monkeypatch.setattr(core, "_PAIR_TILE_ELEMENTS", budget)
    rng = np.random.default_rng(dim)
    # Row lengths 1..9 (n = 10) and longer (n = 40); entries spread over
    # scales 1e-3..1e3, so the order of the sums shows in the last bits.
    for n in (10, 40):
        a = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, dim))
        rows = []
        for i0, tile, _ in core._pair_tiles(a, None):
            for r in range(tile.shape[0]):
                i = i0 + r
                expected = np.linalg.norm(a[i + 1:] - a[i], axis=1)
                assert tile[r, r:].tobytes() == expected.tobytes(), (n, i)
                rows.append(i)
        assert rows == list(range(n - 1))


def _lattice_sheet(n, seed):
    """n distinct points of an integer lattice on a 2-D sheet in R^6, in
    shuffled order, and an integer 3x6 operator. Every distance is the
    root of an exact integer, so many pairs tie exactly; the observations
    span a plane, which the block bounds prune well."""
    rng = np.random.default_rng(seed)
    basis = rng.integers(-3, 4, size=(2, 6)).astype(float)
    side = int(np.ceil(np.sqrt(1.25 * n)))
    grid = np.array([(u, v) for u in range(side) for v in range(side)], dtype=float)[:n]
    x = grid[rng.permutation(n)] @ basis + rng.integers(-5, 5, size=6)
    return x, rng.integers(-3, 4, size=(3, 6)).astype(float)


@pytest.mark.parametrize("plant", ["none", "collision", "duplicate"])
def test_pruned_scan_matches_the_loops_on_a_tied_sheet(plant):
    x, a = _lattice_sheet(2000, seed=0)
    y = x @ a.T
    if plant != "none":  # row 1500 takes row 700's observation, or its whole pair
        y[1500] = y[700]
        if plant == "duplicate":
            x[1500] = x[700]
    labeled = LabeledSet(x, y)
    _, _, max_ratio = _oracle_verify(x, y, 1.0, 1e-9)
    omega = max_ratio if np.isfinite(max_ratio) else 1.0
    verdict, witness, max_ratio = _oracle_verify(x, y, omega, 1e-9)
    scan = lipschitz._scan_sample(labeled, omega, collisions=True)
    assert (scan.certificate(omega).verdict, scan.witness) == (verdict, witness)
    assert _bits(scan.max_ratio) == _bits(max_ratio)
    assert scan.collision == (None if plant == "none" else (700, 1500))
    assert scan.pairs_examined < 2000 * 1999 // 2  # the fixed rule chose the pruned scan
    duplicate = _oracle_duplicate(x, TOL_DUP)
    assert duplicate == (None if plant != "duplicate" else (700, 1500))
    _scan_with_duplicates(labeled, omega, duplicate, scan, 2000 * 1999 // 2)
    if plant == "none":
        best, tight_witness = _oracle_tight(x, y)
        cert = tight_omega(labeled)
        assert (_bits(cert.omega), cert.witness) == (_bits(best), tight_witness)
        passed, min_slack, worst_pair = _oracle_relaxed(x, y, 0.5 * omega, 0.25, 1e-9)
        relaxed = check_relaxed_lipschitz(labeled, 0.5 * omega, 0.25)
        assert (relaxed.passed, relaxed.worst_pair) == (passed, worst_pair)
        assert _bits(relaxed.min_slack) == _bits(min_slack)


@pytest.mark.parametrize("leaf_rows,budget", [(1, 1), (2, None), (7, None), (16, None)])
def test_block_bounds_hold_exactly_on_ties(monkeypatch, leaf_rows, budget):
    # One-row blocks, one per tile, make a block pair's bounds the computed
    # dx and dy of its one pair, met in decreasing order of ratio: a bound
    # even one ulp too tight would skip a tied pair that comes first in
    # row-major order.
    monkeypatch.setattr(core, "_LEAF_ROWS", leaf_rows)
    if budget is not None:
        monkeypatch.setattr(core, "_PAIR_TILE_ELEMENTS", budget)
    monkeypatch.setattr(core, "_scan_tiled", _prune_always)
    x, a = _lattice_sheet(600, seed=1)
    y = x @ a.T
    labeled = LabeledSet(x, y)
    best, witness = _oracle_tight(x, y)
    cert = tight_omega(labeled)
    assert (_bits(cert.omega), cert.witness) == (_bits(best), witness)
    assert cert._pairs_examined < 600 * 599 // 2
    passed, min_slack, worst_pair = _oracle_relaxed(x, y, 0.5 * best, 0.0, 1e-9)
    relaxed = check_relaxed_lipschitz(labeled, 0.5 * best, 0.0)
    assert (relaxed.passed, relaxed.worst_pair) == (passed, worst_pair)
    assert _bits(relaxed.min_slack) == _bits(min_slack)


@pytest.mark.parametrize("leaf_rows,depth", [
    (leaf_rows, depth) for leaf_rows in (1, 2, 7, core._LEAF_ROWS)
    for depth in range(leaf_rows == 1, MAX_DEPTH + 1)])
def test_pruned_scan_matches_the_loops_at_every_tree_depth(monkeypatch, leaf_rows, depth):
    # The fewest rows that give the tree this depth: the last leaf holds one
    # row, and every split is as uneven as the rule allows.
    n = 2 if depth == 0 else (1 << depth - 1) * leaf_rows + 1
    x, a = _lattice_sheet(n, seed=depth)
    y = x @ a.T
    monkeypatch.setattr(core, "_LEAF_ROWS", leaf_rows)
    monkeypatch.setattr(core, "_scan_tiled", _prune_always)
    monkeypatch.setattr(core, "TOL_DUP", 1.5)  # lattice neighbours count as duplicates
    assert len(core._kd_order(y, -(-n // leaf_rows))[1]) == depth
    _check_against_oracles((x, y), 1.0, 0.5, 1.5)


def _uniform_sheet(n, seed):
    """n points drawn uniformly from a square on a random plane in R^6."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    return rng.uniform(-1.0, 1.0, (n, 2)) @ basis.T + rng.standard_normal(6)


@pytest.mark.parametrize("plant", [None, (1200, 3000)], ids=["none", "planted"])
def test_duplicate_search_prunes_on_low_dimensional_signals(monkeypatch, plant):
    # The search reads only the signals, so its k-d tree splits them and
    # every leaf pair whose signal boxes lie TOL_DUP apart is skipped.
    x = _uniform_sheet(4000, seed=7)
    if plant is not None:
        x[plant[1]] = x[plant[0]]
    y = x @ np.random.default_rng(8).standard_normal((3, 6)).T
    scans = []
    reduce = core._first_max_pair

    def reducing(*args, **kwargs):
        scans.append(reduce(*args, **kwargs))
        return scans[-1]

    monkeypatch.setattr(core, "_first_max_pair", reducing)
    expected = _oracle_duplicate(x, TOL_DUP)
    assert expected == plant
    if plant is None:
        LabeledSet.from_arrays(x, y)
    else:
        with pytest.raises(LabelingError) as exc:
            LabeledSet.from_arrays(x, y)
        assert str(exc.value) == f"duplicate signals at indices {plant[0]} and {plant[1]}"
        assert exc.value.index == plant[1]
    assert len(scans) == 1 and scans[0].firsts == [expected]
    assert 0 < scans[0].pairs_examined <= 4000 * 3999 // 2 // 100


def test_duplicate_search_on_fewer_than_two_rows():
    assert LabeledSet.from_arrays([[1.0, 2.0]], [[3.0]])._find_duplicate() is None
    for rows in (0, 1):
        scan = core._first_max_pair(np.zeros((rows, 2)), None,
                                    tests=(lambda dx, dy: dx < TOL_DUP,))
        assert scan.firsts == [None] and scan.pairs_examined == 0


def test_fallback_rule_cutoffs():
    # All pairs of 512 rows fit eight tiles; those of 513 rows do not.
    assert core._scan_tiled(512, 1, 0) and not core._scan_tiled(513, 1, 0)
    # 1008 rows make 63 leaves, too few to halve 6 coordinates; 1009 make 64.
    assert core._scan_tiled(1008, 6, 0) and not core._scan_tiled(1009, 6, 0)
    pairs = 1000 * 999 // 2
    assert core._scan_tiled(1000, 2, pairs // 2 + 1)  # more than half kept
    assert not core._scan_tiled(1000, 2, pairs // 2)


def _gaussian(n, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    return x, x @ rng.standard_normal((dim, dim)).T


@pytest.mark.parametrize("data,path", [
    # Too few leaves (94) to cut each of 8 observation coordinates once.
    (lambda: _gaussian(1500, 8, seed=0), "no tree"),
    # Enough leaves for 3 coordinates, but the bounds on pairs of nodes
    # above the leaves already keep more than half of the pairs.
    (lambda: _gaussian(4000, 3, seed=3), "tree, then tiles"),
    (lambda: (lambda x, a: (x, x @ a.T))(*_lattice_sheet(2000, seed=0)), "pruned"),
], ids=["8d", "3d", "sheet"])
def test_fallback_is_decided_before_any_leaf_pair_is_bounded(monkeypatch, data, path):
    x, y = data()
    seen = {"trees": 0, "leaf pairs bounded": 0, "off-diagonal tiles": 0}
    blocks = core._LeafBlocks
    build, bounds, tile = blocks.__init__, blocks.bounds, blocks.tile

    def spy_build(self, *args):
        seen["trees"] += 1
        build(self, *args)

    def spy_bounds(self, a, b):
        seen["leaf pairs bounded"] += int(np.count_nonzero((a < self.count) & (b < self.count)))
        return bounds(self, a, b)

    def spy_tile(self, p, q):
        seen["off-diagonal tiles"] += int(np.any(p != q))
        return tile(self, p, q)

    monkeypatch.setattr(blocks, "__init__", spy_build)
    monkeypatch.setattr(blocks, "bounds", spy_bounds)
    monkeypatch.setattr(blocks, "tile", spy_tile)
    labeled = LabeledSet(x, y)
    pairs = len(x) * (len(x) - 1) // 2
    cert = tight_omega(labeled)
    if path == "pruned":
        assert seen["trees"] == 1 and seen["leaf pairs bounded"] > 0
        assert cert._pairs_examined < pairs // 2
    else:
        assert seen == {"trees": int(path != "no tree"), "leaf pairs bounded": 0,
                        "off-diagonal tiles": 0}
        assert cert._pairs_examined == pairs
    best, witness = _oracle_tight(x, y)
    assert (_bits(cert.omega), cert.witness) == (_bits(best), witness)


def test_failing_verification_stops_refining_for_its_violation(monkeypatch):
    # At a fifth of the tight constant the violation test passes early.
    # Node pairs whose rows all come after its first pair so far are then
    # bounded by the ratio alone, so the pruned scan keeps well under half
    # of the pairs, and its certificate is the tiled scan's, bit for bit.
    x, a = _lattice_sheet(2000, seed=0)
    labeled = LabeledSet(x, x @ a.T)
    pairs = 2000 * 1999 // 2
    omega = 0.2 * tight_omega(labeled).omega
    cert = verify_lipschitz(labeled, omega)
    assert cert.verdict == "violated"
    assert cert._pairs_examined < pairs // 2
    monkeypatch.setattr(core, "_scan_tiled", lambda n, dim, kept: True)
    tiled = verify_lipschitz(labeled, omega)
    assert tiled._pairs_examined == pairs
    assert cert == tiled and _bits(cert.max_ratio) == _bits(tiled.max_ratio)


# --------------------------------------------------------------------------
# One pass over the sample per certify / theorem1 / theorem3 run.


ASSERTION = {
    "certify_segment.json": "certified_at_omega",
    "theorem1_ramp.json": "sample_certified",
    "theorem3_projection.json": "sample_certified",
}
FAILED_KEYS = {
    "theorem1_ramp.json": {"sample_size", "scale", "omega_normalized", "max_ratio",
                           "pairs_examined", "witness"},
    "theorem3_projection.json": {"sample_size", "max_ratio", "pairs_examined", "witness"},
}


def _load(problem_file):
    return json.loads((PROBLEMS / problem_file).read_text())


def _count_scans(monkeypatch):
    """Record the row count of every pass over a sample's pairs: each call
    of the one reduction, tiled or pruned, behind every Lipschitz check
    and the labeling duplicate search."""
    scans = []
    reduce = core._first_max_pair

    def reducing(x, *args, **kwargs):
        scans.append(len(x))
        return reduce(x, *args, **kwargs)

    monkeypatch.setattr(lipschitz, "_first_max_pair", reducing)
    monkeypatch.setattr(core, "_first_max_pair", reducing)
    return scans


@pytest.mark.parametrize("problem_file", sorted(ASSERTION))
@pytest.mark.parametrize("omega_factor", [1.0, 0.3])
def test_cli_certifies_the_sample_once(monkeypatch, problem_file, omega_factor):
    problem = _load(problem_file)
    problem["params"]["omega"] *= omega_factor
    scans = _count_scans(monkeypatch)
    report, _ = cli.execute(problem)
    n = report["results"]["sample_size"]
    certified = report["assertions"][0]["passed"]
    assert report["assertions"][0]["name"] == ASSERTION[problem_file]
    assert certified == (omega_factor == 1.0)
    if problem_file in FAILED_KEYS:
        if certified:
            # The hypothesis trains on fewer rows than the sample, and is
            # fitted at the certified omega with no pass over them.
            assert report["results"]["cells_occupied"] < n
        else:
            assert len(report["assertions"]) == 1
            assert set(report["results"]) == FAILED_KEYS[problem_file]
    # Labeling, duplicate check, certification and (for certify) the tight
    # constant all come from this one pass, the run's only one.
    assert scans == [n]
    assert 0 < report["results"]["pairs_examined"] <= n * (n - 1) // 2


@pytest.mark.parametrize("problem_file,probes", [
    ("theorem1_ramp.json", []), ("theorem3_projection.json", [500])])
def test_cli_evaluates_the_sample_once(monkeypatch, problem_file, probes):
    # The training residuals are read from the sample's recovery errors;
    # theorem3 also recovers its consistency probes, and nothing else.
    rows = []
    evaluate = MwetHypothesis._evaluate_rows

    def evaluating(self, q):
        rows.append(len(q))
        return evaluate(self, q)

    monkeypatch.setattr(MwetHypothesis, "_evaluate_rows", evaluating)
    report, _ = cli.execute(_load(problem_file))
    assert all(a["passed"] for a in report["assertions"])
    assert rows == [report["results"]["sample_size"]] + probes


def test_cli_certifies_a_large_sample_once_with_pruning(monkeypatch):
    x, a = _lattice_sheet(2000, seed=0)
    problem = {"task": "certify", "operator": {"type": "matrix", "data": a.tolist()},
               "signals": {"type": "list", "data": x.tolist()}, "params": {}}
    problem["params"]["omega"] = cli.execute(problem)[0]["results"]["tight_omega"]
    scans = _count_scans(monkeypatch)
    report, _ = cli.execute(problem)
    results = report["results"]
    assert report["assertions"][0]["passed"]
    assert scans == [2000]
    assert results["verdict"] == "certified"
    assert 0 < results["pairs_examined"] < 2000 * 1999 // 4


def test_mwet_scans_its_sample_once(monkeypatch):
    # The duplicate search, the collision search and the tight constant
    # come from one pass over the sample.
    scans = _count_scans(monkeypatch)
    report, _ = cli.execute(_load("mwet_segment.json"))
    assert scans.count(report["results"]["sample_size"]) == 1


MWET_FAILURES = {
    # A duplicate (rows 2 and 3, which also collide) after a collision.
    "duplicate_and_collision": ([[1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 0.0]],
                                "labeling the sample failed: duplicate signals at indices 2 and 3"),
    "collision": ([[1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]],
                  "fit failed: signals 0 and 1 share an observation "
                  "(distance 0.000e+00 <= 3.000e-12)"),
    # Observation distances that overflow stop the pass before any pair.
    "overflow_and_duplicate": ([[1e54]], [[1e100], [-1e100], [1e100]],
                               "labeling the sample failed: duplicate signals at indices 0 and 2"),
    "overflow": ([[1e54]], [[1e100], [-1e100]],
                 "fit failed: observations: pairwise distances overflow float64 (the squared "
                 "diagonal of their bounding box is not finite)"),
    # One signal: the audit used to end in an OverflowError traceback.
    "one_huge_signal": ([[1.0]], [[1e308]],
                        "fit failed: observations: their norms overflow float64, so the "
                        "injectivity tolerance is not finite"),
}


@pytest.mark.parametrize("case", sorted(MWET_FAILURES))
@pytest.mark.parametrize("omega", [None, "x"])
def test_mwet_reports_a_duplicate_first_and_a_collision_as_a_fit_failure(tmp_path, capsys,
                                                                          case, omega):
    # One pass finds both; a duplicate fails the labeling ahead of a bad
    # parameter, and the rest fails the fit after one.
    matrix, signals, message = MWET_FAILURES[case]
    problem = {"task": "mwet", "operator": {"type": "matrix", "data": matrix},
               "signals": {"type": "list", "data": signals}, "params": {}}
    if omega is not None:
        problem["params"]["omega"] = omega
        if message.startswith("fit failed"):
            message = "field 'params.omega' must be a number, got 'x'"
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("problem_file", sorted(ASSERTION))
@pytest.mark.parametrize("omega_factor", [1.0, 0.3, 0.0])
@pytest.mark.parametrize("pair", [(3, 7), (0, 1)], ids=["3_7", "0_1"])
def test_cli_duplicate_signals_exit_1_before_certification(tmp_path, capsys, problem_file,
                                                           omega_factor, pair):
    problem = _load(problem_file)
    problem["params"]["omega"] *= omega_factor
    signals = cli.build_signals(problem["signals"], cli.build_operator(problem["operator"]), 0)
    signals[pair[1]] = signals[pair[0]]
    problem["signals"] = {"type": "list", "data": signals.tolist()}
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    code = cli.main(["run", str(path), "--out", str(out)])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == ("error: labeling the sample failed: duplicate "
                                       f"signals at indices {pair[0]} and {pair[1]}\n")
    assert not out.exists()


@pytest.mark.parametrize("budget", [1, None], ids=["1", "default"])
@pytest.mark.parametrize("kind", ["lattice", "float", "near_duplicate"])
def test_tiled_scan_across_the_ufunc_buffer_matches_the_loops(monkeypatch, kind, budget):
    # The tiled scan runs under core._UFUNC_BUFFER. With n = buffer + 3 rows
    # its tiles are from buffer + 2 down to 1 columns wide: with one-row
    # tiles every width, including buffer - 1, buffer and buffer + 1, and
    # with the default budget tiles of about 15 rows on both sides of the
    # buffer. The rule is patched to scan every pair, and each answer
    # matches the row loops: maxima, witnesses, first passing pairs, and
    # pairs_examined equal to every pair. The lattice ties distances and
    # counts its neighbours as duplicates.
    n = core._UFUNC_BUFFER + 3
    if budget is not None:
        monkeypatch.setattr(core, "_PAIR_TILE_ELEMENTS", budget)
    monkeypatch.setattr(core, "_scan_tiled", lambda n, dim, kept: True)
    rng = np.random.default_rng(n)
    tol = TOL_DUP
    if kind == "lattice":
        x, a = _lattice_sheet(n, seed=2)
        y = x @ a.T
        tol = 1.5
        monkeypatch.setattr(core, "TOL_DUP", tol)
    else:
        x, y = rng.standard_normal((n, 5)), rng.standard_normal((n, 3))
        if kind == "near_duplicate":
            x[900], y[900] = x[17] + 1e-14, y[17] + 1e-13
    _check_against_oracles((x, y), 0.7, 0.5, tol)
