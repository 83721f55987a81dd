"""The one pair scan: bit-identical to the four loops it replaced, run once.

The oracle below is the four row-by-row loops as they stood before the
scan and its first-maximum reduction were shared (tight constant,
verification, relaxed check, duplicate search), copied verbatim. Every
certified constant, verdict, witness and collision pair must match it
bit for bit, including on sets built to produce tied ratios, colliding
observations and near-duplicate signals, for every tile budget. The
fused verification pass, which also reports the first collision and the
first duplicate, must match all three oracles from its one pass.

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
def labeled_arrays(draw):
    # Dimensions from 8 up take add.reduce's eight-accumulator path; with
    # the default budget, n = 200 spans two tiles.
    n = draw(st.sampled_from([2, 3, 9, 50, 200]))
    sig_dim = draw(st.integers(1, 12))
    obs_dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["grid", "float", "near_duplicate"]))
    if kind == "grid":
        elements = st.integers(-2, 2).map(float)
    else:
        elements = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    x = draw(arrays(np.float64, (n, sig_dim), elements=elements))
    y = draw(arrays(np.float64, (n, obs_dim), elements=elements))
    if kind == "near_duplicate":
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        x[j] = x[i] + draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-9]))
        if draw(st.booleans()):
            y[j] = y[i] + draw(st.sampled_from([0.0, 1e-13, 1e-6]))
    return x, y


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=labeled_arrays(),
       omega=st.floats(1e-3, 1e3),
       epsilon=st.sampled_from([0.0, 1e-3, 0.5]),
       tol=st.sampled_from([TOL_DUP, 1e-9, 0.5, 1.0, 1.5]),
       budget=st.sampled_from([1, 7, core._PAIR_TILE_ELEMENTS]))
def test_scan_matches_original_loops(data, omega, epsilon, tol, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_PAIR_TILE_ELEMENTS", budget)
        # LabeledSet._find_duplicate reads the package constant; patching it
        # drives the labeling scan at the drawn radius too.
        patch.setattr(core, "TOL_DUP", tol)
        _check_against_oracles(data, omega, epsilon, tol)


def _check_against_oracles(data, omega, epsilon, tol):
    x, y = data
    labeled = LabeledSet.from_arrays(x, y, check_duplicates=False)

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
        if expected[0] > 0.0:
            omegas.append(expected[0])  # the boundary case for verification

    for w in omegas:
        verdict, witness, max_ratio = _oracle_verify(x, y, w, 1e-9)
        cert = verify_lipschitz(labeled, w)
        assert (cert.verdict, cert.witness) == (verdict, witness)
        assert _bits(cert.max_ratio) == _bits(max_ratio)
        # The fused pass: verification, first collision, first duplicate.
        scan = lipschitz._scan_sample(labeled, w, 1e-9, tol_dup=tol,
                                      tol_inj=injectivity_tolerance(y))
        assert scan.certificate(w) == cert
        assert scan.collision == collision
        assert scan.duplicate == _oracle_duplicate(x, tol)
        if collision is None:  # then its maximum ratio is the tight constant
            assert _bits(scan.max_ratio) == _bits(expected[0])
            assert scan.witness == expected[1]

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
        for i0, tile in core._pair_tiles(signals=a):
            for r in range(tile.shape[0]):
                i = i0 + r
                assert np.isnan(tile[r, :r]).all()
                expected = np.linalg.norm(a[i + 1:] - a[i], axis=1)
                assert tile[r, r:].tobytes() == expected.tobytes(), (n, i)
                rows.append(i)
        assert rows == list(range(n - 1))


# --------------------------------------------------------------------------
# One pass over the sample per certify / theorem1 / theorem3 run.


ASSERTION = {
    "certify_segment.json": "certified_at_omega",
    "theorem1_ramp.json": "sample_certified",
    "theorem3_projection.json": "sample_certified",
}
FAILED_KEYS = {
    "theorem1_ramp.json": {"sample_size", "scale", "omega_normalized", "max_ratio", "witness"},
    "theorem3_projection.json": {"sample_size", "max_ratio", "witness"},
}


def _load(problem_file):
    return json.loads((PROBLEMS / problem_file).read_text())


def _count_scans(monkeypatch):
    """Record the row count of every pass of the pair scan."""
    scans = []
    original = core._pair_tiles

    def counting(**arrays):
        scans.append(len(arrays["signals"]))
        return original(**arrays)

    monkeypatch.setattr(core, "_pair_tiles", counting)
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
            # The fitted hypothesis scans its training set, which is smaller.
            assert report["results"]["cells_occupied"] < n
        else:
            assert len(report["assertions"]) == 1
            assert set(report["results"]) == FAILED_KEYS[problem_file]
    # Labeling, duplicate check, certification and (for certify) the tight
    # constant all come from this one pass.
    assert scans.count(n) == 1


def test_mwet_keeps_its_two_scans(monkeypatch):
    # tight_omega raises mid-scan on a collision, so the labeling duplicate
    # scan stays separate to keep the duplicate error first.
    scans = _count_scans(monkeypatch)
    report, _ = cli.execute(_load("mwet_segment.json"))
    assert scans.count(report["results"]["sample_size"]) == 2


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
