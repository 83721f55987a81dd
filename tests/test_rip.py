"""Restricted isometry constants, spectral balancing, sparse pair checks.

rip_delta is exhaustive, so its first oracle here is a different
exhaustive route: singular values of each column submatrix via itertools,
instead of Gram eigenvalues in colex blocks. Both must agree to rounding
on random inputs. The second oracle is the enumeration as it stood before
the subset-spectra kernel (recursive colex generator, one loop per public
function), copied verbatim: the kernel must match it bit for bit for
every block size and thread count.
"""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liprec import acceptance, cli, core, rip
from liprec import (
    DimensionError,
    DomainError,
    MatrixOperator,
    NotApplicableError,
    ParameterError,
    TooLargeError,
    check_recoverability_condition,
    rip_delta,
    rip_to_omega,
    sparse_signals,
    spectral_balance,
    verify_sparse_lipschitz,
)
from liprec.core import seeded_rng


def _naive_delta(a, S):
    """delta_S via per-subset singular values."""
    best = 0.0
    for k in range(1, S + 1):
        for sub in itertools.combinations(range(a.shape[1]), k):
            s = np.linalg.svd(a[:, sub], compute_uv=False)
            best = max(best, abs(s[0] ** 2 - 1.0), abs(s[-1] ** 2 - 1.0))
    return best


def _subsets_at(ranks, n, k):
    """rip._unranked(ranks, pascal) as a list of ascending tuples, for k-subsets of range(n)."""
    pascal = np.array([[math.comb(t, j) for t in range(n)] for j in range(1, k + 1)])
    return list(map(tuple, rip._unranked(np.asarray(ranks), pascal).tolist()))


def _colex(n, S):
    """Every rank of each size 1..S of range(n), unranked: one list of tuples per size."""
    return [_subsets_at(np.arange(math.comb(n, k)), n, k) for k in range(1, S + 1)]


def test_colex_order_small_cases():
    assert _colex(3, 2) == [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    assert _colex(4, 2)[1] == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert _colex(3, 3)[2] == [(0, 1, 2)]


def test_colex_counts():
    for n, k in [(6, 3), (8, 2), (5, 5)]:
        subs = _colex(n, k)[-1]
        assert len(subs) == math.comb(n, k)
        assert len(set(subs)) == len(subs)
        assert all(len(s) == k and list(s) == sorted(s) for s in subs)


def test_every_rank_unranks_to_the_oracle_colex_order():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert _colex(n, k)[-1] == list(_oracle_colex_subsets(n, k)), (n, k)


def test_ranks_above_two_to_the_31_round_trip():
    # C(60, 10) is about 7.5e10: ranks past int32 must unrank exactly, and
    # the ranking sum sum_j C(c_j, j + 1), in Python integers, gives them back.
    n, k = 60, 10
    total = math.comb(n, k)
    ranks = [2 ** 31 - 1, 2 ** 31, 2 ** 32 + 1, total - 1,
             *np.random.default_rng(22).integers(2 ** 31, total, 500).tolist()]
    subs = _subsets_at(ranks, n, k)
    assert subs[3] == tuple(range(n - k, n))  # the last rank
    for rank, sub in zip(ranks, subs):
        assert all(0 <= a < b < n for a, b in zip(sub, sub[1:])), sub
        assert sum(math.comb(c, j + 1) for j, c in enumerate(sub)) == rank, (rank, sub)


def test_rip_delta_matches_svd_oracle():
    rng = seeded_rng(70)
    for _ in range(10):
        m, n = int(rng.integers(3, 7)), int(rng.integers(4, 9))
        m = min(m, n)
        a = rng.standard_normal((m, n)) / math.sqrt(m)
        s_max = min(3, m)
        report = rip_delta(a, s_max)
        assert report.delta == pytest.approx(_naive_delta(a, s_max), abs=1e-10)
        assert report.subsets_examined == sum(math.comb(n, k) for k in range(1, s_max + 1))


def test_rip_delta_scaled_identity():
    # columns of norm 1/2: every Gram eigenvalue is 1/4, so delta = 3/4
    a = 0.5 * np.eye(4)
    for s in range(1, 5):
        assert rip_delta(a, s).delta == pytest.approx(0.75)


def test_rip_delta_orthonormal_columns_is_zero():
    a = np.eye(5)
    report = rip_delta(a, 3)
    assert report.delta == 0.0


def test_rip_delta_extremal_subset_attains_delta():
    rng = seeded_rng(71)
    a = rng.standard_normal((5, 8)) / math.sqrt(5)
    report = rip_delta(a, 3)
    sub = list(report.extremal_subset)
    s = np.linalg.svd(a[:, sub], compute_uv=False)
    attained = max(abs(s[0] ** 2 - 1.0), abs(s[-1] ** 2 - 1.0))
    assert attained == pytest.approx(report.delta, rel=1e-12)


def test_rip_delta_monotone_in_sparsity():
    rng = seeded_rng(72)
    a = rng.standard_normal((6, 9)) / math.sqrt(6)
    deltas = [rip_delta(a, s).delta for s in range(1, 6)]
    assert all(d1 <= d2 + 1e-15 for d1, d2 in zip(deltas, deltas[1:]))


def test_rip_delta_accepts_operator_and_array():
    rng = seeded_rng(73)
    a = rng.standard_normal((3, 5))
    assert rip_delta(a, 2).delta == rip_delta(MatrixOperator(a), 2).delta


def test_rip_delta_parameter_guards():
    a = np.eye(4)
    with pytest.raises(ParameterError):
        rip_delta(a, 0)
    with pytest.raises(ParameterError):
        rip_delta(a, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_matrix_must_be_finite(bad):
    # A NaN entry used to give rip_delta a delta of 0.0 with no extremal subset.
    a = np.eye(6)
    a[0, 1] = bad
    calls = [lambda: rip_delta(a, 1), lambda: spectral_balance(a, 1),
             lambda: check_recoverability_condition(a, 1),
             lambda: verify_sparse_lipschitz(a, 1, 10, 0)]
    for call in calls:
        with pytest.raises(DomainError, match="^matrix: entries must be finite$"):
            call()


def test_overflowing_gram_raises_before_any_level(monkeypatch):
    # A finite matrix whose Gram overflows used to give rip_delta a delta of
    # inf, after a numpy overflow warning, and spectral_balance a scale of
    # 0.0 with delta nan. Entries of both signs make inf - inf = nan too.
    grown = np.eye(6)
    grown[0, 0] = 1e200
    mixed = np.eye(6)
    mixed[:2, :2] = [[1e200, -1e200], [1e200, 1e200]]

    def no_level(*args):
        raise AssertionError("a size was enumerated")

    # size 1 is folded by _extremes, every larger size by _level_extremes
    monkeypatch.setattr(rip, "_level_extremes", no_level)
    monkeypatch.setattr(rip, "_extremes", no_level)
    for a in (grown, mixed):
        calls = [lambda: rip_delta(a, 1), lambda: spectral_balance(a, 2),
                 lambda: check_recoverability_condition(a, 1),
                 lambda: verify_sparse_lipschitz(a, 1, 10, 0)]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=r"^matrix: Gram entries overflow float64"):
                    call()


def test_cli_rip_with_overflowing_gram_exits_1(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"task": "rip", "params": {"S": 1},
                                   "operator": {"type": "matrix",
                                                "data": [[1e200, 1, 0], [0, 1, 1]]}}))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(problem), "--out", str(out)]) == cli.EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: DomainError: matrix: Gram entries overflow float64 (A^T A is not finite)"]
    assert not out.exists()


def test_raw_matrix_must_be_non_empty_2d():
    for bad in (np.ones(3), np.zeros((0, 3)), [[]]):
        with pytest.raises(DimensionError, match="^matrix: expected a non-empty 2-D array"):
            rip_delta(bad, 1)


def test_rip_delta_enumeration_cap(monkeypatch):
    assert rip.ENUMERATION_CAP == 10 ** 7
    a = np.vstack([np.eye(10)] * 6).T  # 10 x 60
    total = sum(math.comb(60, k) for k in range(1, 11))

    def no_gram(*args):
        raise AssertionError("a Gram matrix was formed")

    monkeypatch.setattr(rip, "_level_extremes", no_gram)
    monkeypatch.setattr(rip, "_extremes", no_gram)
    monkeypatch.setattr(rip.np.linalg, "eigvalsh", no_gram)
    with pytest.raises(TooLargeError, match=f"^{total} subsets exceed the enumeration "
                                            f"cap {rip.ENUMERATION_CAP};"):
        rip_delta(a, 10)


def test_spectral_balance_prediction_is_exact():
    rng = seeded_rng(74)
    a = rng.standard_normal((4, 7))
    a = a / np.linalg.norm(a, axis=0)  # unit columns
    bal = spectral_balance(a, 3)
    achieved = rip_delta(bal.scale * a, 3)
    assert achieved.delta == pytest.approx(bal.delta, abs=1e-10)
    assert bal.scale == pytest.approx(math.sqrt(2.0 / (bal.lambda_min + bal.lambda_max)))


def test_spectral_balance_is_optimal_among_rescalings():
    rng = seeded_rng(75)
    a = rng.standard_normal((4, 6))
    a = a / np.linalg.norm(a, axis=0)
    bal = spectral_balance(a, 2)
    for c in [0.5, 0.9, 1.0, 1.1, 2.0, bal.scale * 1.05]:
        assert rip_delta(c * a, 2).delta >= bal.delta - 1e-12


def test_spectral_balance_below_one_iff_no_singular_subset():
    rng = seeded_rng(76)
    a = rng.standard_normal((4, 8))
    bal = spectral_balance(a, 2)
    assert bal.lambda_min > 0.0
    assert bal.delta < 1.0
    # duplicate columns make a singular pair and push delta to 1
    b = a.copy()
    b[:, 1] = b[:, 0]
    degenerate = spectral_balance(b, 2)
    assert degenerate.delta == pytest.approx(1.0, abs=1e-12)


def test_check_recoverability_condition():
    ok = check_recoverability_condition(np.eye(9), 3)
    assert ok.passed
    assert ok.total == 0.0
    bad = check_recoverability_condition(0.5 * np.eye(9), 3)
    assert not bad.passed
    assert bad.total == pytest.approx(1.5)
    with pytest.raises(ParameterError):
        check_recoverability_condition(np.eye(4), 2)


def test_recoverability_condition_names_the_s_it_was_given(monkeypatch):
    # 3S = 3 fits N = 6 but not M = 2. The check used to compare 3S with N
    # only and then fail inside the pass at 3S, naming S = 3.
    sizes = _counting_kernel(monkeypatch)
    with pytest.raises(ParameterError, match=r"^need 3S <= min\(M, N\) = 2, got S = 1$"):
        check_recoverability_condition(np.eye(2, 6), 1)
    # a shape that cannot hold 3S is reported before the cap at 2S
    with pytest.raises(ParameterError, match=r"^need 3S <= min\(M, N\) = 4, got S = 2$"):
        check_recoverability_condition(np.ones((4, 200)), 2)
    assert sizes == []


def test_rip_to_omega_values():
    assert rip_to_omega(0.0) == 1.0
    assert rip_to_omega(0.75) == pytest.approx(2.0)
    assert rip_to_omega(0.99) == pytest.approx(10.0)
    with pytest.raises(ParameterError):
        rip_to_omega(-0.1)
    with pytest.raises(NotApplicableError):
        rip_to_omega(1.0)
    with pytest.raises(NotApplicableError):
        rip_to_omega(1.7)


def test_sparse_signals_support_and_determinism():
    x = sparse_signals(10, 3, 200, seeded_rng(8))
    assert x.shape == (200, 10)
    assert np.all(np.count_nonzero(x, axis=1) <= 3)
    again = sparse_signals(10, 3, 200, seeded_rng(8))
    assert np.array_equal(x, again)


def test_verify_sparse_lipschitz_passes_below_one():
    rng = seeded_rng(77)
    a = rng.standard_normal((6, 8))
    a = a / np.linalg.norm(a, axis=0)
    a = spectral_balance(a, 4).scale * a
    assert rip_delta(a, 4).delta < 1.0
    check = verify_sparse_lipschitz(a, 2, 2000, seed=9)
    assert check.passed
    assert check.max_ratio <= check.derived_omega + 1e-9
    assert check.delta_2s == rip_delta(a, 4).delta
    assert check.derived_omega == pytest.approx(1.0 / math.sqrt(1.0 - check.delta_2s))


def test_verify_sparse_lipschitz_orthonormal_rows():
    # orthonormal columns: delta = 0, omega = 1, and A preserves norms
    check = verify_sparse_lipschitz(np.eye(6), 2, 500, seed=10)
    assert check.passed
    assert check.derived_omega == 1.0
    assert check.max_ratio == pytest.approx(1.0)


def test_verify_sparse_lipschitz_guards():
    rng = seeded_rng(78)
    a = rng.standard_normal((4, 8))
    with pytest.raises(ParameterError):
        verify_sparse_lipschitz(a, 3, 100, seed=0)  # 2S = 6 > M = 4
    degenerate = 0.1 * np.eye(6)  # delta = 0.99 still fine; make it singular
    degenerate[0, 0] = 0.0
    with pytest.raises(NotApplicableError):
        verify_sparse_lipschitz(degenerate, 2, 100, seed=0)


@pytest.mark.parametrize("num_pairs", [0, -3])
def test_verify_sparse_lipschitz_needs_a_pair(monkeypatch, num_pairs):
    # A probe of no pairs used to pass, and a negative count raised numpy's
    # ValueError; both are rejected before the pass.
    sizes = _counting_kernel(monkeypatch)
    with pytest.raises(ParameterError, match="^num_pairs must be >= 1$"):
        verify_sparse_lipschitz(np.eye(6), 1, num_pairs, 0)
    assert sizes == []
    # a bad S is still reported first
    with pytest.raises(ParameterError, match="^need 2S <= min"):
        verify_sparse_lipschitz(np.eye(6), 4, num_pairs, 0)


# --------------------------------------------------------------------------
# Oracle: the enumeration loops before the subset-spectra kernel, verbatim
# apart from names (recursive colex generator, 2**15-subset blocks, no cap).

_ORACLE_BLOCK = 1 << 15


def _oracle_colex_subsets(n, k):
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _oracle_colex_subsets(top, k - 1):
            yield rest + (top,)


def _oracle_rip_delta(a, S):
    n = a.shape[1]
    total = sum(math.comb(n, k) for k in range(1, S + 1))
    gram = a.T @ a
    best = -math.inf
    best_subset = ()
    for k in range(1, S + 1):
        if k == 1:
            # 1x1 Grams are the squared column norms; no eigensolver needed.
            diag = np.diag(gram)
            dev = np.maximum(1.0 - diag, diag - 1.0)
            j = int(np.argmax(dev))
            if dev[j] > best:
                best = float(dev[j])
                best_subset = (j,)
            continue
        subs = np.fromiter(
            (i for sub in _oracle_colex_subsets(n, k) for i in sub),
            dtype=np.int64, count=math.comb(n, k) * k).reshape(-1, k)
        for start in range(0, subs.shape[0], _ORACLE_BLOCK):
            block = subs[start:start + _ORACLE_BLOCK]
            grams = gram[block[:, :, None], block[:, None, :]]
            lam = np.linalg.eigvalsh(grams)
            dev = np.maximum(1.0 - lam[:, 0], lam[:, -1] - 1.0)
            j = int(np.argmax(dev))
            if dev[j] > best:
                best = float(dev[j])
                best_subset = tuple(int(i) for i in block[j])
    return rip.RipReport(S=S, delta=max(best, 0.0), subsets_examined=total,
                         extremal_subset=best_subset)


def _oracle_spectral_balance(a, S):
    n = a.shape[1]
    gram = a.T @ a
    lo = math.inf
    hi = 0.0
    for k in range(1, S + 1):
        if k == 1:
            diag = np.diag(gram)
            lo = min(lo, float(diag.min()))
            hi = max(hi, float(diag.max()))
            continue
        subs = np.fromiter(
            (i for sub in _oracle_colex_subsets(n, k) for i in sub),
            dtype=np.int64, count=math.comb(n, k) * k).reshape(-1, k)
        for start in range(0, subs.shape[0], _ORACLE_BLOCK):
            block = subs[start:start + _ORACLE_BLOCK]
            grams = gram[block[:, :, None], block[:, None, :]]
            lam = np.linalg.eigvalsh(grams)
            lo = min(lo, float(lam[:, 0].min()))
            hi = max(hi, float(lam[:, -1].max()))
    lo = max(lo, 0.0)
    if hi <= 0.0:
        raise ParameterError("cannot balance a zero matrix")
    return rip.BalanceResult(
        scale=math.sqrt(2.0 / (lo + hi)),
        lambda_min=lo,
        lambda_max=hi,
        delta=(hi - lo) / (hi + lo),
    )


def _oracle_records(a, S):
    """_subset_spectra's records from one eigvalsh call over each whole size."""
    rip._check_enumeration(a, S)
    gram = a.T @ a
    records = []
    for k in range(1, S + 1):
        subs = np.array(list(_oracle_colex_subsets(a.shape[1], k)))
        if k == 1:
            low = high = np.diag(gram)
        else:
            lam = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])
            low, high = lam[:, 0], lam[:, -1]
        dev = np.maximum(1.0 - low, high - 1.0)
        j = int(np.argmax(dev))
        records.append(rip._SizeSpectra(float(low.min()), float(high.max()), float(dev[j]),
                                        tuple(int(i) for i in subs[j])))
    return records


def _outcome(fn, *args):
    """repr of the result (exact for floats, -0.0 included) or of the error."""
    try:
        return repr(fn(*args))
    except ParameterError as exc:
        return f"ParameterError: {exc}"


@st.composite
def rip_cases(draw):
    """(matrix, S) with N <= 10 and S <= 4.

    Entries in {-1, 0, 1} give tied deviations across subsets and sizes,
    zero columns and singular subsets; Gaussian entries give distinct ones.
    Gaussian columns copied, or copied and moved by one ulp, give subsets
    whose spectra tie, or differ in the last bits, against the pruning
    test's margin; a power-of-two scale from 2^-40 to 2^40 makes lambda
    << 1, where 1 - lambda rounds alike for distinct lambda, or >> 1.
    """
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    S = draw(st.integers(1, min(m, n, 4)))
    kind = draw(st.sampled_from(["ternary", "gaussian", "duplicated", "ulp"]))
    if kind == "ternary":
        a = draw(arrays(np.float64, (m, n), elements=st.sampled_from([-1.0, 0.0, 1.0])))
    else:
        a = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((m, n))
    if kind in ("duplicated", "ulp") and n > 1:
        for _ in range(draw(st.integers(1, n - 1))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            a[:, j] = a[:, i] if kind == "duplicated" else np.nextafter(a[:, i], np.inf)
    if draw(st.booleans()):
        a = np.ldexp(a, draw(st.integers(-40, 40)))
    return a, S


DEFAULT_BLOCK = rip._EIG_BLOCK
# Every block size and thread budget the kernel is run under; block 1 puts
# each subset in a block of its own, so every tie falls across a block seam.
# No level here fills the default block; at blocks of 1, 7 and 32 a level
# of more than a quarter block whose previous size leaves room is tested
# over every prefix block, several where it has more prefixes than a block.
KERNEL_SETTINGS = [(block, threads) for block in (1, 7, 32, DEFAULT_BLOCK)
                   for threads in ("1", "2")]


@settings(max_examples=120, deadline=None)
@given(case=rip_cases())
def _kernel_matches_seed_loops(case):
    a, S = case
    expected_colex = [list(_oracle_colex_subsets(a.shape[1], k)) for k in range(1, S + 1)]
    expected_delta = _outcome(_oracle_rip_delta, a, S)
    expected_balance = _outcome(_oracle_spectral_balance, a, S)
    # the records hold lambda_min unclamped, which spectral_balance clamps at 0
    expected_records = _outcome(_oracle_records, a, S)
    for block, threads in KERNEL_SETTINGS:
        with mock.patch.object(rip, "_EIG_BLOCK", block), \
                mock.patch.dict(os.environ, {"LIPREC_THREADS": threads}):
            assert _outcome(rip_delta, a, S) == expected_delta, (block, threads)
            assert _outcome(spectral_balance, a, S) == expected_balance, (block, threads)
            assert _outcome(rip._subset_spectra, a, S) == expected_records, (block, threads)
    assert _colex(a.shape[1], S) == expected_colex


def test_kernel_bit_identical_to_seed_loops(monkeypatch):
    # Spies count the subsets of a tested size that the pruning test rules
    # out and the levels above a quarter block that go to eigvalsh whole
    # because the previous size's extremes leave the test no room (a zero
    # matrix, or columns of one norm): the examples must reach both paths.
    ruled_out, no_room, tested = [], [], []
    extension, tested_rows, level_extremes = (
        rip._extension, rip._tested_rows, rip._level_extremes)

    def extension_spy(signed, below, chunk):
        step = extension(signed, below, chunk)
        if below.shape[0] + 1 == tested[-1]:  # the tested size, not a level below it
            ruled_out.append(int(step[-1].all(axis=0).sum()))
        return step

    def rows_spy(scaled, k, sigma):
        tested.append(k)
        return tested_rows(scaled, k, sigma)

    def level_spy(gram, k, exp, threads, smaller):
        calls = len(tested)
        record = level_extremes(gram, k, exp, threads, smaller)
        if len(tested) == calls and math.comb(gram.shape[0], k) > rip._EIG_BLOCK // 4:
            no_room.append(smaller)
        return record

    monkeypatch.setattr(rip, "_extension", extension_spy)
    monkeypatch.setattr(rip, "_tested_rows", rows_spy)
    monkeypatch.setattr(rip, "_level_extremes", level_spy)
    _kernel_matches_seed_loops()
    assert sum(ruled_out) > 0 and no_room, (sum(ruled_out), len(no_room))


def _near_ties():
    """6 x 10 Gaussian matrices whose subsets' spectra tie or nearly tie.

    Half the columns copied, or copied and moved by one ulp, make many
    subsets singular, with lambda_min rounding noise of either sign: a test
    without its margin rules out some whose computed lambda_min is below
    the running minimum. At scales 2^-30 to 2^-22 every lambda << 1 and
    1 - lambda rounds alike for distinct lambda, so deviations tie: a
    subset ruled out against the previous size's extremes must still fall
    strictly below the best after rounding, which takes a margin relative
    to max(1, max |G|), not to max |G| alone. A shortened last column puts
    each size's smallest lambda_min late in colex order.
    """
    for seed in range(20):
        a = seeded_rng(seed).standard_normal((6, 10))
        copied, moved, shortened = a.copy(), a.copy(), a.copy()
        copied[:, 5:] = a[:, :5]
        moved[:, 5:] = np.nextafter(a[:, :5], np.inf)
        shortened[:, -1] /= 16
        for b, scales in ((copied, (-30, 0, 30)), (moved, (-30, 0, 30)),
                          (a, (-30, -26, -22)), (shortened, (-30, -26, -22))):
            for scale in scales:
                yield np.ldexp(b, scale)


def test_pruned_records_equal_oracle_on_near_ties():
    for a in _near_ties():
        expected = repr(_oracle_records(a, 4))
        for block, threads in KERNEL_SETTINGS:
            with mock.patch.object(rip, "_EIG_BLOCK", block), \
                    mock.patch.dict(os.environ, {"LIPREC_THREADS": threads}):
                assert repr(rip._subset_spectra(a, 4)) == expected, (block, threads)


def _rip_benchmark_matrix():
    """A unit-spectral-norm Gaussian 12 x 28, as in the rip benchmark."""
    a = seeded_rng(7).standard_normal((12, 28))
    return a / np.linalg.norm(a, 2)


def test_every_block_of_a_multi_block_size_is_tested(monkeypatch):
    # Sizes 4-6 have 5 to 92 blocks each at the default block, and every
    # chunk of each is tested against the previous size's extremes, so
    # eigvalsh sees 106 to 157 subsets per size, where sending the first
    # block in full sent 4096 or more. The records equal those of an
    # untested run (every certificate stubbed to fail, so eigvalsh sees
    # every subset).
    a = _rip_benchmark_matrix()
    extension = rip._extension

    def certify_nothing(signed, below, chunk):
        *step, certified = extension(signed, below, chunk)
        return (*step, np.zeros_like(certified))

    with monkeypatch.context() as untested:
        untested.setattr(rip, "_extension", certify_nothing)
        expected = repr(rip._subset_spectra(a, 6))
    spectra = rip._spectra
    for block, threads in KERNEL_SETTINGS:
        sent = {}

        def counted(gram, sub):
            sent[sub.shape[1]] = sent.get(sub.shape[1], 0) + sub.shape[0]
            return spectra(gram, sub)

        monkeypatch.setattr(rip, "_spectra", counted)
        monkeypatch.setattr(rip, "_EIG_BLOCK", block)
        monkeypatch.setenv("LIPREC_THREADS", threads)
        assert repr(rip._subset_spectra(a, 6)) == expected, (block, threads)
        for k in (2, 3):  # sizes of at most a quarter block go to eigvalsh whole
            assert sent[k] == math.comb(28, k) or math.comb(28, k) > block // 4, (block, sent)
        assert all(sent[k] < 1000 for k in (3, 4, 5, 6)), (block, threads, sent)


def test_every_prefix_block_of_a_tested_size_is_tested_on_copied_columns(monkeypatch):
    # The last 14 columns copy the first 14, so a tested size keeps many of
    # its subsets; it is still tested in every chunk, in row order, rather
    # than sending the rest of the size whole. The spy records the rows
    # each chunk of a tested size covers.
    g = seeded_rng(7).standard_normal((12, 14))
    a = np.hstack([g, g]) / np.linalg.norm(g, 2) / math.sqrt(2)
    extension, tested_rows, spans, tested = rip._extension, rip._tested_rows, {}, []

    def rows_spy(scaled, k, sigma):
        tested.append(k)
        return tested_rows(scaled, k, sigma)

    def spy(signed, below, chunk):
        step = extension(signed, below, chunk)
        k = below.shape[0] + 1
        if k == tested[-1]:
            t, p0, _ = chunk[0]
            first = math.comb(t, k) + math.comb(p0, k - 1)
            spans.setdefault(k, []).append((first, first + step[1].shape[1]))
        return step

    monkeypatch.setattr(rip, "_extension", spy)
    monkeypatch.setattr(rip, "_tested_rows", rows_spy)
    assert repr(rip._subset_spectra(a, 5)) == repr(_oracle_records(a, 5))
    # size 2, 378 subsets, is at most a quarter block and goes whole
    assert tested == [3, 4, 5] and sorted(spans) == tested, (tested, sorted(spans))
    for k, covered in spans.items():
        ends = [0] + [end for _, end in covered]
        assert [first for first, _ in covered] == ends[:-1], (k, covered)
        assert ends[-1] == math.comb(28, k), (k, covered)
    assert len(spans[5]) > 1, spans[5]


@pytest.mark.parametrize("a", [np.eye(28),
                               np.linalg.qr(seeded_rng(3).standard_normal((28, 28)))[0]],
                         ids=["identity", "orthonormal"])
def test_sizes_without_room_never_call_the_test(monkeypatch, a):
    # Every spectrum is 1 up to rounding, so each size's extremes leave the
    # next size no room to prove a spectrum inside them: sizes 3 and 4, above
    # a quarter block, go to eigvalsh whole like size 2.
    tested_rows, tested = rip._tested_rows, []

    def spy(scaled, k, sigma):
        tested.append(k)
        return tested_rows(scaled, k, sigma)

    monkeypatch.setattr(rip, "_tested_rows", spy)
    assert repr(rip._subset_spectra(a, 4)) == repr(_oracle_records(a, 4))
    assert tested == []


def test_top_size_is_not_materialised():
    # No size is held as an index array; each eigvalsh block unranks its
    # own rows. The index array of the C(28, 6) subsets of the top size
    # alone would take C(28, 6) * 6 * 8 bytes, about 18 MB.
    a = _rip_benchmark_matrix()
    tracemalloc.start()
    try:
        rip._subset_spectra(a, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < math.comb(28, 6) * 6 * 8, peak


def test_no_size_below_the_top_is_held_as_indices():
    # The pass holds the pruning test's factor rows of size 5 on both
    # sides, 2 * 5 * C(28, 5) floats (7.5 MiB), one chunk of their
    # operands and a few blocks: 10.75 MiB. The subsets of size 5 as
    # indices, 5 * C(28, 5) * 8 bytes, would add 3.75 MiB.
    a = _rip_benchmark_matrix()
    tracemalloc.start()
    try:
        rip._subset_spectra(a, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, peak / 2 ** 20


def _certified_above(lower: np.ndarray, k: int, sigma) -> np.ndarray:
    """Which symmetric matrices provably have every eigvalsh eigenvalue above sigma.

    The full-factorisation oracle of the pruning test: rip._factor_level
    must certify exactly the subsets whose full Grams this certifies.

    lower is (k(k + 1) / 2, R): column r holds matrix r's lower triangle,
    packed column by column; sigma is a scalar or one value per matrix.
    Both are scaled by 2^-e, with 2^e >= max(1, max |G|) over the Gram
    matrix G that the matrices come from. lower is overwritten with the
    factors of the shifted matrices: each pivot on the diagonal, the
    columns of the Cholesky factor below it.

    Matrix r is certified when the float Cholesky factorisation of
    lower[:, r] - (sigma[r] + _MARGIN) I has every pivot above _MARGIN. In
    these units the backward errors of that factorisation and of eigvalsh
    are O(k^2 eps), far below _MARGIN, so a certified matrix's computed
    lambda_min exceeds sigma by more than _MARGIN / 2. A matrix whose pivot
    fails is replaced by the identity, so no later column of it is divided
    by a pivot near 0.
    """
    diag = np.array([j * k - j * (j - 1) // 2 for j in range(k)])  # rows of the diagonal
    identity = np.zeros(lower.shape[0])
    identity[diag] = 1.0
    lower[diag] -= sigma + rip._MARGIN
    certified = np.ones(lower.shape[1], dtype=bool)
    for j, d in enumerate(diag):
        failed = ~(lower[d] > rip._MARGIN)
        if failed.any():
            certified &= ~failed
            lower[:, failed] = identity[:, None]
        col = lower[d + 1:d + k - j]
        col /= np.sqrt(lower[d])
        for i, t in enumerate(diag[j + 1:]):
            lower[t:t + col.shape[0] - i] -= col[i:] * col[i]
    return certified


def _pack(mats):
    """(R, k, k) symmetric stack -> (k(k + 1) / 2, R) lower triangles, column by column."""
    k = mats.shape[-1]
    return np.stack([mats[:, i, j] for j in range(k) for i in range(j, k)])


@st.composite
def psd_stacks(draw):
    """(R, k, k) stacks X X^T of rank r <= k, some moved off singular by one
    part in 10^12, with entries from subnormal to about 1e150."""
    k, count = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((count, k, draw(st.integers(1, k))))
    mats = x @ x.transpose(0, 2, 1)
    if draw(st.booleans()):
        mats += 1e-12 * rng.standard_normal(mats.shape)
        mats = (mats + mats.transpose(0, 2, 1)) / 2
    return np.ldexp(mats, draw(st.integers(-1060, 496)))


@settings(max_examples=300, deadline=None)
@given(mats=psd_stacks(), pick=st.floats(-0.5, 1.5), side=st.sampled_from(["min", "max"]))
def test_cholesky_certificate_agrees_with_eigvalsh(mats, pick, side):
    # Whatever sigma is, a certified lambda_min > sigma (or lambda_max <
    # sigma, through the negated stack) holds for eigvalsh's eigenvalues,
    # and no step warns: no overflow, and no division by a pivot near 0.
    lam = np.linalg.eigvalsh(mats)
    low, high = lam[:, 0].min(), lam[:, -1].max()
    sigma = low + pick * (high - low)  # from below every spectrum to above
    exp = math.frexp(max(1.0, float(np.abs(mats).max())))[1]
    sign = 1.0 if side == "min" else -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        certified = _certified_above(_pack(np.ldexp(sign * mats, -exp)), mats.shape[-1],
                                         math.ldexp(sign * sigma, -exp))
    if side == "min":
        assert np.all(lam[certified, 0] > sigma)
    else:
        assert np.all(lam[certified, -1] < sigma)


def test_cholesky_certificate_is_not_vacuous():
    eye = np.repeat(np.eye(5)[None], 3, axis=0)
    assert _certified_above(_pack(eye), 5, 0.99).all()
    assert not _certified_above(_pack(eye), 5, 1.0).any()
    assert not _certified_above(_pack(-eye), 5, -1.0).any()
    singular = np.ones((1, 4, 4))  # eigenvalues 0, 0, 0, 4
    assert not _certified_above(_pack(singular), 4, -1e-12).any()
    assert _certified_above(_pack(singular), 4, -1e-6).all()


def _flip(certified, below, above):
    """Adjacent floats s < t between below and above with certified(s) != certified(t)."""
    while True:
        mid = below + (above - below) / 2
        if mid in (below, above):
            return below, above
        if certified(mid) == certified(below):
            below = mid
        else:
            above = mid


def test_prefix_extension_certificate_equals_full_factorisation():
    # The recurrence's certificate of every j-subset, at every level j <= k
    # that it builds, equals _certified_above on the full j x j stacks, bit
    # for bit, on both sides, for every chunk size, and no step warns; the
    # rows _tested_rows leaves at size k are those not certified on both
    # sides. sigma ranges from below every spectrum to above it, and also
    # sits on either side of the float where one k-subset's certificate
    # flips, so a last pivot off by an ulp shows. The examples must reach
    # (k - 1)-prefixes whose pivot failed (stored as _MARGIN) and
    # extensions on both sides of the certificate.
    seen = np.zeros(3, dtype=int)  # failed prefixes, certified and uncertified extensions

    @settings(max_examples=150, deadline=None)
    @given(case=rip_cases(), k=st.integers(2, 5), block=st.sampled_from([1, 7, 32, DEFAULT_BLOCK]),
           picks=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), pick_row=st.integers(0))
    def check(case, k, block, picks, pick_row):
        rip._EIG_BLOCK = block  # restored after the examples
        a = case[0]
        n = a.shape[1]
        if k > n:
            return
        gram = a.T @ a
        exp = math.frexp(max(float(np.abs(gram).max()), 1.0))[1]
        scaled = np.ldexp(gram, -exp)
        levels = [np.array(list(_oracle_colex_subsets(n, j))) for j in range(1, k + 1)]
        packed = [_pack(scaled[level[:, :, None], level[:, None, :]]) for level in levels]
        lam = np.linalg.eigvalsh(scaled[levels[-1][:, :, None], levels[-1][:, None, :]])
        low, high = lam[:, 0].min(), lam[:, -1].max()
        drawn = [low + pick * (high - low) for pick in picks]
        r = pick_row % lam.shape[0]
        flips = [_flip(lambda s: bool(_certified_above(sign * packed[-1][:, r:r + 1], k, s)[0]),
                       sign * lam[r, side] - 1.0, sign * lam[r, side] + 2.0 ** -20)
                 for side, sign in ((0, 1.0), (-1, -1.0))]
        signed = np.stack([scaled, -scaled], axis=1)
        for sigma in ([drawn[0], -drawn[1]], *zip(*flips)):
            sigma = np.array(sigma)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                expected = [_certified_above(np.hstack([small, -small]), j,
                                             np.repeat(sigma, small.shape[1])).reshape(2, -1)
                            for j, small in enumerate(packed, start=1)]
                got = [rip._diagonal_level(scaled, sigma)]
                for _ in range(2, k + 1):
                    got.append(rip._factor_level(signed, got[-1]))
                kept = rip._tested_rows(scaled, k, sigma)
            for j, (level, certified) in enumerate(zip(got, expected), start=1):
                assert level.shape == (j, 2, math.comb(n, j)), (j, level.shape)
                assert np.array_equal(level[-1] > rip._MARGIN, certified), (j, sigma)
            assert np.array_equal(kept, np.flatnonzero(~expected[-1].all(axis=0))), sigma
            seen[:] += [(~expected[-2]).sum(), expected[-1].sum(), (~expected[-1]).sum()]
        # the chunks of size k cover each of its rows once, in order, and each
        # starts at the row of its first p-block
        spans = [(first, math.comb(t, k) + math.comb(p0, k - 1),
                  math.comb(t1, k) + math.comb(p1, k - 1))
                 for first, chunk in rip._chunks(n, k)
                 for (t, p0, _), (t1, _, p1) in [(chunk[0], chunk[-1])]]
        assert [start for _, start, _ in spans] == [0] + [end for *_, end in spans[:-1]], spans
        assert all(first == start for first, start, _ in spans), spans
        assert spans[-1][2] == math.comb(n, k), spans

    with mock.patch.object(rip, "_EIG_BLOCK", DEFAULT_BLOCK):
        check()
    assert np.all(seen > 0), seen


@settings(max_examples=60, deadline=None)
@given(case=rip_cases())
def test_kernel_per_size_extremes_interlace(case):
    # Cauchy interlacing: every k-subset's spectrum lies within the range of
    # some (k+1)-superset's, so the smallest lambda_min can only fall and
    # the largest lambda_max only rise with k (to rounding).
    a, S = case
    records = rip._subset_spectra(a, S)
    assert len(records) == S
    slack = 1e-12 * (1.0 + max(abs(r.lambda_max) for r in records))
    for small, large in zip(records, records[1:]):
        assert large.lambda_min <= small.lambda_min + slack
        assert large.lambda_max >= small.lambda_max - slack
    for k, record in enumerate(records, start=1):
        # the extremal subset of each size attains its size's deviation
        assert len(record.subset) == k
        lam = np.linalg.eigvalsh(a[:, list(record.subset)].T @ a[:, list(record.subset)])
        assert max(1.0 - lam[0], lam[-1] - 1.0) == pytest.approx(record.deviation, abs=slack)


def _counting_kernel(monkeypatch):
    sizes = []
    kernel = rip._subset_spectra

    def counted(a, S):
        sizes.append(S)
        return kernel(a, S)

    monkeypatch.setattr(rip, "_subset_spectra", counted)
    return sizes


def test_recoverability_condition_makes_one_kernel_pass(monkeypatch):
    a = seeded_rng(79).standard_normal((9, 10)) / 3.0
    expected = (rip_delta(a, 2), rip_delta(a, 3))
    sizes = _counting_kernel(monkeypatch)
    check = check_recoverability_condition(a, 1)
    assert sizes == [3]
    assert (repr(check.report_2s), repr(check.report_3s)) == tuple(map(repr, expected))
    assert check.passed == (expected[0].delta + expected[1].delta < 1.0)
    # a bad or over-cap 2S is still reported before any pass: at S = 2 a
    # 6 x 200 matrix (3S = M) has sum(C(200, k), k <= 4) subsets of size <= 2S
    wide = seeded_rng(79).standard_normal((6, 200))
    total = sum(math.comb(200, k) for k in range(1, 5))
    assert total == 66018450 > rip.ENUMERATION_CAP
    with pytest.raises(TooLargeError, match=f"^{total} subsets exceed"):
        check_recoverability_condition(wide, 2)
    assert sizes == [3]


def test_cli_rip_reports_identical_for_one_and_two_threads(tmp_path, monkeypatch):
    balanced = pathlib.Path(__file__).resolve().parent.parent / "problems" / "rip_balanced.json"
    # Every subset of the identity's columns ties, so a level of several
    # blocks stops testing after its first block of prefixes and sends
    # every subset to the worker threads; the balanced matrix's levels may
    # rule subsets out on the calling thread instead.
    tied = tmp_path / "rip_identity.json"
    tied.write_text(json.dumps(dict(json.loads(balanced.read_text()),
                                    operator={"type": "matrix", "data": np.eye(10).tolist()})))
    workers = []
    map_blocks = core._map_blocks

    def spy(fn, starts, count):
        workers.append(count)
        return map_blocks(fn, starts, count)

    monkeypatch.setattr(core, "_map_blocks", spy)
    sizes = _counting_kernel(monkeypatch)
    for problem in (balanced, tied):
        reports = {}
        for block in (7, DEFAULT_BLOCK):
            monkeypatch.setattr(rip, "_EIG_BLOCK", block)
            for threads in ("1", "2"):
                monkeypatch.setenv("LIPREC_THREADS", threads)
                workers.clear()
                out = tmp_path / f"report-{problem.stem}-{block}-{threads}.json"
                assert cli.main(["run", str(problem), "--out", str(out)]) == cli.EXIT_OK
                report = json.loads(out.read_text())
                assert report["metadata"].pop("threads") == int(threads)
                for clock in ("runtime_ms", "timestamp"):
                    report["metadata"].pop(clock)
                reports[block, threads] = json.dumps(report, sort_keys=True)
                if problem == tied:
                    # block 7 splits every size >= 2 into several blocks (C(10, 2) = 45)
                    assert max(workers) == (int(threads) if block == 7 else 1)
        assert len(set(reports.values())) == 1
    # delta_S and delta_2S both come from one pass at 2S
    assert sizes == [4] * 8


def test_cli_rip_checks_2s_before_any_pass(tmp_path, capsys, monkeypatch):
    # S = 3 fits a 5 x 7 matrix but 2S does not: the task used to make the
    # pass at S before it failed.
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"task": "rip", "params": {"S": 3},
                                   "operator": {"type": "matrix",
                                                "data": np.eye(5, 7).tolist()}}))
    sizes = _counting_kernel(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["run", str(problem), "--out", str(out)]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: ParameterError: need 2S <= min(M, N) = 5, got S = 3"]
    assert sizes == []
    assert not out.exists()


def test_criterion_6_makes_one_pass_per_matrix(monkeypatch):
    # seed 0 qualifies: one pass on the unit-column draw, one on its rescaling
    sizes = _counting_kernel(monkeypatch)
    result = acceptance.criterion_6()
    assert result.details["seed"] == 0
    assert sizes == [4, 4]


def test_import_and_single_block_runs_load_no_thread_pool():
    # set-up time is measured end to end: a single-block rip pass and a
    # one-tile evaluate call (500 queries against 3 training points) start
    # no thread, and threaded runs start plain threads, so no run pays for
    # importing a pool module. The threaded rip pass is on the identity,
    # whose tied subsets the pruning test keeps, so a level's blocks go to
    # the worker threads. 2 * 10^5 queries against 30 training points
    # are above the cutoff for threading, and start one thread.
    code = ("import sys, threading, numpy as np, liprec\n"
            "from liprec import core, rip\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda self: (started.append(1), start(self))[1]\n"
            "liprec.rip_delta(np.eye(6), 3)\n"
            "hyp = liprec.fit(liprec.LabeledSet.from_arrays(np.eye(3), np.eye(3)))\n"
            "hyp.evaluate(np.zeros((500, 3)))\n"
            "print(len(started), 'concurrent.futures' in sys.modules)\n"
            "rip._EIG_BLOCK = 7\n"
            "liprec.rip_delta(np.eye(10), 3)\n"
            "print(len(started) > 0, 'concurrent.futures' in sys.modules)\n"
            "threaded = len(started)\n"
            "obs = np.arange(90.0).reshape(30, 3)\n"
            "liprec.fit(liprec.LabeledSet.from_arrays(obs, obs)).evaluate(np.zeros((200000, 3)))\n"
            "print(len(started) - threaded, 'concurrent.futures' in sys.modules)")
    env = dict(os.environ, LIPREC_THREADS="2")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split("\n")[:3] == ["0 False", "True False", "1 False"]


def test_kernel_rejects_invalid_thread_budget(monkeypatch):
    monkeypatch.setenv("LIPREC_THREADS", "0")
    with pytest.raises(ParameterError, match="LIPREC_THREADS must be positive, got 0"):
        rip_delta(np.eye(4), 2)
