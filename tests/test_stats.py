"""Rank correlation against closed forms and an independent Pearson-on-ranks
oracle, plus the seeded permutation test."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import purekv.stats
from purekv.errors import ConfigurationError
from purekv.numerics import seeded_gaussian
from purekv.numerics import random_u64
from purekv.stats import _PERM_BLOCK, _PERM_TAG, permutation_pvalue, rank, spearman_rho


def oracle_rank(values):
    """Average ranks via explicit sorted-position bookkeeping."""
    n = len(values)
    order = sorted(range(n), key=lambda i: (values[i], i))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j < n and values[order[j]] == values[order[i]]:
            j += 1
        avg = (i + 1 + j) / 2.0
        for idx in order[i:j]:
            ranks[idx] = avg
        i = j
    return ranks


def oracle_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


class TestRank:
    def test_permutation_case(self):
        np.testing.assert_array_equal(rank([10.0, 30.0, 20.0]), [1.0, 3.0, 2.0])

    def test_average_rank_ties(self):
        np.testing.assert_array_equal(rank([5.0, 5.0, 1.0]), [2.5, 2.5, 1.0])

    def test_full_tie(self):
        np.testing.assert_array_equal(rank([2.0, 2.0, 2.0]), [2.0, 2.0, 2.0])

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            values = rng.integers(0, 5, size=n).astype(float)
            assert rank(values).sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rank([1.0, float("nan")])


class TestSpearmanRho:
    def test_perfect_agreement(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman_rho(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_disagreement(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rho(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case_point_six(self):
        # d = (1, 1, 1, 1): 1 - 6*4 / (4*15) = 0.6
        rho = spearman_rho([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0])
        assert rho == pytest.approx(0.6, abs=1e-12)

    def test_matches_classic_formula_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            d = rank(x) - rank(y)
            classic = 1 - 6 * float(d @ d) / (n * (n * n - 1))
            assert spearman_rho(x, y) == pytest.approx(classic, abs=1e-12)

    def test_tie_aware_matches_pearson_on_ranks_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(4, 25))
            x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 6, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            np.testing.assert_array_equal(rank(x), oracle_rank(list(x)))
            expected = oracle_pearson(oracle_rank(list(x)), oracle_rank(list(y)))
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_spearmanr_with_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            y = np.round(rng.standard_normal(n), 1)  # a few ties
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = scipy_stats.spearmanr(x, y).statistic
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)
            np.testing.assert_array_equal(rank(x), scipy_stats.rankdata(x))
            np.testing.assert_array_equal(rank(y), scipy_stats.rankdata(y))
            checked += 1
        assert checked > 150
        signed_zeros = np.array([0.0, -0.0, 1.0, -0.0, -1.0])  # -0.0 == 0.0: one tie
        np.testing.assert_array_equal(rank(signed_zeros), [3.0, 3.0, 5.0, 3.0, 1.0])
        np.testing.assert_array_equal(rank(signed_zeros), scipy_stats.rankdata(signed_zeros))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        base = spearman_rho(x, y)
        assert spearman_rho(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(x, 3.0 * y + 11.0) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(np.exp(x), 3.0 * y + 11.0) == pytest.approx(base, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 4, size=15).astype(float)
        y = rng.integers(0, 4, size=15).astype(float)
        assert spearman_rho(x, y) == spearman_rho(y, x)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.integers(0, 3, size=12).astype(float)
            y = rng.integers(0, 3, size=12).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert abs(spearman_rho(x, y)) <= 1.0 + 1e-12

    def test_error_cases(self):
        with pytest.raises(ConfigurationError):
            spearman_rho([1.0], [2.0])
        with pytest.raises(ConfigurationError):
            spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="undefined"):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestPermutationPvalue:
    def test_identical_vectors_are_significant(self):
        x = seeded_gaussian(1, 10, seed=42)[0]
        assert permutation_pvalue(x, x, n_perm=999, seed=0) <= 0.01

    def test_independent_vectors_fixed_seed_regression(self):
        # Seeded draw verified non-significant on the first oracle run.
        x = seeded_gaussian(1, 12, seed=100)[0]
        y = seeded_gaussian(1, 12, seed=200)[0]
        p = permutation_pvalue(x, y, n_perm=999, seed=50)
        assert p > 0.01
        assert p == pytest.approx(0.964, abs=1e-12)

    @pytest.mark.parametrize("n_perm", [100, 2 * _PERM_BLOCK + 1, 4 * _PERM_BLOCK + 57, 999])
    def test_blocks_match_the_whole_matrix_formula(self, n_perm):
        assert n_perm % _PERM_BLOCK
        for n, seed in ((3, 1), (17, 2), (64, 3), (301, 4)):
            x = np.round(seeded_gaussian(1, n, seed=60 + seed)[0], 1)  # some ties
            y = x + 2.0 * seeded_gaussian(1, n, seed=70 + seed)[0]
            rx, ry = rank(x), rank(y)
            rxc, ryc = rx - rx.mean(), ry - ry.mean()
            norm = np.sqrt((rxc * rxc).sum() * (ryc * ryc).sum())
            observed = float((rxc * ryc).sum() / norm)
            words = random_u64(seed, _PERM_TAG, n_perm * n).reshape(n_perm, n)
            idx = np.argsort(words, axis=1, kind="stable")
            count = int(((ryc[idx] @ rxc) / norm >= observed).sum())
            assert permutation_pvalue(x, y, n_perm, seed) == (1 + count) / (1 + n_perm)

    def test_tied_words_fall_back_to_the_stable_order(self, monkeypatch):
        # Distinct words sort to one permutation under any sort kind; only
        # tied words make the kind matter, and they must keep stable order.
        real = purekv.stats.random_u64

        def tied(seed, start, count):
            return real(seed, start, count) >> np.uint64(60)  # 16 values: ties in every row

        monkeypatch.setattr(purekv.stats, "random_u64", tied)
        n, n_perm, seed = 40, 2 * _PERM_BLOCK + 7, 5
        x = seeded_gaussian(1, n, seed=80)[0]
        y = seeded_gaussian(1, n, seed=81)[0]
        words = tied(seed, _PERM_TAG, n_perm * n).reshape(n_perm, n)
        rx, ry = rank(x), rank(y)
        rxc, ryc = rx - rx.mean(), ry - ry.mean()
        norm = np.sqrt((rxc * rxc).sum() * (ryc * ryc).sum())
        observed = float((rxc * ryc).sum() / norm)

        def count(kind):
            idx = np.argsort(words, axis=1, kind=kind)
            return int(((ryc[idx] @ rxc) / norm >= observed).sum())

        assert count(None) != count("stable")  # the sort kind changes the answer here
        assert permutation_pvalue(x, y, n_perm, seed) == (1 + count("stable")) / (1 + n_perm)

    def test_add_one_floor(self):
        x = seeded_gaussian(1, 10, seed=42)[0]
        p = permutation_pvalue(x, x, n_perm=100, seed=0)
        assert p >= 1 / 101

    def test_deterministic_given_seed(self):
        x = seeded_gaussian(1, 15, seed=7)[0]
        y = seeded_gaussian(1, 15, seed=8)[0]
        a = permutation_pvalue(x, y, n_perm=500, seed=9)
        b = permutation_pvalue(x, y, n_perm=500, seed=9)
        assert a == b
        c = permutation_pvalue(x, y, n_perm=500, seed=10)
        assert a != c  # different permutation stream

    def test_preconditions(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            permutation_pvalue(x, x, n_perm=99, seed=0)
        with pytest.raises(ConfigurationError):
            permutation_pvalue(x[:2], x[:2], n_perm=100, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), n=st.integers(3, 40),
           n_perm=st.sampled_from([100, 2 * _PERM_BLOCK + 1, 3 * _PERM_BLOCK - 5,
                                   4 * _PERM_BLOCK]),
           seed=st.integers(0, 2**32), tied_words=st.booleans())
    def test_a_batch_equals_one_call_per_row(self, data, rows, n, n_perm, seed, tied_words):
        """Row p of a (P, n) call is bit-identical to a lone call on row p,
        for partial last blocks and for words that need the stable sort."""
        def row(label):
            values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label=label)
            assume(len(set(values)) > 1)  # a constant ranking has no correlation
            return values

        x = np.array([row(f"x{p}") for p in range(rows)], dtype=np.float64)
        y = np.array([row(f"y{p}") for p in range(rows)], dtype=np.float64)
        real = purekv.stats.random_u64

        def few_words(seed, start, count):
            return real(seed, start, count) >> np.uint64(62)  # 4 values: n >= 5 ties

        with mock.patch.object(purekv.stats, "random_u64", few_words if tied_words else real):
            batch = permutation_pvalue(x, y, n_perm, seed)
            lone = [permutation_pvalue(x[p], y[p], n_perm, seed) for p in range(rows)]
        assert isinstance(batch, np.ndarray) and batch.shape == (rows,)
        assert all(isinstance(p, float) for p in lone)
        assert batch.tolist() == lone

    def test_batch_preconditions(self):
        x = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        for bad_x, bad_y in ((x, x[:1]), (x[:0], x[:0]), (x[None], x[None]), (x[0], x)):
            with pytest.raises(ConfigurationError, match="equal-shape"):
                permutation_pvalue(bad_x, bad_y, n_perm=100, seed=0)
        with pytest.raises(ConfigurationError, match="n >= 3"):
            permutation_pvalue(x[:, :2], x[:, :2], n_perm=100, seed=0)
