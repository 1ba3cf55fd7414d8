"""Rank correlation against closed forms and an independent Pearson-on-ranks
oracle, plus the seeded permutation test."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import purekv.numerics
import purekv.stats
from _oracles import tie_checked_permutation_pvalue, unique_rank
from purekv.errors import ConfigurationError
from purekv.numerics import seeded_gaussian
from purekv.numerics import random_u64
from purekv.stats import (
    _PERM_BLOCK,
    _PERM_TAG,
    _argsort_rows,
    _rank_rows,
    permutation_pvalue,
    permutation_pvalues,
    rank,
    spearman_rho,
)


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

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0, 1e300, float("inf")])
                           | st.floats(-10, 10), min_size=1, max_size=40))
    def test_bit_identical_to_the_unique_oracle(self, values):
        """One stable argsort gives np.unique's average ranks bit for bit, with
        ties, signed zeros and infinities."""
        assert rank(values).tobytes() == unique_rank(np.array(values)).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), n=st.integers(1, 30))
    def test_rows_rank_as_rank_and_rankdata_do(self, data, rows, n):
        """A table's rows ranked at once equal rank row by row, bit for bit, and
        scipy's rankdata, with ties, signed zeros and infinities; a NaN in any
        row is still rejected."""
        scipy_stats = pytest.importorskip("scipy.stats")
        values = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0, float("inf")]) | st.floats(-4, 4)
        table = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                            min_size=rows, max_size=rows), label="table"))
        ranks = _rank_rows(table)
        assert ranks.tobytes() == np.array([rank(row) for row in table]).tobytes()
        np.testing.assert_array_equal(ranks, scipy_stats.rankdata(table, axis=1))
        table[data.draw(st.integers(0, rows - 1), label="row"),
              data.draw(st.integers(0, n - 1), label="column")] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _rank_rows(table)


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


def lone_pvalue(x, y, n_perm, seed):
    """The p-value of one pair of vectors: a one-row table's."""
    ps, _ = permutation_pvalue(np.asarray(x)[None], np.asarray(y)[None], n_perm, seed)
    return float(ps[0])


class TestPermutationPvalue:
    def test_identical_vectors_are_significant(self):
        x = seeded_gaussian(1, 10, seed=42)[0]
        assert lone_pvalue(x, x, n_perm=999, seed=0) <= 0.01

    def test_independent_vectors_fixed_seed_regression(self):
        # Seeded draw verified non-significant on the first oracle run.
        x = seeded_gaussian(1, 12, seed=100)[0]
        y = seeded_gaussian(1, 12, seed=200)[0]
        p = lone_pvalue(x, y, n_perm=999, seed=50)
        assert p > 0.01
        assert p == pytest.approx(0.964, abs=1e-12)

    @pytest.mark.parametrize("n_perm", [100, 129, 313, 999, 2 * _PERM_BLOCK + 1, 4 * _PERM_BLOCK + 57])
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
            assert lone_pvalue(x, y, n_perm, seed) == (1 + count) / (1 + n_perm)

    def test_the_words_of_one_draw_are_distinct_so_the_sort_has_no_ties(self):
        """Counters map to (c + 1) * GOLDEN + seed, a bijection mod 2**64 for odd
        GOLDEN, and the finalizer is inverted here step by step, so no two
        counters of one stream give the same word."""
        def unshift(z, s):  # inverts z ^= z >> s: each pass fixes s more top bits
            x = z.copy()
            for _ in range(64 // s + 1):
                x = z ^ (x >> np.uint64(s))
            return x

        assert int(purekv.numerics._GOLDEN) % 2 == 1
        inverse = {c: np.uint64(pow(int(c), -1, 2**64))
                   for c in (purekv.numerics._MIX1, purekv.numerics._MIX2)}
        for seed in (0, 1, 2**64 - 1):
            words = random_u64(seed, 0, 4096) ^ random_u64(seed + 7, 9, 4096)  # arbitrary inputs
            z = purekv.numerics._finalize(words.copy())
            z = unshift(z, 31)
            z *= inverse[purekv.numerics._MIX2]
            z = unshift(z, 27)
            z *= inverse[purekv.numerics._MIX1]
            np.testing.assert_array_equal(unshift(z, 30), words)
            assert np.unique(random_u64(seed, _PERM_TAG, 64 * 301)).size == 64 * 301

    def test_packed_keys_sort_a_draw_as_argsort_does(self):
        for n in (3, 17, 124, 2044):
            words = random_u64(n, _PERM_TAG, 8 * n).reshape(8, n)
            np.testing.assert_array_equal(_argsort_rows(words), np.argsort(words, axis=1))

    def test_a_false_alarm_across_a_row_boundary_still_sorts_each_row(self):
        """The tie check runs over the flattened block, so one row's largest key
        and the next row's smallest can share high bits with no tie in either
        row; the block is then argsorted, which gives the same permutations."""
        n = 17
        low = np.uint64((1 << (n - 1).bit_length()) - 1)
        words = random_u64(3, _PERM_TAG, 2 * n).reshape(2, n) >> np.uint64(2)
        words[0, np.argmax(words[0])] &= ~low  # row 0's largest word ends in zero bits
        top = words[0].max()
        gaps = np.arange(n, dtype=np.uint64)[::-1] * (low + 1) * np.uint64(2)  # no false alarm
        words[1] = top + np.uint64(1) + gaps  # its smallest word shares top's high bits
        keys = np.sort((words & ~low) | np.arange(n, dtype=np.uint64), axis=1)
        assert (np.diff(keys, axis=1) > low).all()  # no row has a tie
        assert np.diff(keys.ravel()).min() <= low  # but the flattened check alarms
        np.testing.assert_array_equal(_argsort_rows(words), np.argsort(words, axis=1))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), n=st.integers(3, 40))
    def test_words_that_share_high_bits_fall_back_to_argsort(self, data, rows, n):
        """Two words of a row that differ only in the low bits, which the packed
        key gives to the column, sort by column there; the fallback sorts them by
        value. Crafted so that the two orders differ."""
        words = random_u64(data.draw(st.integers(0, 99), label="seed"), 0, rows * n)
        words = words.reshape(rows, n)
        row = data.draw(st.integers(0, rows - 1), label="row")
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
                         .map(sorted), label="columns")
        low = (1 << (n - 1).bit_length()) - 1
        words[row, i] |= np.uint64(low)  # column i now holds the larger word
        words[row, j] = words[row, i] & ~np.uint64(low)  # and column j the smaller, same high bits
        packed = np.argsort((words & ~np.uint64(low)) | np.arange(n, dtype=np.uint64), axis=1)
        want = np.argsort(words, axis=1)
        assert not np.array_equal(packed, want)  # the packed keys alone would get the row wrong
        np.testing.assert_array_equal(_argsort_rows(words), want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), n=st.integers(3, 40),
           n_perm=st.sampled_from([100, 2 * _PERM_BLOCK + 1, 4 * _PERM_BLOCK]),
           seed=st.integers(0, 2**32))
    def test_bit_identical_to_the_tie_checked_oracle(self, data, rows, n, n_perm, seed):
        def row(label):
            values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label=label)
            assume(len(set(values)) > 1)  # a constant ranking has no correlation
            return values

        x = np.array([row(f"x{p}") for p in range(rows)], dtype=np.float64)
        y = np.array([row(f"y{p}") for p in range(rows)], dtype=np.float64)
        ps, rhos = permutation_pvalue(x, y, n_perm, seed)
        want_ps, want_rhos = tie_checked_permutation_pvalue(x, y, n_perm, seed)
        assert ps.tolist() == want_ps.tolist() and rhos.tolist() == want_rhos.tolist()

    def test_add_one_floor(self):
        x = seeded_gaussian(1, 10, seed=42)[0]
        p = lone_pvalue(x, x, n_perm=100, seed=0)
        assert p >= 1 / 101

    def test_deterministic_given_seed(self):
        x = seeded_gaussian(1, 15, seed=7)[0]
        y = seeded_gaussian(1, 15, seed=8)[0]
        a = lone_pvalue(x, y, n_perm=500, seed=9)
        b = lone_pvalue(x, y, n_perm=500, seed=9)
        assert a == b
        c = lone_pvalue(x, y, n_perm=500, seed=10)
        assert a != c  # different permutation stream

    def test_preconditions(self):
        x = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ConfigurationError):
            permutation_pvalue(x, x, n_perm=99, seed=0)
        with pytest.raises(ConfigurationError):
            permutation_pvalue(x[:, :2], x[:, :2], n_perm=100, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), n=st.integers(3, 40),
           n_perm=st.sampled_from([100, 2 * _PERM_BLOCK + 1, 3 * _PERM_BLOCK - 5,
                                   4 * _PERM_BLOCK]),
           seed=st.integers(0, 2**32))
    def test_a_batch_equals_one_call_per_row(self, data, rows, n, n_perm, seed):
        """Row p of a (P, n) call is bit-identical to a one-row call on row p,
        for partial last blocks, and its rho is row p's spearman_rho, bit for bit."""
        def row(label):
            values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label=label)
            assume(len(set(values)) > 1)  # a constant ranking has no correlation
            return values

        x = np.array([row(f"x{p}") for p in range(rows)], dtype=np.float64)
        y = np.array([row(f"y{p}") for p in range(rows)], dtype=np.float64)
        ps, rhos = permutation_pvalue(x, y, n_perm, seed)
        lone = [permutation_pvalue(x[p:p + 1], y[p:p + 1], n_perm, seed) for p in range(rows)]
        assert ps.shape == rhos.shape == (rows,)
        assert all(p.shape == rho.shape == (1,) for p, rho in lone)
        assert ps.tolist() == [p[0] for p, _ in lone]
        assert rhos.tolist() == [rho[0] for _, rho in lone]
        assert rhos.tolist() == [spearman_rho(x[p], y[p]) for p in range(rows)]

    def test_batch_preconditions(self):
        x = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        for bad_x, bad_y in ((x, x[:1]), (x[:0], x[:0]), (x[None], x[None]), (x[0], x),
                             (x[0], x[0])):  # an (n,) vector is not a table
            with pytest.raises(ConfigurationError, match="equal-shape"):
                permutation_pvalue(bad_x, bad_y, n_perm=100, seed=0)
        with pytest.raises(ConfigurationError, match="n >= 3"):
            permutation_pvalue(x[:, :2], x[:, :2], n_perm=100, seed=0)
        constant = np.array([x[0], [2.0, 2.0, 2.0]])
        with pytest.raises(ValueError, match="undefined"):
            permutation_pvalue(constant, x, n_perm=100, seed=0)


def tables_of(widths, rows, seed):
    """(x, y) tables of the given widths with heavy ties and no constant row."""
    rng = np.random.default_rng(seed)
    tables = []
    for n, p in zip(widths, rows):
        x, y = (rng.integers(-3, 4, size=(p, n)).astype(np.float64) for _ in range(2))
        x[:, :2] = y[:, :2] = (-4.0, 4.0)
        tables.append((x, y))
    return tables


class TestSeveralTables:
    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(3, 40) | st.sampled_from([3, 500]), min_size=1,
                           max_size=4),
           data=st.data(), n_perm=st.integers(100, 400), seed=st.integers(0, 2**32))
    def test_equals_one_call_per_table(self, widths, data, n_perm, seed):
        """Each table's (p, rho) equals a call on it alone, bit for bit, for
        equal widths, widths far apart and partial last blocks."""
        rows = data.draw(st.lists(st.integers(1, 3), min_size=len(widths),
                                  max_size=len(widths)), label="rows")
        tables = tables_of(widths, rows, seed)
        together = permutation_pvalues(tables, n_perm, seed)
        assert len(together) == len(tables)
        for (x, y), (ps, rhos) in zip(tables, together):
            want_ps, want_rhos = permutation_pvalue(x, y, n_perm, seed)
            assert ps.tolist() == want_ps.tolist() and rhos.tolist() == want_rhos.tolist()

    def test_widths_far_apart(self):
        tables = tables_of([3, 500, 3, 17], [2, 1, 1, 3], seed=5)
        together = permutation_pvalues(tables, 999, 6)
        for (x, y), (ps, rhos) in zip(tables, together):
            assert ps.tolist() == permutation_pvalue(x, y, 999, 6)[0].tolist()
            assert ps.tolist() == tie_checked_permutation_pvalue(x, y, 999, 6)[0].tolist()
            assert rhos.tolist() == [spearman_rho(a, b) for a, b in zip(x, y)]

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(3, 300) | st.sampled_from([3, 500]), min_size=1,
                           max_size=5),
           n_perm=st.integers(100, 4 * _PERM_BLOCK + 1))
    def test_no_block_draws_more_words_than_separate_draws(self, widths, n_perm):
        """Each block sorts every distinct width once, and draws at most
        block * sum(n) words over its distinct widths n, what one draw per width
        would; the first block, where every width's range starts at word 0,
        draws only the widest one's."""
        events = []
        real_draw, real_sort = purekv.stats.random_u64, purekv.stats._argsort_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(purekv.stats, "random_u64", lambda seed, start, count:
                          events.append(count) or real_draw(seed, start, count))
            patch.setattr(purekv.stats, "_argsort_rows", lambda words:
                          events.append(None) or real_sort(words))
            permutation_pvalues(tables_of(widths, [1] * len(widths), 7), n_perm, 8)
        distinct = set(widths)
        blocks = []  # words drawn per block; a block ends after its len(distinct) sorts
        drawn = sorts = 0
        for count in events:
            if count is None:
                sorts += 1
                if sorts == len(distinct):
                    blocks.append(drawn)
                    drawn = sorts = 0
            else:
                drawn += count
        assert drawn == sorts == 0
        sizes = [min(_PERM_BLOCK, n_perm - first) for first in range(0, n_perm, _PERM_BLOCK)]
        assert len(blocks) == len(sizes)
        assert blocks[0] == sizes[0] * max(distinct)
        for words, block in zip(blocks, sizes):
            assert words <= block * sum(distinct)

    def test_a_bad_table_among_good_ones_is_rejected_with_its_message(self):
        good = (np.array([[1.0, 2.0, 3.0]]), np.array([[3.0, 1.0, 2.0]]))
        with pytest.raises(ConfigurationError, match="n_perm must be >= 100"):
            permutation_pvalues([good], 99, 0)
        for bad, error, message in (
                ((good[0], good[0][:, :2]), ConfigurationError, "equal-shape"),
                ((good[0][:, :2], good[0][:, :2]), ConfigurationError, "n >= 3"),
                ((good[0], np.array([[2.0, 2.0, 2.0]])), ValueError, "undefined"),
                ((good[0], np.array([[2.0, np.nan, 2.0]])), ValueError, "NaN")):
            with pytest.raises(error, match=message):
                permutation_pvalues([good, bad], 100, 0)
        assert permutation_pvalues([], 100, 0) == []
