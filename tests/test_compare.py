"""Tests for count matrices, HPD regions, overlap, bootstrap CIs, and
sample-file loading."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bayesbag import compare
from bayesbag.compare import (
    count_matrices,
    hpd_overlap,
    hpd_region,
    load_posterior_samples,
    overlap_ci,
)
from bayesbag.errors import (
    IngestionError,
    InsufficientReplicatesError,
    InvalidArgumentError,
    ResourceLimitError,
)


def region(counts, level):
    """The HPD region's items and its mass for one file's draw counts."""
    items, totals, _ = count_matrices([counts], [counts])
    mask, mass = hpd_region(totals[0], level)
    return {item for item, inside in zip(items, mask) if inside}, float(mass)


def overlap(a, b, level):
    """``hpd_overlap`` of two one-file sides, as plain numbers."""
    _, totals_a, totals_b = count_matrices([a], [b])
    return tuple(value.item() for value in hpd_overlap(totals_a[0], totals_b[0], level))


def multinomial(rng, names, probs, draws=1000):
    """Draw counts of ``draws`` draws with these probabilities."""
    return dict(zip(names, rng.multinomial(draws, probs)))


def exact_rounds(files_a, files_b, level, n_boot, seed):
    """``mass_avg`` of each bootstrap round in exact arithmetic: files are
    averaged as Fractions, and the rounds draw from the stream ``overlap_ci``
    documents (side a's files, then side b's, round by round)."""
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(n_boot):
        posteriors = []
        for files in (files_a, files_b):
            average = Counter()
            for j in rng.integers(0, len(files), size=len(files)):
                total = sum(files[j].values())
                for item, count in files[j].items():
                    average[item] += Fraction(count, total * len(files))
            posteriors.append(average)
        regions = []
        for post in posteriors:
            chosen, mass = set(), Fraction(0)
            for item in sorted(post, key=lambda item: (-post[item], item)):
                chosen.add(item)
                mass += post[item]
                if mass >= Fraction(level):
                    break
            regions.append(chosen)
        common = regions[0] & regions[1]
        stats.append(sum((post[item] for post in posteriors for item in common), Fraction(0)) / 2)
    return stats


class TestCountMatrices:
    def test_union_support(self):
        # an equal-weight average is the column sum over the side's common total
        items, a, b = count_matrices([{"a": 1, "b": 1}, {"b": 1, "c": 3}], [{"d": 2}])
        assert items == ["a", "b", "c", "d"]
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, [[2, 2, 0, 0], [0, 1, 3, 0]])
        np.testing.assert_array_equal(a.sum(0) / a.sum(), [0.25, 0.375, 0.375, 0.0])
        np.testing.assert_array_equal(b, [[0, 0, 0, 2]])

    def test_rows_scaled_to_common_total(self):
        items, a, _ = count_matrices([{"b": 3, "a": 1}, {"b": 2, "c": 4}], [{"a": 1}])
        assert items == ["a", "b", "c"]
        np.testing.assert_array_equal(a, [[3, 9, 0], [0, 4, 8]])  # lcm(4, 6) = 12

    def test_validation(self):
        for bad in ({"a": -1, "b": 2}, {"a": 0.5, "b": 0.5}, {"a": 0}):
            with pytest.raises(InvalidArgumentError):
                count_matrices([bad], [{"a": 1}])
        with pytest.raises(InvalidArgumentError, match="side b"):
            count_matrices([{"a": 1}], [])

    def test_totals_too_unequal_are_refused(self):
        # 20 files of 1,000-1,019 draws have an lcm far beyond 2^53 / 20
        unequal = [{"t1": 500, "t2": 500 + k} for k in range(20)]
        with pytest.raises(ResourceLimitError, match=r"side a: 20 files with draw totals \[1000, 1001, "
                                                     r".*same number of draws"):
            count_matrices(unequal, [{"t1": 1}])
        _, a, _ = count_matrices([{"t1": 500, "t2": 500}] * 20, [{"t1": 1}])
        assert (a.sum(1) == 1000).all()


class TestHpdRegion:
    def test_point_mass(self):
        assert region({"only": 7}, 0.99) == ({"only"}, 1.0)

    def test_uniform_four_items(self):
        chosen, mass = region(dict.fromkeys("abcd", 5), 0.5)
        assert len(chosen) == 2 and mass == 0.5

    def test_greedy_accumulation(self):
        assert region({"a": 10, "b": 6, "c": 3, "d": 1}, 0.9) == ({"a", "b", "c"}, 0.95)

    def test_nested_and_monotone_across_levels(self):
        rng = np.random.default_rng(0)
        counts = multinomial(rng, [f"i{k}" for k in range(12)], rng.dirichlet(np.ones(12)))
        previous_set: set = set()
        previous_mass = 0.0
        for level in np.linspace(0.05, 1.0, 20):
            chosen, mass = region(counts, level)
            assert previous_set.issubset(chosen)
            assert mass >= previous_mass
            previous_set, previous_mass = chosen, mass

    def test_ties_broken_by_identifier(self):
        assert region({"z": 1, "a": 1, "m": 1}, 0.5)[0] == {"a", "m"}

    def test_rows_are_regions_of_their_own(self):
        totals = np.array([[5, 3, 2], [2, 3, 5], [1, 1, 1]])
        masks, masses = hpd_region(totals, 0.6)
        for row, mask, mass in zip(totals, masks, masses):
            np.testing.assert_array_equal(hpd_region(row, 0.6)[0], mask)
            assert hpd_region(row, 0.6)[1] == mass
        np.testing.assert_array_equal(masks, [[1, 1, 0], [0, 1, 1], [1, 1, 0]])

    def test_totals_domain(self):
        for totals in ([1, -1, 2], [0, 0], [1, np.nan], [np.inf, 1], [[1, 1], [0, 0]]):
            with pytest.raises(InvalidArgumentError):
                hpd_region(totals, 0.5)

    def test_level_domain(self):
        for level in (0.0, 1.5, float("nan")):
            with pytest.raises(InvalidArgumentError):
                hpd_region([1, 1], level)


class TestHpdOverlap:
    def test_identical_posteriors(self):
        p = {"a": 6, "b": 3, "c": 1}
        chosen, mass = region(p, 0.85)
        assert overlap(p, p, 0.85) == (mass, mass, mass, len(chosen))

    def test_disjoint_supports(self):
        assert overlap({"a": 1, "b": 1}, {"c": 1, "d": 1}, 0.99) == (0.0, 0.0, 0.0, 0)

    def test_partial_overlap(self):
        assert overlap({1: 1, 2: 1}, {2: 1, 3: 1}, 0.99) == (0.5, 0.5, 0.5, 1)

    def test_symmetry(self):
        a = {"a": 4, "b": 3, "c": 2, "d": 1}
        b = {"b": 1, "c": 2, "d": 3, "e": 4}
        fwd, rev = overlap(a, b, 0.9), overlap(b, a, 0.9)
        assert fwd[:2] == rev[1::-1] and fwd[3] == rev[3]

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = multinomial(rng, [f"a{k}" for k in range(6)], rng.dirichlet(np.ones(6)))
            b = multinomial(rng, [f"a{k}" for k in range(3, 9)], rng.dirichlet(np.ones(6)))
            mass_a, mass_b, mass_avg, count = overlap(a, b, 0.8)
            assert 0.0 <= mass_avg <= 1.0
            assert count <= min(len(region(a, 0.8)[0]), len(region(b, 0.8)[0]))


class TestOverlapCi:
    def test_identical_replicates_degenerate(self):
        _, a, b = count_matrices([{"a": 7, "b": 3}] * 3, [{"a": 6, "c": 4}])
        point = hpd_overlap(a.sum(0), b.sum(0), 0.99).mass_avg
        lo, hi = overlap_ci(a, b, 0.99, n_boot=200, seed=0)
        assert lo == pytest.approx(point)
        assert hi == pytest.approx(point)

    def test_alternating_replicates_span_half(self):
        # replicates alternate between point masses that overlap the fixed
        # posterior fully and not at all; the statistic is a scaled mean of
        # Bernoullis, (p + 0.5)/2 with p the resampled overlap fraction, so
        # the interval straddles its center 0.5
        _, a, b = count_matrices([{"a": 1}, {"c": 1}] * 10, [{"a": 1, "d": 1}])
        lo, hi = overlap_ci(a, b, 0.99, n_boot=500, seed=1)
        assert lo < 0.5 < hi
        assert hi - lo > 0.05

    def test_width_shrinks_with_replicates(self):
        def synth(n_reps, seed):
            rng = np.random.default_rng(seed)
            files = [{"a": a, "b": 1000 - a} for a in rng.binomial(1000, rng.uniform(0.3, 0.9, size=n_reps))]
            return count_matrices(files, [{"a": 700, "c": 300}])[1:]

        ratios = []
        for seed in range(10):
            lo1, hi1 = overlap_ci(*synth(20, seed), 0.99, n_boot=400, seed=seed)
            lo2, hi2 = overlap_ci(*synth(40, 100 + seed), 0.99, n_boot=400, seed=seed)
            ratios.append((hi1 - lo1) / (hi2 - lo2))
        assert 1.1 <= np.mean(ratios) <= 1.9  # CLT predicts sqrt(2) ~ 1.41

    def test_coverage_against_enumerated_truth(self):
        # smooth synthetic replicates with known mixing distribution; the
        # interval should cover the infinite-replicate overlap at roughly
        # its nominal 80% rate: the averaged posterior (0.5, 0.3, 0.2) on
        # x, y, z keeps all three at level 0.99, the fixed one keeps x and y,
        # so the overlap is (0.8 + 1) / 2
        exact = 0.9
        hits = 0
        point_hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            reps = [multinomial(rng, "xyz", row) for row in rng.dirichlet((5.0, 3.0, 2.0), size=100)]
            _, a, b = count_matrices(reps, [{"x": 1, "y": 1}])
            lo, hi = overlap_ci(a, b, 0.99, n_boot=500, ci_level=0.8, seed=seed)
            hits += lo - 1e-12 <= exact <= hi + 1e-12
            point = hpd_overlap(a.sum(0), b.sum(0), 0.99).mass_avg
            point_hits += lo - 1e-12 <= point <= hi + 1e-12
        assert hits >= 15  # 75% of 20 seeds
        assert point_hits >= 19  # the interval should bracket its own point estimate

    @pytest.mark.parametrize("files_b", [4, 1])
    def test_every_round_matches_exact_arithmetic(self, files_b):
        # unequal draw totals over few topologies make exact ties common;
        # float averaging breaks them by rounding
        rng = np.random.default_rng(7)
        names = [f"t{k}" for k in range(6)]
        side_a = [multinomial(rng, names, np.full(6, 1 / 6), n) for n in rng.choice([10, 12, 15], 8)]
        side_b = [multinomial(rng, names, np.full(6, 1 / 6), 10) for _ in range(files_b)]
        _, a, b = count_matrices(side_a, side_b)
        stats = compare._round_stats(a.astype(float), b.astype(float), 0.5, 400, 3)
        exact = exact_rounds(side_a, side_b, 0.5, 400, 3)
        np.testing.assert_allclose(stats, [float(value) for value in exact], rtol=0, atol=1e-15)

    def test_blocks_do_not_change_round_stats(self, monkeypatch):
        rng = np.random.default_rng(5)
        names = [f"t{k}" for k in range(40)]
        _, a, b = count_matrices([multinomial(rng, names, np.full(40, 1 / 40), 50) for _ in range(5)],
                                 [multinomial(rng, names, np.full(40, 1 / 40), 50) for _ in range(3)])
        a, b = a.astype(float), b.astype(float)
        one_block = compare._round_stats(a, b, 0.7, 300, 9)
        monkeypatch.setattr(compare, "BLOCK_FLOATS", 1)  # one round per block
        np.testing.assert_array_equal(compare._round_stats(a, b, 0.7, 300, 9), one_block)

    def test_guards(self):
        _, a, b = count_matrices([{"a": 1, "b": 1}] * 2, [{"a": 1, "b": 1}])
        with pytest.raises(InsufficientReplicatesError):
            overlap_ci(a[:1], b, 0.99)
        with pytest.raises(InvalidArgumentError):
            overlap_ci(a, b, 0.99, n_boot=10)
        with pytest.raises(InvalidArgumentError):
            overlap_ci(a, b[:, :1], 0.99)


class TestLoadPosteriorSamples:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("t1\nt2\nt1\n\nt1\n", encoding="utf-8")
        assert load_posterior_samples(path) == Counter({"t1": 3, "t2": 1})

    def test_splits_at_line_ends_only(self, tmp_path):
        # U+0085, U+2028, \x0b, \x0c and \x1c-\x1e end a line for
        # str.splitlines but belong to an identifier here
        path = tmp_path / "samples.txt"
        path.write_bytes("a\x85b\r\nc\u2028d\re\x0bf\x0cg\x1ch\x1di\x1ej\na\x85b\n".encode())
        assert load_posterior_samples(path) == Counter(
            {"a\x85b": 2, "c\u2028d": 1, "e\x0bf\x0cg\x1ch\x1di\x1ej": 1})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(IngestionError):
            load_posterior_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_posterior_samples(tmp_path / "nope.txt")
