"""Tests for HPD regions, overlap, bootstrap CIs, and sample-file loading."""

import numpy as np
import pytest

from bayesbag.compare import (
    DiscretePosterior,
    average_posteriors,
    hpd_overlap,
    hpd_region,
    load_posterior_samples,
    overlap_ci,
)
from bayesbag.errors import (
    IngestionError,
    InsufficientReplicatesError,
    InvalidArgumentError,
)


def post(items, probs):
    return DiscretePosterior(items=tuple(items), probs=np.asarray(probs, dtype=float))


class TestDiscretePosterior:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            post(["a", "a"], [0.5, 0.5])
        with pytest.raises(InvalidArgumentError):
            post(["a", "b"], [0.6, 0.6])
        with pytest.raises(InvalidArgumentError):
            post(["a", "b"], [-0.1, 1.1])

    def test_from_counts(self):
        p = DiscretePosterior.from_counts({"b": 3, "a": 1})
        assert p.items == ("a", "b")
        np.testing.assert_allclose(p.probs, [0.25, 0.75])


class TestHpdRegion:
    def test_point_mass(self):
        region, mass = hpd_region(post(["only"], [1.0]), 0.99)
        assert region == ["only"] and mass == 1.0

    def test_uniform_four_items(self):
        region, mass = hpd_region(post("abcd", [0.25] * 4), 0.5)
        assert len(region) == 2
        assert abs(mass - 0.5) < 1e-12

    def test_greedy_accumulation(self):
        region, mass = hpd_region(post("abcd", [0.5, 0.3, 0.15, 0.05]), 0.9)
        assert region == ["a", "b", "c"]
        assert abs(mass - 0.95) < 1e-12

    def test_nested_and_monotone_across_levels(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(12))
        p = post([f"i{k}" for k in range(12)], probs)
        previous_set: set = set()
        previous_mass = 0.0
        for level in np.linspace(0.05, 1.0, 20):
            region, mass = hpd_region(p, level)
            assert previous_set.issubset(set(region))
            assert mass >= previous_mass - 1e-12
            previous_set, previous_mass = set(region), mass

    def test_ties_broken_by_identifier(self):
        region, _ = hpd_region(post(["z", "a", "m"], [1 / 3] * 3), 0.5)
        assert region == ["a", "m"]

    def test_level_domain(self):
        with pytest.raises(InvalidArgumentError):
            hpd_region(post("ab", [0.5, 0.5]), 0.0)


class TestHpdOverlap:
    def test_identical_posteriors(self):
        p = post("abc", [0.6, 0.3, 0.1])
        result = hpd_overlap(p, p, 0.85)
        region, mass = hpd_region(p, 0.85)
        assert result.mass_avg == pytest.approx(mass)
        assert result.count == len(region)

    def test_disjoint_supports(self):
        result = hpd_overlap(post("ab", [0.5, 0.5]), post("cd", [0.5, 0.5]), 0.99)
        assert result == (0.0, 0.0, 0.0, 0)

    def test_partial_overlap(self):
        result = hpd_overlap(post([1, 2], [0.5, 0.5]), post([2, 3], [0.5, 0.5]), 0.99)
        assert result.mass_a == pytest.approx(0.5)
        assert result.mass_b == pytest.approx(0.5)
        assert result.count == 1

    def test_symmetry(self):
        a = post("abcd", [0.4, 0.3, 0.2, 0.1])
        b = post("bcde", [0.1, 0.2, 0.3, 0.4])
        fwd = hpd_overlap(a, b, 0.9)
        rev = hpd_overlap(b, a, 0.9)
        assert fwd.mass_a == rev.mass_b and fwd.mass_b == rev.mass_a
        assert fwd.count == rev.count

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = post([f"a{k}" for k in range(6)], rng.dirichlet(np.ones(6)))
            b = post([f"a{k}" for k in range(3, 9)], rng.dirichlet(np.ones(6)))
            result = hpd_overlap(a, b, 0.8)
            assert 0.0 <= result.mass_avg <= 1.0
            assert result.count <= min(
                len(hpd_region(a, 0.8)[0]), len(hpd_region(b, 0.8)[0])
            )


class TestAveragePosteriors:
    def test_union_support(self):
        avg = average_posteriors([post("ab", [0.5, 0.5]), post("bc", [0.25, 0.75])])
        assert avg.items == ("a", "b", "c")
        np.testing.assert_allclose(avg.probs, [0.25, 0.375, 0.375])


class TestOverlapCi:
    def test_identical_replicates_degenerate(self):
        p = post("ab", [0.7, 0.3])
        fixed = post("ac", [0.6, 0.4])
        point = hpd_overlap(p, fixed, 0.99).mass_avg
        lo, hi = overlap_ci([p, p, p], [fixed], 0.99, n_boot=200, seed=0)
        assert lo == pytest.approx(point)
        assert hi == pytest.approx(point)

    def test_alternating_replicates_span_half(self):
        # replicates alternate between point masses that overlap the fixed
        # posterior fully and not at all; the statistic is a scaled mean of
        # Bernoullis, (p + 0.5)/2 with p the resampled overlap fraction, so
        # the interval straddles its center 0.5
        yes = post(["a"], [1.0])
        no = post(["c"], [1.0])
        fixed = post(["a", "d"], [0.5, 0.5])
        reps = [yes, no] * 10
        lo, hi = overlap_ci(reps, [fixed], 0.99, n_boot=500, seed=1)
        assert lo < 0.5 < hi
        assert hi - lo > 0.05

    def test_width_shrinks_with_replicates(self):
        fixed = post(["a", "c"], [0.7, 0.3])

        def synth(n_reps, seed):
            rng = np.random.default_rng(seed)
            return [
                post(["a", "b"], [q, 1 - q])
                for q in rng.uniform(0.3, 0.9, size=n_reps)
            ]

        ratios = []
        for seed in range(10):
            lo1, hi1 = overlap_ci(synth(20, seed), [fixed], 0.99, n_boot=400, seed=seed)
            lo2, hi2 = overlap_ci(synth(40, 100 + seed), [fixed], 0.99, n_boot=400, seed=seed)
            ratios.append((hi1 - lo1) / (hi2 - lo2))
        assert 1.1 <= np.mean(ratios) <= 1.9  # CLT predicts sqrt(2) ~ 1.41

    def test_coverage_against_enumerated_truth(self):
        # smooth synthetic replicates with known mixing distribution; the
        # interval should cover the infinite-replicate overlap at roughly
        # its nominal 80% rate
        fixed = post(["x", "y"], [0.5, 0.5])
        exact_bagged = post(["x", "y", "z"], [0.5, 0.3, 0.2])
        exact = hpd_overlap(exact_bagged, fixed, 0.99).mass_avg
        hits = 0
        point_hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            reps = [
                post(["x", "y", "z"], row)
                for row in rng.dirichlet((5.0, 3.0, 2.0), size=100)
            ]
            lo, hi = overlap_ci(reps, [fixed], 0.99, n_boot=500, ci_level=0.8, seed=seed)
            hits += lo - 1e-12 <= exact <= hi + 1e-12
            point = hpd_overlap(average_posteriors(reps), fixed, 0.99).mass_avg
            point_hits += lo - 1e-12 <= point <= hi + 1e-12
        assert hits >= 15  # 75% of 20 seeds
        assert point_hits >= 19  # the interval should bracket its own point estimate

    def test_guards(self):
        p = post("ab", [0.5, 0.5])
        with pytest.raises(InsufficientReplicatesError):
            overlap_ci([p], [p], 0.99)
        with pytest.raises(InvalidArgumentError):
            overlap_ci([p, p], [p], 0.99, n_boot=10)


class TestLoadPosteriorSamples:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("t1\nt2\nt1\n\nt1\n", encoding="utf-8")
        p = load_posterior_samples(path)
        assert p.items == ("t1", "t2")
        np.testing.assert_allclose(p.probs, [0.75, 0.25])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(IngestionError):
            load_posterior_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_posterior_samples(tmp_path / "nope.txt")
