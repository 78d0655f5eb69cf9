"""Tests for seeded page sampling and the Horvitz–Thompson estimator.

The two properties ``docs/STREAMING.md`` promises: sample membership is
a pure function of ``(seed, fingerprint, page id)`` — no RNG state, no
dependence on the rest of the candidate set — and the reported interval
is honest about its own uncertainty (exact when degenerate, rule-of-
three when empty).
"""

import math
import random
import statistics

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

from repro.errors import QueryError
from repro.stream.sampling import (
    estimate_matches,
    page_in_sample,
    sample_pages,
)


class TestPageSelection:
    def test_membership_is_a_pure_function(self):
        decisions = [
            page_in_sample(7, "abc123", page, 0.3) for page in range(50)
        ]
        again = [
            page_in_sample(7, "abc123", page, 0.3) for page in range(50)
        ]
        assert decisions == again
        assert any(decisions) and not all(decisions)

    def test_seed_and_fingerprint_shift_the_sample(self):
        pages = list(range(300))
        base = sample_pages(pages, seed=0, fingerprint="q", fraction=0.25)
        reseeded = sample_pages(pages, seed=1, fingerprint="q", fraction=0.25)
        requeried = sample_pages(pages, seed=0, fingerprint="r", fraction=0.25)
        assert base != reseeded
        assert base != requeried

    def test_fraction_controls_the_sampling_rate(self):
        pages = list(range(2000))
        kept = sample_pages(pages, seed=3, fingerprint="q", fraction=0.2)
        # Bernoulli(0.2) over 2000 draws: ~400 expected, sd ~18
        assert 300 < len(kept) < 500

    def test_membership_ignores_other_candidates(self):
        # the same page is in or out regardless of what else is offered —
        # this is what makes the scan worker-partition-invariant
        pages = list(range(100))
        kept = set(sample_pages(pages, seed=5, fingerprint="q", fraction=0.4))
        for lo in (0, 25, 50):
            window = pages[lo : lo + 25]
            sub = sample_pages(window, seed=5, fingerprint="q", fraction=0.4)
            if set(window) & kept:
                assert set(sub) == set(window) & kept

    def test_order_preserved(self):
        pages = [9, 2, 31, 4, 17, 80, 5]
        kept = sample_pages(pages, seed=1, fingerprint="q", fraction=0.6)
        positions = [pages.index(p) for p in kept]
        assert positions == sorted(positions)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_fractions_rejected(self, fraction):
        with pytest.raises(QueryError):
            sample_pages([1, 2, 3], seed=0, fingerprint="q", fraction=fraction)

    def test_never_returns_an_empty_sample(self):
        pages = [10, 11, 12]
        kept = sample_pages(pages, seed=0, fingerprint="q", fraction=1e-9)
        assert len(kept) == 1
        # the fallback is deterministic too
        assert kept == sample_pages(
            pages, seed=0, fingerprint="q", fraction=1e-9
        )

    def test_empty_candidates_stay_empty(self):
        assert sample_pages([], seed=0, fingerprint="q", fraction=0.5) == []


def _pages(total: int, pages: int) -> list[int]:
    """``pages`` per-page counts summing to ``total``, as even as possible."""
    base, extra = divmod(total, pages)
    return [base + 1] * extra + [base] * (pages - extra)


class TestEstimator:
    def test_scales_by_the_realised_fraction(self):
        counts = _pages(10, 25)
        est = estimate_matches(counts, pages_total=100, fraction=0.25)
        assert est.matches_seen == 10 and est.pages_scanned == 25
        assert est.estimate == pytest.approx(40.0)
        half = 1.96 * 100 * math.sqrt(0.75 * statistics.variance(counts) / 25)
        assert est.half_width == pytest.approx(half)
        assert est.ci_low == pytest.approx(40.0 - half)
        assert est.ci_high == pytest.approx(40.0 + half)
        assert est.covers(40)

    def test_full_sample_is_exact(self):
        est = estimate_matches(_pages(17, 50), pages_total=50, fraction=0.9)
        assert est.estimate == 17.0
        assert est.ci_low == est.ci_high == 17.0
        assert est.covers(17) and not est.covers(18)

    def test_zero_matches_uses_rule_of_three(self):
        est = estimate_matches([0] * 20, pages_total=100, fraction=0.2)
        assert est.estimate == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high == pytest.approx(3.0 / 0.2)
        assert est.covers(0) and est.covers(10)

    def test_no_pages_degenerates_to_the_raw_count(self):
        est = estimate_matches([], pages_total=0, fraction=0.5)
        assert est.estimate == 0.0
        assert est.half_width == 0.0

    def test_unsupported_confidence_rejected(self):
        with pytest.raises(QueryError):
            estimate_matches(_pages(1, 10), 100, 0.1, confidence=0.5)

    @pytest.mark.parametrize("confidence", [0.80, 0.90, 0.95, 0.99])
    def test_supported_confidence_levels(self, confidence):
        est = estimate_matches(_pages(5, 10), 100, 0.1, confidence=confidence)
        assert est.confidence == confidence
        assert est.ci_low <= est.estimate <= est.ci_high

    def test_wider_confidence_widens_the_interval(self):
        narrow = estimate_matches(_pages(5, 10), 100, 0.1, confidence=0.80)
        wide = estimate_matches(_pages(5, 10), 100, 0.1, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_clustered_matches_widen_the_interval(self):
        # the same 40 matches on 20 sampled pages: spread evenly, or all
        # on two pages — the clustered sample says far less about the rest
        even = estimate_matches(_pages(40, 20), 80, 0.25)
        clustered = estimate_matches([20, 20] + [0] * 18, 80, 0.25)
        assert even.estimate == clustered.estimate == pytest.approx(160.0)
        assert clustered.half_width > 5 * even.half_width

    def test_single_page_falls_back_to_a_poisson_page(self):
        est = estimate_matches([9], pages_total=4, fraction=0.25)
        assert est.estimate == pytest.approx(36.0)
        assert est.half_width == pytest.approx(1.96 * 4 * math.sqrt(0.75 * 9))

    def test_relative_error_floors_at_one_match(self):
        est = estimate_matches(_pages(10, 25), 100, 0.25)
        assert est.relative_error(40) == pytest.approx(0.0)
        assert est.relative_error(80) == pytest.approx(0.5)
        # truth of zero would divide by zero without the floor
        assert est.relative_error(0) == pytest.approx(est.estimate)

    def test_interval_never_goes_negative(self):
        est = estimate_matches([1] + [0] * 29, 100, 0.3)
        assert est.ci_low >= 0.0

    def test_to_dict_is_json_ready(self):
        payload = estimate_matches(_pages(10, 25), 100, 0.25).to_dict()
        assert payload["estimate"] == pytest.approx(40.0)
        assert set(payload) == {
            "matches_seen",
            "pages_scanned",
            "pages_total",
            "fraction",
            "estimate",
            "ci_low",
            "ci_high",
            "confidence",
        }


if HAVE_HYPOTHESIS:

    class TestCoverage:
        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(
            seed=st.integers(min_value=0, max_value=10_000),
            num_pages=st.integers(min_value=200, max_value=300),
            hot_share=st.floats(min_value=0.15, max_value=0.5),
            hot_rate=st.floats(min_value=0.2, max_value=0.9),
            cold_rate=st.floats(min_value=0.0, max_value=0.05),
        )
        def test_95_percent_intervals_cover_about_95_percent(
            self, seed, num_pages, hot_share, hot_rate, cold_rate
        ):
            """Seeded page populations where matches cluster: a share of
            hot pages holds most of them. Over many sample seeds, the
            nominal 95% interval must cover the true total 90–98% of the
            time — honest, neither too narrow nor uselessly wide. The
            populations keep ~8+ hot pages in a quarter sample: sparser
            clustering is beyond the normal approximation's reach."""
            rng = random.Random(seed)
            lines = 90
            population = []
            for _ in range(num_pages):
                rate = hot_rate if rng.random() < hot_share else cold_rate
                population.append(sum(rng.random() < rate for _ in range(lines)))
            truth = sum(population)
            pages = list(range(num_pages))
            draws = 400
            covered = 0
            for sample_seed in range(draws):
                sampled = sample_pages(pages, sample_seed, "cov", 0.25)
                est = estimate_matches(
                    [population[p] for p in sampled], num_pages, 0.25
                )
                covered += est.covers(truth)
            assert 0.90 <= covered / draws <= 0.98
