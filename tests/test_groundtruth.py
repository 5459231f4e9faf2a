"""The planted-knot panel and its scorer, and the bounds today's fits hold on it."""

import numpy as np
import pytest

from campaigntrends import fit_with_target_df, target_df_for_span
from groundtruth import (
    KINDS,
    N_DAYS,
    PULSES,
    SURGES,
    Planted,
    Score,
    coupled_pair,
    panel,
    score,
)

SEEDS = range(8)
K_KNOT_KINDS = ("k1-gauss", "k1-poisson", "k4-gauss", "k4-poisson")


@pytest.mark.parametrize("kind", KINDS)
def test_panel_is_seeded_and_plants_what_it_says(kind):
    series = [panel(kind, seed) for seed in range(3)]
    assert all(np.array_equal(p.values, panel(kind, seed).values) for seed, p in enumerate(series))
    assert not np.array_equal(series[0].values, series[1].values)
    spike_days = {d for first, last in SURGES + PULSES for d in range(first, last + 1)}
    for planted in series:
        assert planted.kind == kind and planted.values.shape == (N_DAYS,)
        assert np.isfinite(planted.values).all()
        want = {"flat": 0, "k1": 1, "k4": 4, "donation": 5, "poll": 4}[kind.split("-")[0]]
        assert len(planted.knots) == want and list(planted.knots) == sorted(planted.knots)
        assert all(15 <= k <= N_DAYS - 16 for k in planted.knots)
        assert all(b - a >= 25 for a, b in zip(planted.knots, planted.knots[1:]))
        if kind == "donation":
            assert all(abs(k - d) > 7 for k in planted.knots for d in spike_days)
        if kind.endswith("poisson") or kind == "donation":
            assert (planted.values >= 0).all() and (planted.values == np.round(planted.values)).all()
        assert planted.spikes == (SURGES + PULSES if kind == "donation" else ())


def test_score_counts_near_knots_and_spikes():
    planted = Planted("donation", np.zeros(N_DAYS), (60, 150), ((100, 104),))
    # 63 and 146 are near the knots, 99 and 105 at the spike's edges, 200 far from all
    assert score(planted, [63, 99, 105, 146, 200]) == Score(5, 0.4, 1.0, pytest.approx(4 / 7), None)
    assert score(planted, [54, 156]) == Score(2, 0.0, 0.0, 0.0, None)
    assert score(planted, [155]) == Score(1, 1.0, 0.5, pytest.approx(2 / 3), None)
    assert score(planted, []) == Score(0, 1.0, 0.0, 0.0, None)
    flat = Planted("flat-gauss", np.zeros(N_DAYS), ())
    assert score(flat, []) == Score(0, 1.0, 1.0, 1.0, None)
    assert score(flat, [10, 40]).changepoints == 2 and score(flat, [10, 40]).precision == 0.0


@pytest.mark.parametrize("lag", [1, 3, 10])
def test_coupling_flag_reads_the_planted_lag(lag):
    for seed in range(3):
        poll, donation = coupled_pair(seed, lag)
        assert (poll.kind, donation.kind) == ("poll", "donation")
        assert set(k + lag for k in poll.knots) <= set(donation.knots)
        assert score(donation, [], lead=poll).coupled_lag == lag
        # a donation series planted on its own is not coupled to the poll
        assert score(panel("donation", seed), [], lead=poll).coupled_lag is None
        assert score(poll, [], lead=donation).coupled_lag is None


@pytest.fixture(scope="module")
def k_knot_scores():
    target = target_df_for_span(N_DAYS)
    return {
        kind: [score(p, fit_with_target_df(p.values, target).knots) for p in (panel(kind, s) for s in SEEDS)]
        for kind in K_KNOT_KINDS
    }


@pytest.mark.parametrize("kind", K_KNOT_KINDS)
def test_trend_filter_recalls_planted_knots(k_knot_scores, kind):
    # the fit at the span's df target puts about 35 knots on every series, so
    # precision is low; CHANGES.md records the full panel as the baseline
    assert np.mean([s.recall for s in k_knot_scores[kind]]) >= 0.8
