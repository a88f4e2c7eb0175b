import numpy as np
import pytest

from mode4sim.analysis import (AnalysisError, reallocation_probability, tbc_ccdf,
                               tbc_distribution, tbe_distribution)
from oracles import (empirical_pmf, simulate_hold_times,
                     simulate_reallocation_probability, total_variation)


# -- single counter draw -------------------------------------------------------

def test_tbe_uniform_mass():
    dist = tbe_distribution(5, 15)
    assert dist.pmf[5:16] == pytest.approx(np.full(11, 1 / 11))
    assert dist.pmf[:5].sum() == 0
    assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_tbe_point_mass():
    dist = tbe_distribution(10, 10)
    assert dist.pmf[10] == 1.0
    assert dist.pmf.sum() == 1.0


def test_tbe_one_over_n_normalized():
    dist = tbe_distribution(5, 15, form="one_over_n")
    assert dist.pmf.sum() == pytest.approx(1.0)
    assert dist.pmf[5] / dist.pmf[15] == pytest.approx(3.0)


def test_tbe_validation():
    with pytest.raises(AnalysisError):
        tbe_distribution(0, 5)
    with pytest.raises(AnalysisError):
        tbe_distribution(7, 5)
    with pytest.raises(AnalysisError):
        tbe_distribution(5, 15, form="bogus")


# -- geometric compound ----------------------------------------------------------

def test_tbc_pkeep_zero_equals_tbe():
    tbe = tbe_distribution(5, 15)
    tbc = tbc_distribution(5, 15, 0.0)
    assert np.max(np.abs(tbc.pmf[:16] - tbe.pmf)) < 1e-12
    assert tbc.pmf[16:].sum() < 1e-12
    assert tbc.residual_mass == 0.0


def test_tbc_p1_rejected():
    with pytest.raises(AnalysisError):
        tbc_distribution(5, 15, 1.0)


@pytest.mark.parametrize("n_min,n_max,p_keep", [
    (5, 15, 0.4), (5, 15, 0.8), (10, 20, 0.4), (10, 30, 0.0), (1, 1, 0.5),
])
def test_fft_equals_naive_convolution(n_min, n_max, p_keep):
    # Independent O(n^2) oracle: repeated np.convolve of the base pmf.
    tbe = tbe_distribution(n_min, n_max).pmf
    dist = tbc_distribution(n_min, n_max, p_keep, eps=1e-8)
    terms = 1 if p_keep == 0 else int(np.ceil(np.log(1e-8) / np.log(p_keep)))
    direct = np.zeros(terms * n_max + 1)
    conv = np.array([1.0])
    for i in range(1, terms + 1):
        conv = np.convolve(conv, tbe)
        direct[: len(conv)] += (1 - p_keep) * p_keep ** (i - 1) * conv[: len(direct)]
    assert np.max(np.abs(dist.pmf - direct)) < 1e-10


def test_tbc_mean_identity():
    # mean(TBC) = mean(TBE) / (1 - p_keep), checked on a tight truncation.
    for n_min, n_max, p_keep in [(5, 15, 0.4), (5, 15, 0.8), (10, 30, 0.6)]:
        dist = tbc_distribution(n_min, n_max, p_keep, eps=1e-12)
        expect = (n_min + n_max) / 2 / (1 - p_keep)
        assert dist.mean() == pytest.approx(expect, rel=1e-6)


def test_tbc_truncation_mass_reported():
    dist = tbc_distribution(5, 15, 0.8, eps=1e-6)
    assert dist.residual_mass <= 1e-6
    assert dist.pmf.sum() + dist.residual_mass == pytest.approx(1.0, abs=1e-9)


def test_tbc_matches_monte_carlo():
    rng = np.random.default_rng(0)
    dist = tbc_distribution(5, 15, 0.4)
    samples = simulate_hold_times(5, 15, 0.4, 200_000, rng)
    emp = empirical_pmf(samples, max(len(dist.pmf), samples.max() + 1))
    assert total_variation(dist.pmf, emp) < 0.01


def test_hold_tail_ten_second_reference():
    # Exact tail value of the compound distribution at ten seconds for
    # (5, 15, p_keep=0.8); the independent counter-process MC agrees.
    dist = tbc_distribution(5, 15, 0.8, eps=1e-12)
    tail = float(tbc_ccdf(dist)[100])
    assert tail == pytest.approx(0.120592, abs=2e-6)
    rng = np.random.default_rng(123)
    samples = simulate_hold_times(5, 15, 0.8, 2_000_000, rng)
    assert (samples > 100).mean() == pytest.approx(tail, abs=0.002)


# -- ccdf -------------------------------------------------------------------------

def test_ccdf_point_mass():
    dist = tbe_distribution(10, 10)
    ccdf = tbc_ccdf(dist)
    assert (ccdf[:10] == 1.0).all()
    assert ccdf[10] == 0.0


def test_ccdf_bounded_support_hits_zero():
    ccdf = tbc_ccdf(tbc_distribution(5, 15, 0.0))
    assert ccdf[14] > 0
    assert ccdf[15] == pytest.approx(0.0, abs=1e-12)


def test_ccdf_non_increasing():
    ccdf = tbc_ccdf(tbc_distribution(5, 15, 0.8))
    assert (np.diff(ccdf) <= 1e-15).all()


def test_ccdf_curves_cross_once():
    wide = tbc_ccdf(tbc_distribution(10, 30, 0.0))
    kept = tbc_ccdf(tbc_distribution(5, 15, 0.4))
    size = max(len(wide), len(kept))
    a = np.zeros(size); a[: len(wide)] = wide
    b = np.zeros(size); b[: len(kept)] = kept
    diff = a - b
    signs = np.sign(diff[np.abs(diff) > 1e-12])
    crossings = int((np.diff(signs) != 0).sum())
    assert crossings == 1


# -- reallocation probability -------------------------------------------------------

def test_realloc_limits():
    dist = tbc_distribution(5, 15, 0.0)
    assert reallocation_probability(dist, 15) == pytest.approx(1.0)
    assert reallocation_probability(dist, 500) == 1.0
    with pytest.raises(AnalysisError):
        reallocation_probability(dist, 0)


def test_realloc_one_second_window_reference():
    dist = tbc_distribution(5, 15, 0.0)
    assert reallocation_probability(dist, 10) == pytest.approx(0.90, abs=0.02)


def test_realloc_monotone_in_window():
    dist = tbc_distribution(5, 15, 0.4)
    vals = [reallocation_probability(dist, n) for n in range(1, 80)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + 1e-12


def test_realloc_matches_phase_sampling_oracle():
    rng = np.random.default_rng(7)
    for n_min, n_max, p_keep in [(5, 15, 0.0), (5, 15, 0.4), (10, 20, 0.4)]:
        dist = tbc_distribution(n_min, n_max, p_keep)
        got = reallocation_probability(dist, 10)
        mc = simulate_reallocation_probability(n_min, n_max, p_keep, 10,
                                               300_000, rng)
        assert got == pytest.approx(mc, abs=0.01)


def test_hold_time_oracle_moments():
    rng = np.random.default_rng(11)
    samples = simulate_hold_times(5, 15, 0.8, 400_000, rng)
    assert samples.min() >= 5
    assert samples.mean() == pytest.approx(50.0, rel=0.01)  # 10 / (1 - 0.8)
