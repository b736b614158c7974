"""Individual risk (Algorithm 5, after Benedetti & Franconi).

The re-identification model conflates the sampling weight with the
population frequency F_k of the quasi-identifier combination.  The
individual-risk model instead treats F_k as unknown and estimates
ρ = E[1/F | f] from the posterior distribution of population given
sample frequencies.  Following the paper, the posterior is negative
binomial: F − f ~ NegBinomial(f, p) with sampling rate p estimated by
f / Σ W over the combination's group.

Three estimation modes are provided:

* ``simple`` — the paper's Algorithm 5 shortcut: ρ = f / Σ W
  (λ = Σ W_t / f_q̂ plugged into Equation 1).
* ``series`` — the exact posterior mean
  E[1/F | f] = Σ_{h≥f} (1/h) C(h−1, f−1) p^f (1−p)^{h−f}, summed
  numerically to convergence (for f = 1 this is the classical
  (p/(1−p))·ln(1/p)).
* ``sampled`` — Monte-Carlo over ``scipy.stats.nbinom`` draws.  This is
  the "off-the-shelf statistical library" mode of Section 5.2, kept
  deliberately library-bound so the Fig. 7e cost profile (interaction
  overhead dominating) can be reproduced.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..model.microdata import MicrodataDB
from ..model.nulls import MAYBE_MATCH, NullSemantics
from .base import RiskMeasure, RiskReport, register_measure

_MODES = ("simple", "series", "sampled")


def posterior_mean_inverse_frequency(
    sample_frequency: int, sampling_rate: float, tolerance: float = 1e-12
) -> float:
    """E[1/F | f] under the negative-binomial posterior.

    ``sampling_rate`` is p ∈ (0, 1]; at p = 1 the population equals the
    sample and the risk is exactly 1/f.
    """
    f = int(sample_frequency)
    if f < 1:
        raise ReproError(f"sample frequency must be >= 1, got {f}")
    p = float(sampling_rate)
    if p >= 1.0:
        return 1.0 / f
    if p <= 0.0:
        return 0.0
    if f == 1:
        # Closed form: (p / (1-p)) * ln(1/p)
        return (p / (1.0 - p)) * math.log(1.0 / p)
    # Numeric series: term(h) = (1/h) * C(h-1, f-1) * p^f * (1-p)^(h-f)
    q = 1.0 - p
    term = (p ** f) / f  # h = f: C(f-1, f-1) = 1
    total = term
    h = f
    coefficient = 1.0  # C(h-1, f-1)
    while True:
        h += 1
        coefficient *= (h - 1) / (h - f)
        term_h = coefficient * (p ** f) * (q ** (h - f)) / h
        total += term_h
        if term_h < tolerance and h > f + 10:
            break
        if h > f + 100_000:  # safety: the series converges geometrically
            break
    return min(1.0, total)


@register_measure
class IndividualRisk(RiskMeasure):
    """ρ per quasi-identifier combination via the BF posterior."""

    name = "individual"

    def __init__(
        self,
        mode: str = "simple",
        samples: int = 2_000,
        seed: int = 20210323,
    ):
        if mode not in _MODES:
            raise ReproError(
                f"unknown individual-risk mode {mode!r}; use one of {_MODES}"
            )
        self.mode = mode
        self.samples = int(samples)
        self.seed = seed

    def assess(
        self,
        db: MicrodataDB,
        semantics: NullSemantics = MAYBE_MATCH,
        attributes: Optional[Sequence[str]] = None,
    ) -> RiskReport:
        attributes = self._resolve_attributes(db, attributes)
        counts, weight_sums = semantics.match_aggregate(
            db, attributes, values=db.weights()
        )
        scores = []
        cache = {}
        rng = np.random.default_rng(self.seed)
        for index in range(len(db)):
            f = max(1, counts[index])
            weight_sum = max(weight_sums[index], float(f))
            key = (f, round(weight_sum, 9))
            score = cache.get(key)
            if score is None:
                score = self._estimate(f, weight_sum, rng)
                cache[key] = score
            scores.append(score)

        def detail(row: int) -> str:
            f = max(1, counts[row])
            weight_sum = max(weight_sums[row], float(f))
            return f"f={f}, sum(W)={weight_sum:.6g}, mode={self.mode}"

        return RiskReport(
            self.name,
            scores,
            attributes,
            detail=detail,
            parameters={"mode": self.mode, "semantics": semantics.name},
        )

    def safe_from_group(self, count, weight_sum, threshold):
        """Group statistics fully determine the estimate for the
        deterministic modes; the Monte-Carlo mode declines (None) so
        the cycle does not pay a sampling call per recheck."""
        if self.mode == "sampled":
            return None
        f = max(1, count)
        weight_sum = max(weight_sum, float(f))
        return self._estimate(f, weight_sum, None) <= threshold

    def _estimate(self, f: int, weight_sum: float, rng) -> float:
        if self.mode == "simple":
            return min(1.0, f / weight_sum)
        p = min(1.0, f / weight_sum)
        if self.mode == "series":
            return posterior_mean_inverse_frequency(f, p)
        # sampled: F = f + NegBinomial(f, p); average of 1/F.
        from scipy import stats

        if p >= 1.0:
            return 1.0 / f
        extra = stats.nbinom.rvs(
            f, p, size=self.samples, random_state=rng
        )
        population = f + extra
        return float(np.mean(1.0 / population))
