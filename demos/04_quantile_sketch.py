#!/usr/bin/env python3
"""Streaming quantiles: the rank sketch against an exact sort.

One million dwell times flow through the estimator (exact until 4096
records, then a Greenwald-Khanna summary). Deciles stay within the 1%
rank-error budget; merging two half-streams stays within 2%.
"""

import numpy as np

from readweight import QuantileEstimator

rng = np.random.default_rng(5)
data = rng.lognormal(4.0, 1.3, 1_000_000)
exact = np.sort(data)
n = len(data)

est = QuantileEstimator(eps=0.01)
for v in data.tolist():
    est.observe(v)

half_a, half_b = QuantileEstimator(eps=0.01), QuantileEstimator(eps=0.01)
for v in data[: n // 2].tolist():
    half_a.observe(v)
for v in data[n // 2 :].tolist():
    half_b.observe(v)
merged = half_a.merge(half_b)


def rank_of(value: float) -> int:
    return int(np.searchsorted(exact, value, side="right"))


print(f"{'p':>5} {'exact':>10} {'sketch':>10} {'rank err':>9} {'merged':>10} {'rank err':>9}")
for d in range(1, 10):
    p = d / 10
    target = int(np.ceil(p * n))
    true_value = exact[target - 1]
    v1, v2 = est.query(p), merged.query(p)
    e1 = abs(rank_of(v1) - target) / n
    e2 = abs(rank_of(v2) - target) / n
    print(f"{p:5.1f} {true_value:10.2f} {v1:10.2f} {e1:9.4f} {v2:10.2f} {e2:9.4f}")

print(f"\nsummary sizes: single={len(est._sketch.entries)} entries, "
      f"merged={len(merged._sketch.entries)} entries, for {n} observations")
