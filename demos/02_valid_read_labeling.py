#!/usr/bin/env python3
"""Label a corpus with a planted rule mix and read back the composition.

The generator plants which labeling rule each valid read should fire
(80% threshold, 10% light-user patch, 10% item-relative patch) and the
two-pass pipeline recovers the mix from the raw log alone.
"""

from readweight import (
    RuleMixConfig,
    build_profiles,
    composition_report,
    generate_rule_mix,
    label_log,
)

corpus = generate_rule_mix(RuleMixConfig(n_valid_reads=20_000, mix=(0.8, 0.1, 0.1), seed=7))
print(f"corpus: {len(corpus.events)} events, planted stats x_l={corpus.stats.x_l:.1f}s")
print(f"analytic mix: { {k: round(v, 4) for k, v in corpus.analytic_mix.items()} }")
print()

store = build_profiles(corpus.events)          # statistics pass
labeled = label_log(corpus.events, corpus.stats, store)  # labeling pass
report = composition_report(labeled)

print("label counts:")
for kind, count in report["counts"].items():
    print(f"  {kind:>13}: {count}")
print("valid-read sources:")
for source, frac in report["valid_read_source_fractions"].items():
    print(f"  {source}: {frac:.4f}  (planted {corpus.analytic_mix[source]:.4f})")
print()
print("The invalid-click count is exactly the planted T3 self-quantile")
print(f"failures: {report['counts']['InvalidClick']} == {corpus.analytic_counts['InvalidClick']}")
