"""Compare pseudo-label update strategies across the four synthetic benchmarks.

For each anomaly flavor (clustered, global, local, dependency) this scores
an isolation forest teacher, then boosts it with every available strategy:
the variance-corrected default, plain self-distillation variants, and the
teacher-student discrepancy baselines, which reuse the naive and self runs
rather than training again. Prints one AUCROC table.

Run:  python demos/variant_comparison.py
"""

from uadb import (
    BoosterConfig,
    DetectorKind,
    DetectorParams,
    Strategy,
    SyntheticKind,
    ablation_scores,
    aucroc,
    fit_score,
    generate_synthetic,
    scale_features,
)

SEED = 1
KINDS = list(SyntheticKind)

rows = {"teacher": []} | {strategy.value: [] for strategy in Strategy}  # printed in this order

for kind in KINDS:
    ds = scale_features(generate_synthetic(kind, seed=SEED))  # CLI default prep
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.IFOREST, seed=SEED))
    rows["teacher"].append(aucroc(teacher, ds.labels))
    # one seed drives folds, init, and shuffles alike; three training runs cover all five strategies
    for strategy, scores in ablation_scores(ds, teacher, BoosterConfig(seed=SEED)).items():
        rows[strategy.value].append(aucroc(scores, ds.labels))

header = f"{'variant':<18}" + "".join(f"{k.value:>12}" for k in KINDS) + f"{'mean':>12}"
print(header)
print("-" * len(header))
for name, values in rows.items():
    mean = sum(values) / len(values)
    print(f"{name:<18}" + "".join(f"{v:>12.4f}" for v in values) + f"{mean:>12.4f}")
