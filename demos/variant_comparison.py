"""Compare pseudo-label update strategies across the four synthetic benchmarks.

For each anomaly flavor (clustered, global, local, dependency) this scores
an isolation forest teacher, then boosts it with every available strategy:
the variance-corrected default, plain self-distillation variants, and the
teacher-student discrepancy baselines. Prints one AUCROC table.

Run:  python demos/variant_comparison.py
"""

from uadb import (
    BoosterConfig,
    DetectorKind,
    DetectorParams,
    Strategy,
    SyntheticKind,
    aucroc,
    fit_score,
    generate_synthetic,
    run_booster,
    scale_features,
)

SEED = 1
KINDS = list(SyntheticKind)
STRATEGIES = list(Strategy)

rows = {"teacher": []}
for strategy in STRATEGIES:
    rows[strategy.value] = []

for kind in KINDS:
    ds = scale_features(generate_synthetic(kind, seed=SEED))  # CLI default prep
    teacher = fit_score(ds, DetectorParams(kind=DetectorKind.IFOREST, seed=SEED))
    rows["teacher"].append(aucroc(teacher, ds.labels))
    for strategy in STRATEGIES:
        # one seed drives folds, init, and shuffles alike
        cfg = BoosterConfig(strategy=strategy, seed=SEED)
        result = run_booster(ds, teacher, cfg)
        rows[strategy.value].append(aucroc(result.final_scores, ds.labels))

header = f"{'variant':<18}" + "".join(f"{k.value:>12}" for k in KINDS) + f"{'mean':>12}"
print(header)
print("-" * len(header))
for name, values in rows.items():
    mean = sum(values) / len(values)
    print(f"{name:<18}" + "".join(f"{v:>12.4f}" for v in values) + f"{mean:>12.4f}")
