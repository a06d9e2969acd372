"""Seeded Monte Carlo evaluation: random splits, fold metrics, mean +/- std.

Run:  python3 demos/04_monte_carlo_eval.py
"""

import tempfile
from pathlib import Path

from mvpad import (
    RunConfig,
    generate_dataset,
    load_manifest_cases,
    monte_carlo_run,
    METRIC_NAMES,
)

cfg = RunConfig(canvas=(96, 96), seed=3)
out = Path(tempfile.mkdtemp(prefix="mvpad_demo_"))
manifest = generate_dataset(14, 5, seed=3, out_dir=out)
cases, _ = load_manifest_cases(manifest)

# each case is projected and featurized once and shared across folds, so only
# banks and calibration are recomputed per split
summary = monte_carlo_run(cases, cfg, folds=3)

print(f"{len(summary['folds'])} folds over {len(cases)} cases")
for fold_idx, fold in enumerate(summary["folds"]):
    print(f"  fold {fold_idx}: auc={fold['auc']:.3f} threshold={fold['threshold']:.3f} "
          f"acc={fold['accuracy']:.3f}")
print("\nmean +/- std across folds:")
for name in METRIC_NAMES:
    mean, std = summary[name], summary["std"][name]
    if mean is None:
        print(f"  {name:12s} undefined")
    else:
        print(f"  {name:12s} {mean:.3f} +/- {std:.3f}")
