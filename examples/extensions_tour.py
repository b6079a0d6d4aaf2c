#!/usr/bin/env python
"""Extensions tour: twin features and PR curves.

The library ships one extension beyond the paper's letter, motivated
inside the paper: the spatial analysis ends with the observation that
nearly every sector has a behavioural twin somewhere in the network;
`find_twins`/`augment_with_twins` turn that into explicit **twin
features**.

This example compares RF-F1 and RF-F1 + twin features on the same
forecast days and prints a precision-recall curve (the paper's raw
evaluation object before averaging into psi) for the best model.

Usage: python examples/extensions_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    GeneratorConfig,
    TelemetryGenerator,
    attach_scores,
    augment_with_twins,
    filter_sectors,
    find_twins,
)
from repro.core.evaluation import evaluate_ranking
from repro.core.features import build_feature_tensor
from repro.core.forecaster import make_model
from repro.core.scoring import ScoreConfig
from repro.imputation import ForwardFillImputer
from repro.ml.metrics import precision_recall_curve

T_DAYS = (58, 68, 78, 88)
HORIZON = 5
WINDOW = 7


def main() -> None:
    print("preparing network ...")
    config = GeneratorConfig(n_towers=50, n_weeks=18, seed=31)
    dataset = TelemetryGenerator(config).generate()
    dataset, __ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)

    features = build_feature_tensor(dataset, ScoreConfig())
    targets = np.asarray(dataset.labels_daily, dtype=np.int64)
    twins = find_twins(
        dataset.labels_hourly,
        cutoff_day=min(T_DAYS),
        exclude_self_tower=dataset.geography.tower_ids,
    )
    augmented = augment_with_twins(features, twins)
    print(f"{dataset.n_sectors} sectors; median twin correlation "
          f"{float(np.median(twins.correlation)):.2f}\n")

    variants = {
        "RF-F1": (features, "RF-F1"),
        "RF-F1 + twin": (augmented, "RF-F1"),
    }
    print(f"{'variant':14s} {'mean lift':>10s}")
    best_scores = best_truth = None
    best_lift = -np.inf
    for label, (tensor, model_name) in variants.items():
        lifts = []
        for t_day in T_DAYS:
            model = make_model(model_name, n_estimators=10, n_training_days=6,
                               random_state=t_day)
            scores = model.fit_forecast(tensor, targets, t_day, HORIZON, WINDOW)
            truth = targets[:, t_day + HORIZON]
            evaluation = evaluate_ranking(scores, truth)
            if evaluation.defined:
                lifts.append(evaluation.lift)
                if evaluation.lift > best_lift:
                    best_lift = evaluation.lift
                    best_scores, best_truth = scores, truth
        print(f"{label:14s} {np.mean(lifts):10.2f}")

    if best_scores is not None:
        precision, recall, __ = precision_recall_curve(best_scores, best_truth)
        print("\nprecision-recall curve of the best single forecast "
              f"(lift {best_lift:.1f}):")
        print(f"{'recall':>8s} {'precision':>10s}")
        shown = set()
        for p, r in zip(precision, recall):
            bucket = round(float(r), 1)
            if bucket not in shown:
                shown.add(bucket)
                print(f"{r:8.2f} {p:10.2f}")


if __name__ == "__main__":
    main()
