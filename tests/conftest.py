"""Shared fixtures: small generated datasets reused across test modules."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.imputation import ForwardFillImputer
from repro.serve import ModelRegistry, train_and_register
from repro.synth import drift_shifted_dataset, intensified_events


@pytest.fixture(scope="session")
def small_dataset():
    """A small raw dataset (with missing values), 4 weeks, 30 sectors."""
    config = GeneratorConfig(n_towers=10, n_weeks=4, seed=11)
    return TelemetryGenerator(config).generate()


@pytest.fixture(scope="session")
def scored_dataset():
    """A filtered, imputed (forward fill), scored dataset — 18 weeks.

    Session-scoped because generation plus scoring takes a few seconds;
    tests must not mutate it.
    """
    config = GeneratorConfig(n_towers=20, n_weeks=18, seed=5)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


@pytest.fixture(scope="session")
def analysis_dataset():
    """A larger scored dataset for statistical shape assertions.

    The Sec. III shape tests (weekly patterns, duration histograms,
    spatial correlations) need enough sectors for the population
    statistics to stabilise; 60 towers gives 180 sectors.
    """
    config = GeneratorConfig(n_towers=60, n_weeks=18, seed=3)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


#: Shift day of the drifted fixture dataset (known ground truth for
#: drift-detection and lifecycle tests).
DRIFT_SHIFT_DAY = 40


@pytest.fixture(scope="session")
def drifted_dataset():
    """A scored 10-week dataset whose event regime shifts at day 40.

    Same-seed splice via :func:`repro.synth.drift_shifted_dataset`: days
    before :data:`DRIFT_SHIFT_DAY` are the base realization, days after
    come from an intensified event regime (more failures/storms/
    interference), so score and KPI distributions genuinely move at a
    known day.  Session-scoped; tests must not mutate it.
    """
    config = GeneratorConfig(n_towers=12, n_weeks=10, seed=21)
    dataset = drift_shifted_dataset(
        config, DRIFT_SHIFT_DAY, intensified_events(config.events, factor=8.0)
    )
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


@pytest.fixture(scope="session")
def rf_serving(tmp_path_factory):
    """RF-F1 forests served over a scored 4-week, 25-sector world.

    The paper's Sec. IV forest over the Eq. 5 percentile design, 16
    trees, horizons 1 and 2, a 3-day window, trained at day 14 (the
    first alerted day).  ``registry_root`` holds the trained models;
    the hot-path tests build their stacks over it.
    """
    config = GeneratorConfig(n_towers=10, n_weeks=4, seed=5)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    world = SimpleNamespace(
        dataset=dataset,
        registry_root=tmp_path_factory.mktemp("rf-serving") / "registry",
        model="RF-F1",
        horizons=(1, 2),
        window=3,
        start_day=dataset.score_daily.shape[1] // 2,
        top_k=5,
    )
    runner = SweepRunner(dataset, target="hot", n_estimators=16, seed=3)
    train_and_register(
        runner, ModelRegistry(world.registry_root), (world.model,),
        world.start_day, world.horizons, (world.window,), overwrite=True,
    )
    return world


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
