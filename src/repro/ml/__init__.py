"""From-scratch machine learning substrate.

scikit-learn and the deep-learning frameworks the paper used are not
available in this environment, so this subpackage implements the exact
model family the paper relies on, in pure numpy:

* :mod:`repro.ml.tree` — CART decision tree classifier (Gini split
  criterion, sample weights, weight-fraction stopping, random feature
  subsets per split);
* :mod:`repro.ml.forest` — bagged random forest with Gini feature
  importances and optional out-of-bag scoring;
* :mod:`repro.ml.autoencoder` — stacked denoising autoencoder with
  PReLU activations and masked mean-squared-error loss;
* :mod:`repro.ml.optim` — RMSprop (the paper's optimiser) and SGD;
* :mod:`repro.ml.metrics` — average precision, precision–recall curves,
  and lift, the paper's evaluation measures.
"""

from repro.ml.autoencoder import DenoisingAutoencoder
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import (
    average_precision,
    lift_over_random,
    precision_recall_curve,
    relative_improvement,
)
from repro.ml.optim import RMSProp, SGD
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "DecisionTreeClassifier",
    "DenoisingAutoencoder",
    "RMSProp",
    "RandomForestClassifier",
    "SGD",
    "average_precision",
    "lift_over_random",
    "precision_recall_curve",
    "relative_improvement",
]
