"""Conditional-independence testing over labeled synthetic collections.

Each dataset gets one CMI score; datasets whose score clears zero are
called dependent.  The harness reports threshold-free ranking quality
(AuROC) alongside precision and recall at the zero threshold, plus a
reliability curve for inspecting classifier calibration.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import SampleSet
from .datagen import generate
from .estimators import EstimatorConfig, mi_diff_cmi
from .knn import process_map
from .nn import MlpClassifier, predict_proba
from .seeding import derive_seed

__all__ = [
    "CitBenchmark",
    "ReliabilityCurve",
    "auroc",
    "precision_recall_at_zero",
    "run_cit_benchmark",
    "benchmark_csv",
    "reliability_curve",
]


@dataclass(frozen=True)
class CitBenchmark:
    """Scored benchmark: the datasets, their labels, and one CMI score each."""

    datasets: tuple[SampleSet, ...]
    labels: tuple[bool, ...]
    scores: tuple[float, ...]
    config: EstimatorConfig
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "labels", tuple(bool(b) for b in self.labels))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if not (len(self.datasets) == len(self.labels) == len(self.scores)):
            raise ValueError("datasets, labels, and scores must align one to one")
        if not all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")

    def metrics(self) -> dict:
        precision, recall = precision_recall_at_zero(self.scores, self.labels)
        return {
            "n_datasets": len(self.scores),
            "auroc": auroc(self.scores, self.labels),
            "precision_at_zero": precision,
            "recall_at_zero": recall,
        }


@dataclass(frozen=True)
class ReliabilityCurve:
    """Equal-width calibration bins over [0, 1]; empty bins carry NaN stats."""

    bin_edges: tuple[float, ...]
    mean_predicted: tuple[float, ...]
    positive_fraction: tuple[float, ...]
    counts: tuple[int, ...]


def _scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    l = np.asarray(labels).ravel().astype(bool)
    if s.size == 0 or s.size != l.size:
        raise ValueError("scores and labels must be nonempty and aligned")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if l.all() or not l.any():
        raise ValueError("need both labels present")
    return s, l


def auroc(scores, labels) -> float:
    """Probability that a random dependent dataset outscores a random CI one.

    Mann-Whitney formulation: average ranks, so ties earn half credit.
    """
    s, l = _scores_labels(scores, labels)
    n_pos = int(l.sum())
    n_neg = l.size - n_pos
    _, inv, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
    u = float(ranks[l].sum()) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def precision_recall_at_zero(scores, labels, threshold: float = 0.0):
    """Precision and recall of 'score > threshold means dependent'.

    With no predicted positives the precision is undefined and comes back
    as None; the recall is still well defined.
    """
    s, l = _scores_labels(scores, labels)
    predicted = s > threshold
    true_pos = int((predicted & l).sum())
    precision = None if not predicted.any() else true_pos / int(predicted.sum())
    recall = true_pos / int(l.sum())
    return precision, float(recall)


def run_cit_benchmark(
    specs, cfg: EstimatorConfig = EstimatorConfig(), seed: int = 0
) -> CitBenchmark:
    """Generate every spec'd dataset, score each with the difference route.

    Datasets are fixed by their specs; only the estimator is reseeded, one
    derived seed per dataset, so the whole benchmark is a pure function of
    (specs, cfg, seed).  The datasets are scored in parallel by process_map.
    """
    specs = tuple(specs)
    if len(specs) < 2:
        raise ValueError("need at least two datasets")
    datasets, labels = [], []
    for spec in specs:
        d, truth = generate(spec)
        if truth.method != "label":
            raise ValueError(f"benchmark needs labeled datasets, got kind {spec.kind!r}")
        datasets.append(d)
        labels.append(bool(truth.value))
    if all(labels) or not any(labels):
        raise ValueError("need both labels present")

    def score(i):
        return mi_diff_cmi(datasets[i], dataclasses.replace(cfg, seed=derive_seed(seed, 61, i))).value

    scores = process_map(score, range(len(datasets)))
    return CitBenchmark(tuple(datasets), tuple(labels), tuple(scores), cfg, seed)


def benchmark_csv(bench: CitBenchmark) -> str:
    """Per-dataset results as CSV text with a header row."""
    lines = ["dataset_id,label,cmi_score"]
    for i, (label, score) in enumerate(zip(bench.labels, bench.scores)):
        lines.append(f"{i},{int(label)},{score!r}")
    return "\n".join(lines) + "\n"


def reliability_curve(
    classifier: MlpClassifier, eval_rows, eval_labels, bins: int = 10
) -> ReliabilityCurve:
    """Bin predicted probabilities and compare with empirical frequencies."""
    rows = np.asarray(eval_rows, dtype=np.float64)
    labels = np.asarray(eval_labels, dtype=np.float64).ravel()
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("eval_rows must be a nonempty row matrix")
    if labels.size != rows.shape[0]:
        raise ValueError("one label per evaluation row")
    if bins < 1:
        raise ValueError("bins must be positive")
    probs = predict_proba(classifier, rows)
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.minimum((probs * bins).astype(int), bins - 1)
    counts, mean_pred, pos_frac = [], [], []
    for b in range(bins):
        mask = idx == b
        m = int(mask.sum())
        counts.append(m)
        mean_pred.append(float(probs[mask].mean()) if m else float("nan"))
        pos_frac.append(float(labels[mask].mean()) if m else float("nan"))
    return ReliabilityCurve(tuple(edges), tuple(mean_pred), tuple(pos_frac), tuple(counts))
