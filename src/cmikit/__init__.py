"""Conditional mutual information estimation from finite samples.

Classifier-based divergence estimators with a Donsker-Varadhan plug-in,
difference and generator routes to conditional MI, a k-nearest-neighbor
baseline, synthetic models with known ground truth, and a benchmark harness
for conditional-independence testing.  The ``cmikit`` console script exposes
the same functionality from the shell.
"""

__version__ = "0.1.0"

from .cit import (
    CitBenchmark,
    ReliabilityCurve,
    auroc,
    benchmark_csv,
    precision_recall_at_zero,
    reliability_curve,
    run_cit_benchmark,
)
from .data import (
    CsvFormatError,
    SampleSet,
    derange_rows,
    load_csv,
    split_half,
    split_rows,
    write_csv,
)
from .datagen import (
    MODEL_KINDS,
    GroundTruth,
    ModelSpec,
    dataset_metadata,
    gen_gauss_corr,
    gen_linear,
    gen_nonlinear,
    gen_post_nonlinear_cit,
    generate,
    nonlinear_ground_truth,
)
from .divergence import (
    F_MINE_DIVERGENCE,
    DivergenceConfig,
    classifier_dkl,
    classifier_dkl_paired,
    dv_plugin,
    fit_standardizer,
    f_mine_dkl,
)
from .estimators import (
    CmiEstimate,
    EstimatorConfig,
    bias_corrected_cmi,
    classifier_mi,
    default_candidates,
    f_mine_diff_cmi,
    f_mine_mi,
    generator_classifier_cmi,
    hyperparam_select,
    mi_diff_cmi,
    with_train,
)
from .knn import knn_permute_apply, ksg_cmi, ksg_cmi_sweep, ksg_mi, n_workers
from .nn import (
    MlpArchitecture,
    MlpClassifier,
    TrainConfig,
    TrainingDivergedError,
    predict_logit,
    predict_proba,
    train_binary_classifier,
)
from .seeding import derive_seed, rng_from

__all__ = [
    "CitBenchmark",
    "CmiEstimate",
    "CsvFormatError",
    "DivergenceConfig",
    "EstimatorConfig",
    "F_MINE_DIVERGENCE",
    "GroundTruth",
    "MODEL_KINDS",
    "MlpArchitecture",
    "MlpClassifier",
    "ModelSpec",
    "ReliabilityCurve",
    "SampleSet",
    "TrainConfig",
    "TrainingDivergedError",
    "__version__",
    "auroc",
    "benchmark_csv",
    "bias_corrected_cmi",
    "classifier_dkl",
    "classifier_dkl_paired",
    "classifier_mi",
    "dataset_metadata",
    "default_candidates",
    "derange_rows",
    "derive_seed",
    "dv_plugin",
    "f_mine_diff_cmi",
    "f_mine_dkl",
    "f_mine_mi",
    "fit_standardizer",
    "gen_gauss_corr",
    "gen_linear",
    "gen_nonlinear",
    "gen_post_nonlinear_cit",
    "generate",
    "generator_classifier_cmi",
    "hyperparam_select",
    "knn_permute_apply",
    "ksg_cmi",
    "ksg_cmi_sweep",
    "ksg_mi",
    "load_csv",
    "mi_diff_cmi",
    "n_workers",
    "nonlinear_ground_truth",
    "precision_recall_at_zero",
    "predict_logit",
    "predict_proba",
    "reliability_curve",
    "rng_from",
    "run_cit_benchmark",
    "split_half",
    "split_rows",
    "train_binary_classifier",
    "with_train",
    "write_csv",
]
