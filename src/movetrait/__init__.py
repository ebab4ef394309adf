"""Movement-to-trait pipeline.

From raw 3D marker trajectories to correntropy covariance features, to
trained PCR / Bayesian ridge regressors for scalar traits, to per-joint
importance profiles derived from the learned weights.
"""
from .mocap import (
    MarkerTake,
    TakeFormatError,
    derive_joints,
    load_take,
    velocity,
)
from .features import (
    extract_features,
    vectorize_lower,
)
from .regression import (
    CenteredSvd,
    DatasetMode,
    Evidence,
    LinearModel,
    build_dataset,
    centered_svd,
    fit_bayes_ridge,
    fit_pcr,
)
from .evaluation import (
    CvResult,
    FoldPlan,
    ModelSpec,
    ScoreTable,
    cross_validate,
    make_fold_plan,
    r2,
    rmse,
    spearman,
)
from .importance import (
    importance_from_model,
    importance_report,
    joint_importance,
    minmax_normalize,
    reduce_to_groups,
)
from .synth import SynthSpec, TraitCoupling, generate, iter_takes, sample_traits

__version__ = "0.1.0"
