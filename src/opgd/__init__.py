"""Discriminative linear projections for Gaussian classification and
mixture-based clustering.

The supervised path fits a projection ``V`` by maximizing the
multinomial likelihood of the class labels under projected Gaussian
class densities with diagonal covariances; the unsupervised path
sharpens a fitted Gaussian mixture the same way, with an orthonormality
penalty. Baselines (reduced-rank LDA, SAVE, RDA), metrics, and
evaluation harnesses round out the toolkit; the ``opgd`` console script
fronts everything.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    DataError,
    Dataset,
    DegenerateClassError,
    GaussianClassModel,
    NumericalError,
    OpgdError,
    ScatterMatrices,
    compute_scatter,
    estimate_class_model,
    scatter_from_responsibilities,
    sphere,
)
from .objective import (
    ClampStats,
    classification_log_likelihood,
    ell1,
    ell2,
    grad_ell1,
    grad_ell2,
    grad_objective,
    log_densities,
    posteriors,
    projected_variances,
)
from .optimizer import (
    OptimConfig,
    ascend,
    init_projection,
    maximize,
    order_columns,
)
from .classifier import (
    FitDiagnostics,
    LdaModel,
    OpgdModel,
    RdaModel,
    SaveModel,
    fit_opgd,
    lda_features,
    lda_fit,
    lda_predict,
    predict,
    rda_fit,
    rda_predict,
    save_features,
    save_fit,
    save_predict,
)
from .clustering import (
    ClusterConfig,
    GmmModel,
    cluster_objective,
    enhance_gmm,
    fit_gmm_em,
    grad_cluster_objective,
    hard_labels,
    pca_prefilter,
    responsibilities,
)
from .evaluation import (
    FoldPlan,
    GridSearchResult,
    SplitPlan,
    adjusted_rand_index,
    default_grid,
    grid_search,
    make_folds,
    make_split,
    misclassification_error,
    normalized_mutual_information,
)

__all__ = [name for name in dir() if not name.startswith("_")]
