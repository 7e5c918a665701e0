"""Statistics for paired high-dimensional per-subject feature matrices.

Two row-aligned feature matrices (n subjects, p and q features) are related
through inter-subject distance matrices: distance-based correlation inference
(permutation test, unbiased distance-correlation t-test, subsampling
confidence intervals) and cross-validated elastic-net sparse CCA with
subcluster decomposition.
"""

from hdpaired.matrixio import (
    ColumnStandardizer,
    FeatureMatrix,
    PairedDataset,
    load_matrix,
    pair,
    save_matrix,
)
from hdpaired.distances import (
    DistanceMatrix,
    distance_matrix,
    upper_triangle,
)
from hdpaired.fcg import (
    BandpassSpec,
    NuisanceMatrix,
    RoiTimeSeries,
    butterworth_bandpass,
    fcg_from_many,
    fcg_from_timeseries,
    ols_residualize,
    pca_regressors,
    pearson_fcg,
)
from hdpaired.inference import (
    BootstrapResult,
    ConfidenceInterval,
    DcorResult,
    PermutationResult,
    bootstrap_distribution,
    dcor_ttest,
    distance_pair_correlation,
    permutation_test,
    rank_correlations,
    report,
    subsample_ci,
    ucenter,
)
from hdpaired.scca import (
    AlignmentPair,
    SccaParams,
    SccaSolver,
    canonical_correlation,
    fit_cca,
    fit_scca,
    project,
)
from hdpaired.model_selection import (
    CvReport,
    FittedSccaModel,
    cv_grid_search,
    default_grid,
    evaluate_test,
    fit_model,
    kfold_partition,
    train_test_split,
)
from hdpaired.subcluster import (
    FeatureClustering,
    SubclusterPairRanking,
    complete_linkage,
    complete_linkage_merges,
    feature_distance_matrix,
    subcluster_cca,
)
from hdpaired.synthgen import (
    PlantedTruth,
    gen_null,
    gen_shared_latent,
    gen_sparse_canonical_pair,
    shared_latent_population_r,
)

__version__ = "0.1.0"
