"""mvpad: multi-view projection anomaly detection for segmented CT volumes.

Pipeline: truncated-HU intensity projections of each lung along the three
canonical axes, patch-feature memory banks of normal cases with greedy
coreset subsampling, nearest-neighbor anomaly maps, and 2D-to-3D reverse
projection with percentile min-max normalization for voxel localization.
"""

from .config import PROJECTION_SETS, RunConfig
from .errors import (
    AnomalyFitError,
    ComponentSplitError,
    DimensionMismatchError,
    EmptyMaskError,
    ExtractorMismatchError,
    HeaderFormatError,
    InsufficientDataError,
    InvalidArgumentError,
    MvpadError,
    OverlapError,
    PayloadSizeError,
    UnknownDtypeError,
)
from .evaluation import (
    METRIC_NAMES,
    Calibration,
    ConfusionCounts,
    FoldSplit,
    RocCurve,
    calibrate,
    confusion_metrics,
    counts_at_threshold,
    fold_metrics,
    monte_carlo_splits,
    operating_point,
    patient_score,
    roc_auc,
    summarize_folds,
)
from .features import ExtractorConfig, FeatureGrid, extract_features, grid_dims
from .memory_bank import (
    AnomalyMap2D,
    MemoryBank,
    aggregate_bank,
    anomaly_map,
    bank_filename,
    build_bank,
    bulk_nn_distance,
    coreset_size,
    greedy_coreset,
    load_bank,
    nn_distance,
    save_bank,
)
from .phantom import AnomalySpec, PhantomConfig, generate_case, generate_dataset
from .pipeline import (
    FeatureCache,
    LocalizationResult,
    build_banks,
    calibrate_from_cases,
    case_anomaly_maps,
    compute_case_features,
    load_manifest_cases,
    localize_case,
    monte_carlo_run,
    parallel_map,
    raw_scores,
    run_fold,
)
from .projection import (
    ALL_PROJECTIONS,
    ProjectedImage,
    ProjectedMask,
    ProjectionGeometry,
    ProjectionType,
    aip_project,
    crop_resize_to_canvas,
    mip_project,
    plane_shape,
    prepare_lung_volume,
    project_case,
    project_mask,
)
from .reconstruction import (
    STAGE_FINAL,
    STAGE_PER_LUNG,
    STAGE_PER_PROJECTION,
    AnomalyVolume,
    back_project_plane,
    binarize_top,
    fuse_final,
    fuse_per_lung,
    localization_hit,
    mask_normalize_2d,
    percentile_minmax,
    percentile_nearest_rank,
    reverse_project,
)
from .segmentation import LungPair, dice, iou, split_left_right, threshold_segment_phantom
from .volume import (
    DEFAULT_HU_HI,
    DEFAULT_HU_LO,
    MANIFEST_HEADER,
    CaseRecord,
    Volume,
    load_volume,
    normalize_truncated,
    read_manifest,
    resolve_manifest_path,
    save_volume,
    truncate_hu,
    volumes_equal,
    write_manifest,
)

__version__ = "0.1.0"
