"""mvpad: multi-view projection anomaly detection for segmented CT volumes.

Pipeline: truncated-HU intensity projections of each lung along the three
canonical axes, patch-feature memory banks of normal cases with greedy
coreset subsampling, nearest-neighbor anomaly maps, and 2D-to-3D reverse
projection with percentile min-max normalization for voxel localization.

The top level re-exports the names the release gates and the demos use;
everything else is imported from its submodule.
"""

from .config import PROJECTION_SETS, RunConfig
from .errors import EmptyMaskError
from .evaluation import (
    METRIC_NAMES,
    ConfusionCounts,
    confusion_metrics,
    monte_carlo_splits,
    patient_score,
    roc_auc,
)
from .features import ExtractorConfig, FeatureGrid
from .memory_bank import (
    AnomalyMap2D,
    MemoryBank,
    anomaly_map,
    build_bank,
    bulk_nn_distance,
    greedy_coreset,
    load_bank,
    nn_distance,
    save_bank,
)
from .phantom import PhantomConfig, generate_case, generate_dataset
from .pipeline import (
    FeatureCache,
    build_banks,
    calibrate_from_cases,
    compute_case_features,
    load_manifest_cases,
    localize_case,
    monte_carlo_run,
    raw_scores,
)
from .projection import ProjectionType, aip_project, mip_project, project_case
from .reconstruction import mask_normalize_2d, percentile_minmax, reverse_project
from .segmentation import split_left_right
from .volume import Volume, load_volume, save_volume

__version__ = "0.1.0"
