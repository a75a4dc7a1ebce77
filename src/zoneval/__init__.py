"""Zone-by-zone evaluation of object-detection results.

Restricting COCO-style Average Precision to the objects whose box centers lie
in one zone of a partition yields a series of Zone Precisions; their variance
quantifies how unevenly a detector performs across the image. The package
also ships the spatial-weight function, label-assignment simulators, density
and correlation statistics, and synthetic-benchmark generators used to study
that behavior.
"""

from .coco import (
    BBox,
    Category,
    Dataset,
    Detection,
    DetectionSet,
    GroundTruth,
    ImageInfo,
    bbox_center,
    iou,
    load_detections,
    load_ground_truth,
)
from .equilibrium import (
    Anchor,
    AnchorSet,
    AssignConfig,
    AssignmentResult,
    anchor_grid,
    beta_assign,
    object_density,
    se_loss_weight,
    sela_assign,
    spatial_weight,
    supervision_density,
)
from .errors import IngestError, OutsideImageError, PartitionError, UndefinedStatisticError
from .matching import DEFAULT_IOU_THRESHOLDS, EvalConfig
from .synth import QualityProfile, SudokuConfig, ZoneQuality, graded_profile, sudoku_layout, synthetic_benchmark
from .zone_eval import (
    ScaleStudyReport,
    ZoneReport,
    ZoneResult,
    evaluate_zones,
    grid_heatmap,
    scale_bins,
    scale_study,
    zp_variance,
)
from .zones import (
    Annular,
    Custom,
    Grid,
    Partition,
    StripX,
    StripY,
    Zone,
    build_partition,
    parse_zone_spec,
)

__version__ = "0.1.0"
