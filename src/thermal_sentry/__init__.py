"""Real-time human-presence detection for low-resolution thermal imagery.

Two cheap per-frame detectors (background-subtraction movement and quadrant
region-of-interest) are fused into a hybrid presence verdict that drives a
quadrant-zone safety state machine. The package also ships a deterministic
synthetic-scene generator, a confusion-matrix evaluation harness, and a CLI
for replay, evaluation and synthesis.
"""

from .evaluate import (
    ConfusionMatrix,
    DatasetError,
    EvalReport,
    GroundTruthLabel,
    LatencyStats,
    Method,
    accuracy,
    confusion,
    read_labels,
    run_eval,
    write_labels,
)
from .frame import (
    PgmError,
    QuadrantId,
    ThermalFrame,
    abs_diff,
    load_pgm,
    replay_dir,
    write_pgm,
)
from .hybrid import Detection, hybrid_step
from .motion import (
    MotionConfig,
    MotionResult,
    MotionState,
    motion_init,
    motion_step,
    required_active_count,
)
from .roi import RoiConfig, RoiResult, roi_analyze
from .synth import (
    BlobSpec,
    LabeledDataset,
    SceneError,
    SceneSpec,
    blob_center,
    frame_label,
    generate,
    parse_scene,
    render_frame,
    standard_normals,
)
from .zones import (
    SafetyState,
    ZoneClass,
    ZoneConfig,
    ZoneConfigError,
    ZoneEvent,
    ZoneEventKind,
    ZoneState,
    parse_zone_config,
    zone_update,
)

__version__ = "0.1.0"
