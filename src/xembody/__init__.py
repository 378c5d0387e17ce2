"""Cross-embodiment retargeting of manipulation demonstrations.

The pipeline: parse robot descriptions, sample point-direction contact
templates from finger pads, align a target robot's joint trajectory to a
source demonstration by descending the directional Chamfer distance through
differentiable forward kinematics, then synthesize target-embodiment point
clouds and actions.
"""

from .align import (AlignedTrajectory, AlignmentConfig, FrameDiagnostics, align_frame,
                    align_trajectory, eis_initialize, joint_limit_penalty)
from .augment import (AnchoredTransform, AugmentationSchedule, SpatialTransform,
                      augment_rep_trajectory, augment_scene_cloud, clipped_growth,
                      grid_transforms)
from .chamfer import MetricConfig, dcd, functional_similarity
from .dataset import (DatasetIndex, IndexEntry, ingest_recorded_log, read_demonstration,
                      read_index, write_demonstration, write_dataset, write_index)
from .errors import (AlignmentError, ChecksumError, DatasetError, DatasetFormatError,
                     DescriptionError, KernelBuildError, StructureError, ValidationError,
                     XembodyError)
from .funcrep import (FuncRepTrajectory, FunctionalTemplate, WorldFuncRep, build_template,
                      eval_template, template_trajectory)
from .kinematics import LinkPoseSet, evaluate_world_set, forward_kinematics
from .mesh import TriMesh, box_mesh, sample_surface
from .robot import (Embodiment, EmbodimentManifest, JointSpec, LinkSpec, build_embodiment,
                    load_embodiment, parse_robot_description, serialize_embodiment,
                    validate_embodiment)
from .synth import (Demonstration, PointCloud, SynthConfig, crop_workspace,
                    derive_frame_seed, fps_downsample, generate_actions,
                    mask_robot_points, sample_robot_cloud, synthesize_demonstration,
                    synthesize_observation)

__version__ = "0.1.0"
