"""scenemem: an editable 3D scene memory for embodied question answering.

The memory couples four structures — an object scene graph, a per-node
scratchpad, a frame memory and a navigation log — and exposes three
language-callable APIs (find_objects, analyze_objects, analyze_frame) that
let a reasoning agent patch the memory during inference, inside a bounded
call budget with a dual-evidence answer contract.
"""

from .apis import ApiCall, ApiExecutor, Patch, PatchReport, apply_patch
from .backend import (Backend, BackendError, BackendRequest, HttpBackend,
                      RecordingBackend, ReplayBackend, SchemaError,
                      TransportError, validate_response)
from .config import EngineConfig, load_config
from .dataset import Episode, Keyframe, load_dataset
from .geometry import (CameraIntrinsics, DepthMap, PixelMask, PointCloud, Pose,
                       backproject, geometric_overlap, largest_cluster,
                       voxel_downsample)
from .graph import (Detection, Embedding, RelationEdge, SceneGraph, Track,
                    associate, consolidate_captions, edge_discovery_due,
                    merge_detection, vote_score)
from .loop import Answer, EpisodeQuery, answer, run_episode_batch, validate_evidence
from .memory import (FrameMemory, Note, SceneMemory, append_frame, deserialize,
                     init_frame_memory, load_dir, save_dir, serialize)
from .metrics import MetricsReport, evaluate, recall_sweep
from .pipeline import attach_floor_plan, build_ssm
from .scripted import RuleReasoner, ScriptReasoner, ScriptedBackend
from .spatial import (FloorModel, NavLogEntry, OccupancyGrid, RoomModel,
                      build_nav_entry, detect_floors, label_rooms, motion_label,
                      segment_rooms)
from .synth import SyntheticScene, generate_questions, generate_scene

__version__ = "0.1.0"
