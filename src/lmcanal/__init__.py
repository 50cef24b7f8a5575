"""Canal and tubular hypersurfaces generated by pseudo null, partially null
and null center curves in Lorentz-Minkowski 4-space, with closed-form
Gaussian/mean curvatures and an independent finite-difference verification
oracle."""

from .canal import (CanalFamily, CurvaturePair, NullCoefficients, RadiusSpec,
                    ShapeSpec, Variant, curvature_closed, evaluate_point,
                    flat_residual, minimal_residual, weingarten_residuals)
from .curves import (CurveClass, CurveSpec, FrameRows, builtin, builtin_names,
                     derive_frame, derive_frames, frame_residuals)
from .expr import Jet, eval_s, eval_value, parse, to_str
from .mesh import (GridSpec, ProjectedMesh, export, export_field, export_obj,
                   sweep)
from .minkowski import inner_rows, triple_cross
from .oracle import (FundamentalForms, SurfaceJet, curvatures_numeric,
                     fundamental_forms, numeric_jet)
from .scene import SceneSpec, bundled_scene, bundled_scene_names, parse_scene
from .verify import VerifyReport, verify_scene

__version__ = "0.1.0"
