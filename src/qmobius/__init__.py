"""Quaternionic Moebius transformations and the invariant hyperbolic
geometry of the unit ball and half-space."""

from .errors import (BothZero, CoincidentPoints, ConstraintViolation, DegenerateResult,
                     DivisionByZero, GeometryError, NonFiniteResult, NonImaginaryShift,
                     NotSp11, OutOfDomain, PoleInput, Singular, TooFewSamples, ZeroD)
from .quat import I, J, K, ONE, TOL, ZERO, Quaternion, isclose
from .mat2h import (CAYLEY, CAYLEY_INV, GroupTag, Mat2H, cayley_conjugate,
                    cayley_conjugate_inv, classify, det_h, inverse, normalize)
from .flt import (FLT, INFINITY, Dilation, ExtQuaternion, Generator,
                  Inversion, MobiusCanonical, Rotation, Translation, apply,
                  apply_generator, apply_generators, decompose_generators,
                  ext_from_json, ext_to_json, generator_inverse, generator_matrix,
                  halfspace_general, is_constant, is_infinity, isotropy_at_infinity,
                  jacobian, three_point_map, to_canonical_disc)
from .crossratio import (QuadricF3, cross_ratio, is_concyclic, on_quadric,
                         transform_quadric)
from .hypgeo import (GeodesicDisc, GeodesicHalfspace, cayley, cayley_inv,
                     distance_disc, distance_halfspace, geodesic_disc,
                     geodesic_halfspace, geodesic_sample_halfspace,
                     geodesic_sample_rows, integrated_length_disc, metric_disc,
                     metric_halfspace, normalizing_map)
from .kobayashi import from_c2, kobayashi_distance, non_isometry_witness, to_c2

__version__ = "0.1.0"
