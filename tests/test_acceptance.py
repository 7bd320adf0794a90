"""End-to-end acceptance suite: the twelve release gates and the Sp(1,1)
suite run the invariant registry of qmobius.selftest at acceptance size,
each on its own seed, and two gates hold a wall-time budget.  Each test
prints its report, so a failure shows the measured numbers."""

import json
import math
import time

from qmobius import sampling as smp
from qmobius.selftest import SUITES


def _gate(suite: str, seed: int, size: int, budget_s: float = math.inf):
    """A test that runs one registry suite within its bounds and budget."""
    def test():
        t0 = time.perf_counter()
        report = SUITES[suite](smp.make_rng(seed), size).report()
        elapsed = time.perf_counter() - t0
        print(json.dumps(report), f"elapsed={elapsed:.3f}s")
        assert report["ok"], report
        assert elapsed < budget_s
    return test


test_01_determinant_multiplicative_on_bulk_random_pairs = _gate(
    "binet", 101, 10_000, budget_s=1.0)
test_02_inverse_identity_residual_and_both_forms_agree = _gate("inverse", 102, 10_000)
test_03_induced_maps_compose_as_matrices_and_constants_are_flagged = _gate(
    "homomorphism", 103, 1000)
test_04_cross_ratio_laws_and_concyclicity_criterion = _gate("cross_ratio", 104, 1000)
test_05_quadric_pushforward_tracks_point_images = _gate("quadric", 105, 1000)
test_06_pinned_spot_values = _gate("spots", 106, 1)
test_07_ball_group_and_conjugation_preserve_distance_and_metric = _gate(
    "distance", 107, 1000)
test_08_integrated_length_matches_distance_in_bulk = _gate(
    "integrated", 108, 100, budget_s=10.0)
test_09_cayley_bridge_between_ball_and_halfspace = _gate("cayley", 109, 1000)
test_10_kobayashi_gap_witness_axes_and_positivity = _gate("kobayashi", 110, 500)
test_11_triangle_inequality_in_bulk = _gate("triangle", 111, 10_000)
test_12_induced_maps_are_conformal = _gate("conformal", 112, 100)
test_13_ball_maps_are_tagged_sp11_and_keep_the_ball = _gate("sp11", 113, 1000)
