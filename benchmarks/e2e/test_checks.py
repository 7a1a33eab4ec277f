"""The output checks must reject wrong answers; a no-op checker fails here.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import checks
from repro.bench.runner import BenchSpec, run_config

PARTS = {1: [5, 9, 1], 2: [7, 3, 8]}
SORTED = {1: (9, 8, 7), 2: (5, 3, 1)}


def test_sorted_output_passes():
    assert checks.check_sort(PARTS, SORTED) is None


def test_swapped_pair_is_caught():
    assert checks.check_sort(PARTS, {1: (9, 7, 8), 2: (5, 3, 1)})


def test_changed_cardinalities_are_caught():
    assert checks.check_sort(PARTS, {1: (9, 8, 7, 5), 2: (3, 1)})


def test_right_median_passes():
    assert checks.check_select(PARTS, 3, 7) is None


def test_wrong_median_is_caught():
    assert checks.check_select(PARTS, 3, 8)


def test_service_fingerprints_match_the_recomputed_ones():
    for algorithm in ("sort", "select"):
        spec = {"algorithm": algorithm, "p": 4, "k": 4, "n": 64, "seed": 3}
        payload = run_config(BenchSpec(algorithm, 4, 4, 64, 3))
        assert checks.check_job(spec, payload) is None


def test_wrong_fingerprint_is_caught():
    spec = {"algorithm": "sort", "p": 4, "k": 4, "n": 64, "seed": 3}
    assert checks.check_job(spec, {"fingerprint": "0" * 16})


def test_one_wrong_batch_lane_is_caught():
    spec = {"algorithm": "sort", "p": 4, "k": 4, "n": 64, "seed": 3,
            "batch": 2}
    good = [{"fingerprint": checks.expected_fingerprint(spec, b)}
            for b in range(2)]
    assert checks.check_job(spec, {"lanes": good}) is None
    assert checks.check_job(spec, {"lanes": [good[0], good[0]]})
