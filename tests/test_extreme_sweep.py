"""A slice of the extreme-value sweep; see ``tests/extreme_sweep.py``."""

from extreme_sweep import sweep


def test_sweep_slice(tmp_path):
    # every seventh exponent of the full sweep, and both extremes; each run's
    # exit code, and each value's digest of its six runs, is checked against
    # the full sweep's files
    runs, _, _, found = sweep(49, tmp_path)
    assert runs == 1122
    assert found == []
