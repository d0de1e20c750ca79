"""A slice of the extreme-value sweep; see ``tests/extreme_sweep.py``."""

import json

import extreme_sweep
from extreme_sweep import faults, sweep
from vfdielectric.constants import load_constants, serialize_constants


def test_sweep_slice(tmp_path):
    # every seventh exponent of the full sweep, and both extremes; each run's
    # exit code, and each value's digest of its six runs, is checked against
    # the full sweep's files
    runs, _, _, found = sweep(49, tmp_path)
    assert runs == 1122
    assert found == []


def test_a_digest_mismatch_names_each_run(tmp_path, monkeypatch):
    # a wrong pinned digest: the fault line shows what the six runs printed,
    # so a CI log says what moved without a rerun
    real = extreme_sweep._expected

    def wrong(path):
        expected = real(path)
        if path == extreme_sweep.OUTPUTS:
            return {**expected, "hbar": {**expected["hbar"], "1054.571817": "0" * 16}}
        return expected

    monkeypatch.setattr(extreme_sweep, "_expected", wrong)
    rows = json.loads(serialize_constants(load_constants()))
    codes, value_digest, found = faults(rows, "hbar", 1054.571817, str(tmp_path / "constants.json"))
    assert (codes, value_digest) == ("000200", real(extreme_sweep.OUTPUTS)["hbar"]["1054.571817"])
    assert found == [
        f"hbar=1054.571817: the runs' digest {value_digest}, extreme_sweep_outputs.json has "
        "0000000000000000: predict: exit 0, 857 chars of stdout; "
        "predict --include-quarks: exit 0, 1120 chars of stdout; "
        "species --include-quarks: exit 0, 1614 chars of stdout; "
        "sensitivity: exit 2, error: the constants in <constants> give the e_pair dipole "
        "trajectory a coupling lam=1.5557523011275913e+137 outside the first-order band "
        "|lam| < 0.1; "
        "historical: exit 0, 704 chars of stdout; verify: exit 0, 936 chars of stdout"
    ]
