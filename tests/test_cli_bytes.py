import math

import pytest

import cli_replay
from anomaly_forge import spectral_oracle
from anomaly_forge.perturbation import TraceSamples

_RECORDED = cli_replay.load()
_CASE_A_TRACE = ("trace --method oracle --potential inverse-square:alpha=50 "
                 "--lambda-min 5 --lambda-max 50 --points 8")


# Exit code, stdout and stderr of every command of cli_bytes.json, byte for
# byte, as recorded: no other test holds a command's expected bytes.  A change
# that moves them on purpose re-records the file with tests/cli_replay.py and
# lists each moved line in CHANGES.md.  Two kinds of byte are pinned all the
# same.  The first-order Coulomb gamma_err and fit_residual are rounding noise
# of an exact power law; they move with any last-bit change in w1.  The oracle
# traces carry all 17 digits: reorganising the oracle's work (batching, the
# order of the sweep, the classical term) must leave them alone, and the
# case-A digits move only on purpose, with the bias fix of ROADMAP items 4
# and 14.
@pytest.mark.parametrize("record", _RECORDED, ids=[r["command"] for r in _RECORDED])
def test_replay_gives_the_recorded_bytes(record):
    assert cli_replay.run(record["command"]) == record


def test_one_ulp_in_one_oracle_value_fails_the_replay(monkeypatch):
    # the replay compares every byte, and the CSV carries 17 digits: one ulp
    # of one case-A value moves one stdout line, and the recorder names it
    (record,) = (r for r in _RECORDED if r["command"] == _CASE_A_TRACE)
    oracle_trace = spectral_oracle.oracle_trace

    def nudged(*args, **kwargs):
        s = oracle_trace(*args, **kwargs)
        values = list(s.values)
        values[3] = math.nextafter(values[3], math.inf)
        return TraceSamples(s.lambdas, tuple(values), s.errors, s.source, s.spec, s.units)

    monkeypatch.setattr(spectral_oracle, "oracle_trace", nudged)
    got = cli_replay.run(_CASE_A_TRACE)
    assert got != record
    header, old, new = cli_replay.moved([record], [got])
    assert header == _CASE_A_TRACE + "\n"
    assert (old, new) == ("- stdout " + record["stdout"][4], "+ stdout " + got["stdout"][4])


def test_the_recording_is_machine_written():
    # each command once, and the file exactly as the recorder writes it, so
    # that a hand edit shows as a failure here
    commands = [r["command"] for r in _RECORDED]
    assert len(set(commands)) == len(commands)
    assert cli_replay.DATA.read_text(encoding="utf-8") == cli_replay.dumps(_RECORDED)
