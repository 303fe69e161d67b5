"""Smoke test of ``tests/fingerprint.py``, the same-bits check's tool."""
import re

import fingerprint

DIGEST = re.compile(r"[0-9a-f]{64}")


def test_same_lines_on_two_calls():
    first = list(fingerprint.fingerprints("mwu", 0))
    assert first == list(fingerprint.fingerprints("mwu", 0))
    assert len(first) == 10
    for i, (index, _tag, outputs, counts) in enumerate(first):
        assert index == i
        assert DIGEST.fullmatch(outputs) and DIGEST.fullmatch(counts)


def test_several_workloads_in_one_call(capsys):
    assert fingerprint.main(["--workload", "mwu", "accel", "--seeds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == (
        [["mwu", "0"]] * 10 + [["accel", "0"]] * 10)
    mwu = [f"mwu 0 {i} {tag} {outputs} {counts}" for i, tag, outputs, counts
           in fingerprint.fingerprints("mwu", 0)]
    assert lines[:10] == mwu
