"""Tests of the benchmark itself: its output checks and its failure accounting."""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import child  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from child import run_cli  # noqa: E402
from partcat import tl  # noqa: E402


def cli_payload(*argv):
    code, out, err = run_cli(argv)
    return {"code": code, "out": out, "err": err, "files": {}}


def rewrite(payload, edit):
    doc = json.loads(payload["out"])
    edit(doc)
    return {**payload, "out": json.dumps(doc)}


def test_decompose_count_changed_is_rejected():
    good = cli_payload("decompose", "--n", "2", "--d", "1", "--json")
    checks.Checker("splitting").check("decompose-2-d1", good, "good")

    def bump(doc):
        doc["summands"][0]["count"] += 1

    with pytest.raises(checks.CheckError):
        checks.Checker("splitting").check("decompose-2-d1", rewrite(good, bump), "bad")


def test_jw_coefficient_altered_is_rejected():
    doc = tl.tl_to_dict(tl.jw(3))
    checks.check_projector(doc, 3)
    term = next(t for t in doc["terms"] if t["pairs"] != [[0, 3], [1, 4], [2, 5]])
    term["coeff"] = f"({term['coeff']}) + 1/7"
    with pytest.raises(checks.CheckError):
        checks.check_projector(doc, 3)


def test_verify_check_flipped_is_rejected():
    doc = json.loads(cli_payload("verify", "--family", "ortho", "--n", "2", "--json")["out"])
    checks.check_verify(doc, "ortho", 2)
    doc["checks"][-1]["pass"] = False
    with pytest.raises(checks.CheckError):
        checks.check_verify(doc, "ortho", 2)


def test_asymmetric_gram_is_rejected():
    doc = json.loads(cli_payload("gram", "--n", "2", "--json")["out"])
    checks.check_gram(doc, 2)
    matrix = doc["matrix"]
    other = next(x for row in matrix for x in row if x != matrix[1][0])
    matrix[0][1] = other
    with pytest.raises(checks.CheckError):
        checks.check_gram(doc, 2)


def test_malformed_request_answered_with_exit_zero_is_rejected():
    checker = checks.Checker("session", workloads.session(1))
    checker.check_session({"malformed.bad-json": {"code": 2, "out": "", "err": "error: bad\n", "files": {}}})
    with pytest.raises(checks.CheckError):
        checker.check_session({"malformed.bad-json": {"code": 0, "out": "", "err": "", "files": {}}})


def test_operation_that_raises_is_counted_failed_and_the_run_goes_on(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"source": 1, "target": 1, "ring": "Qt", "terms": 5}))
    ops = [workloads.Op("raises", ("trace", "-f", str(bad))), workloads.Op("dim", ("dim", "--n", "2", "--json"))]
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([op.to_json() for op in ops]))
    out = child.session(time.monotonic(), "-", str(requests), time.monotonic())
    assert len(out["session_rounds"]) == 2  # a warm-up round and one measured round
    result = bench.Run("session", trace=False)
    for i, rnd in enumerate(out["session_rounds"]):
        for op, rec in zip(ops, rnd["records"]):
            result.record(op.name, rec, measured=i > 0)
    assert (result.attempted, result.failed) == (4, 2)
    assert "TypeError" in result.failures["raises"]
    assert len(result.walls["dim"]) == 1
    assert json.loads(out["session_rounds"][0]["payloads"]["dim"]["out"])["dim"] == "t^2"
