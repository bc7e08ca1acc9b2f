"""Byte-for-byte CLI output against stored golden files.

Each case runs one verb on the documents in ``tests/golden/`` and compares
stdout (and the file written by ``-o``, if any) with ``<case>.out`` and
``<case>.file``.  A refactor that changes no behaviour keeps every byte.
"""

from pathlib import Path

import pytest

from partcat import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
P = str(GOLDEN / "partition.json")
T = str(GOLDEN / "tl.json")
PR = str(GOLDEN / "partition-ratfun.json")
PD = str(GOLDEN / "partition-delta.json")

CASES = {
    "compose-partition": ["compose", "-f", P, "-g", P],
    "tensor-partition": ["tensor", "-f", P, "-g", P],
    "dual-partition": ["dual", "-f", P],
    "trace-partition": ["trace", "-f", P, "--json"],
    "negligible-partition": ["negligible", "-f", P, "--json"],
    "compose-tl": ["compose", "-f", T, "-g", T],
    "tensor-tl": ["tensor", "-f", T, "-g", T],
    "dual-tl": ["dual", "-f", T],
    "trace-tl": ["trace", "-f", T, "--json"],
    "negligible-tl": ["negligible", "-f", T, "--json"],
    "tl-compose": ["tl", "compose", "-f", T, "-g", T],
    "tl-trace": ["tl", "trace", "-f", T, "--json"],
    "tl-jw-3": ["tl", "jw", "--n", "3", "--json"],
    "tl-jw-5": ["tl", "jw", "--n", "5", "--json"],
    "tl-jw-6-8": ["tl", "jw", "--n", "6", "--l", "8", "--json"],
    "tl-jw-7": ["tl", "jw", "--n", "7", "--json"],
    "compose-partition-ratfun": ["compose", "-f", PR, "-g", PR],
    "trace-partition-ratfun": ["trace", "-f", PR, "--json"],
    "compose-partition-delta": ["compose", "-f", PD, "-g", PD],
    "trace-partition-delta": ["trace", "-f", PD, "--json"],
    "gram-1": ["gram", "--n", "1", "--json"],
    "gram-2": ["gram", "--n", "2", "--json"],
    "symmetrizer-21": ["symmetrizer", "--lambda", "2,1", "-o", "{OUT}"],
}
CASES.update({f"decompose-2-{d}": ["decompose", "--n", "2", "--d", str(d), "--json"] for d in "012"})
CASES["decompose-2-half"] = ["decompose", "--n", "2", "--t", "1/2", "--json"]  # int and Fraction payloads
FAMILIES = ("deltalg", "deltaj", "dplus1", "ortho", "psi", "azero", "nondegenerate")
CASES.update({f"verify-{fam}-3": ["verify", "--json", "--family", fam, "--n", "3"] for fam in FAMILIES})
CASES["verify-xn_idempotent-5"] = ["verify", "--json", "--family", "xn_idempotent", "--n", "5"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, capsys, tmp_path):
    out_path = tmp_path / "out.json"
    argv = [str(out_path) if a == "{OUT}" else a for a in CASES[case]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()
    expected_file = GOLDEN / f"{case}.file"
    if expected_file.exists():
        assert out_path.read_text() == expected_file.read_text()
    else:
        assert not out_path.exists()
