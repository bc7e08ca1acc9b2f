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
    "gram-1": ["gram", "--n", "1", "--json"],
    "symmetrizer-21": ["symmetrizer", "--lambda", "2,1", "-o", "{OUT}"],
    "decompose-2-1": ["decompose", "--n", "2", "--d", "1", "--json"],
}


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
