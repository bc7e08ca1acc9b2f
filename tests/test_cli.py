import json

import pytest

from partcat import cli
from partcat.delta import VerificationReport
from partcat.pcat import identity, morphism_to_dict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def morphism_file(tmp_path):
    path = tmp_path / "id1.json"
    path.write_text(json.dumps(morphism_to_dict(identity(1))) + "\n")
    return str(path)


class TestExitCodes:
    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "ortho", "--n", "2")
        assert code == 0
        assert "all pass" in out

    def test_verify_cap_is_three(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "deltalg", "--n", "99")
        assert code == 3
        assert "cap" in err

    def test_unknown_verb_is_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag_is_two(self, capsys):
        assert run(capsys, "dim", "--n", "2", "--bogus")[0] == 2

    def test_missing_file_is_two(self, capsys):
        assert run(capsys, "trace", "-f", "/nonexistent/m.json")[0] == 2

    def test_directory_as_input_is_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "compose", "-f", str(tmp_path), "-g", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_directory_as_output_is_two(self, capsys, tmp_path, morphism_file):
        code, _, err = run(capsys, "compose", "-f", morphism_file, "-g", morphism_file, "-o", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_json_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "trace", "-f", str(bad))
        assert code == 2
        assert "offset" in err

    def test_bad_coefficient_is_two(self, capsys, tmp_path):
        doc = {
            "source": 1,
            "target": 1,
            "ring": "Qt",
            "terms": [{"blocks": [[0], [1]], "coeff": "t//2"}],
        }
        bad = tmp_path / "badcoeff.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "trace", "-f", str(bad))
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("coeff", ["1" * 5000, "t^" + "1" * 5000], ids=["integer", "exponent"])
    def test_digit_run_past_the_integer_limit_is_two(self, capsys, tmp_path, coeff):
        doc = {
            "source": 1,
            "target": 1,
            "ring": "Qt",
            "terms": [{"blocks": [[0], [1]], "coeff": coeff}],
        }
        long = tmp_path / "longdigits.json"
        long.write_text(json.dumps(doc))
        code, out, err = run(capsys, "trace", "-f", str(long))
        assert (code, out) == (2, "")
        assert "too long" in err and "position" in err

    @pytest.mark.parametrize("coeff", ["t^1000000", "2^1000000"])
    def test_exponent_past_the_cap_is_three(self, capsys, tmp_path, coeff):
        doc = {
            "source": 1,
            "target": 1,
            "ring": "Qt",
            "terms": [{"blocks": [[0], [1]], "coeff": coeff}],
        }
        big = tmp_path / "bigpower.json"
        big.write_text(json.dumps(doc))
        code, out, err = run(capsys, "trace", "-f", str(big))
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "exponent cap" in err

    def test_deeply_nested_coefficient_is_two(self, capsys, tmp_path):
        doc = {
            "source": 1,
            "target": 1,
            "ring": "Qt",
            "terms": [{"blocks": [[0], [1]], "coeff": "(" * 300 + "1" + ")" * 300}],
        }
        deep = tmp_path / "deepcoeff.json"
        deep.write_text(json.dumps(doc))
        code, out, err = run(capsys, "trace", "-f", str(deep))
        assert (code, out) == (2, "")
        assert "nested too deeply" in err and "position" in err

    def test_deeply_nested_parameter_is_two(self, capsys):
        code, out, err = run(capsys, "dim", "--n", "2", "--ring", "Q", "--t", "(" * 300 + "1" + ")" * 300)
        assert (code, out) == (2, "")
        assert "nested too deeply" in err

    def test_deeply_nested_json_is_two(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(capsys, "trace", "-f", str(deep))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "nested too deeply" in err

    def test_failed_verification_maps_to_one(self, capsys):
        report = VerificationReport("synthetic", 1)
        report.add("broken", identity(1), identity(1).scale(2))

        class Args:
            json = False

        assert cli._report_exit(Args(), report) == 1
        capsys.readouterr()

    def test_gram_cap_is_three(self, capsys):
        assert run(capsys, "gram", "--n", "7")[0] == 3

    @pytest.mark.parametrize(
        "bound, d, code",
        [(["--bound", "0"], "1", 3), (["--bound", "1"], "1", 0), ([], "4", 3)],
        ids=["bound-0", "bound-1", "default-cap"],
    )
    def test_object_split_bound(self, capsys, bound, d, code):
        # a bound of 0 is a cap of 0; with no bound the cap is 3
        got, _, err = run(capsys, "verify", "--family", "object_split", "--d", d, *bound)
        assert got == code
        assert ("capped" in err) == (code == 3)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gram", "--n", "-1"], "negative diagram sizes"),
            (["verify", "--family", "object_split", "--d", "-1"], "d must be nonnegative"),
            (["tl", "negligible", "--n", "-1"], "n must be nonnegative"),
        ],
        ids=["gram", "object-split", "tl-negligible"],
    )
    def test_negative_parameter_is_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--n", "0"],
            ["negligible", "-f", "{partition}"],
            ["verify", "--family", "dplus1", "--n", "2"],
            ["blocks", "--d", "1"],
            ["tl", "negligible", "-f", "{tl}"],
        ],
        ids=["gram", "negligible", "verify", "blocks", "tl-negligible"],
    )
    def test_negative_bound_is_two(self, capsys, tmp_path, argv):
        # a cap below zero is a usage error (2), not a cap that was hit (3)
        files = {"partition": tmp_path / "p.json", "tl": tmp_path / "t.json"}
        files["partition"].write_text(json.dumps(partition_doc()))
        files["tl"].write_text(json.dumps(tl_doc()))
        argv = [arg.format(**files) for arg in argv]
        code, out, err = run(capsys, *argv, "--bound", "-1")
        assert (code, out) == (2, "")
        assert "--bound: must be nonnegative" in err
        assert "must be nonnegative" not in run(capsys, *argv, "--bound", "0")[2]


class TestVerbs:
    def test_trace(self, capsys, morphism_file):
        code, out, _ = run(capsys, "trace", "-f", morphism_file, "--json")
        assert code == 0
        assert json.loads(out) == {"trace": "t"}

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "3", "--json")
        assert json.loads(out)["dim"] == "t^3"
        assert code == 0

    def test_compose_tensor_dual(self, capsys, morphism_file, tmp_path):
        out_path = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "compose", "-f", morphism_file, "-g", morphism_file,
            "-o", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["terms"]
        code, out, _ = run(capsys, "tensor", "-f", morphism_file, "-g", morphism_file)
        assert code == 0 and json.loads(out)["source"] == 2
        code, out, _ = run(capsys, "dual", "-f", morphism_file)
        assert code == 0 and json.loads(out)["source"] == 1

    def test_negligible(self, capsys, morphism_file):
        code, out, _ = run(capsys, "negligible", "-f", morphism_file, "--json")
        assert code == 0
        assert json.loads(out) == {"negligible": False}

    def test_gram_json(self, capsys):
        code, out, _ = run(capsys, "gram", "--n", "1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["matrix"] == [["t", "t"], ["t", "t^2"]]

    def test_verify_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "xn_idempotent", "--n", "3", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["family"] == "xn_idempotent" and doc["overall"] is True
        assert {c["label"] for c in doc["checks"]} == {"x^2 = x", "x* = x"}

    def test_verify_object_split(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "object_split", "--d", "1")
        assert code == 0
        assert "all pass" in out

    def test_block_of(self, capsys):
        code, out, _ = run(
            capsys, "block-of", "--lambda", "1", "--d", "5", "--bound", "8", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["lambda"] == [1] and doc["d"] == 5
        assert [5] in doc["block"]["members"]
        assert doc["block"]["type"] == "infinite"
        assert doc["block"]["index"] == 0

    def test_blocks_count(self, capsys):
        code, out, _ = run(capsys, "blocks", "--d", "2", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["infinite_blocks"] == 2

    def test_symmetrizer(self, capsys, tmp_path):
        out_path = tmp_path / "y.json"
        code, out, _ = run(
            capsys, "symmetrizer", "--lambda", "1,1", "--json", "-o", str(out_path)
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["terms"][0]["coeff"] == "1/2"
        assert json.loads(out_path.read_text())["source"] == 2

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--n", "1", "--d", "1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["summands"] == [
            {"lambda": [], "dim": "1", "count": 1},
            {"lambda": [1], "dim": "0", "count": 1},
        ]

    def test_tl_ops(self, capsys):
        code, out, _ = run(capsys, "tl", "quantum", "--n", "3", "--l", "2", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["quantum"] == "0" and doc["l_q"] == 2
        code, out, _ = run(capsys, "tl", "negligible", "--n", "2", "--l", "2", "--json")
        assert code == 0 and json.loads(out) == {"negligible": True}
        code, out, _ = run(capsys, "tl", "block", "--n", "3", "--l", "2", "--json")
        assert code == 0 and json.loads(out)["block"] == "reg:1"
        code, out, _ = run(capsys, "tl", "jw", "--n", "2", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["kind"] == "tl"

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["decompose", "--n", "2", "--json"], "--t", "-3/2"),
            (["tl", "jw", "--n", "2", "--json"], "--delta", "-1/2"),
            (["dim", "--n", "2", "--ring", "Q"], "--t", "-3/2"),
        ],
        ids=["decompose", "tl-jw", "dim"],
    )
    def test_negative_fraction_as_its_own_argument(self, capsys, argv, option, value):
        # argparse reads only -N and -N.M as numbers; -p/q must work spaced too
        joined = run(capsys, *argv, f"{option}={value}")
        spaced = run(capsys, *argv, option, value)
        assert joined[0] == spaced[0] == 0
        assert joined[1] == spaced[1] != ""

    def test_tl_jw_undefined_is_two(self, capsys):
        code, _, err = run(capsys, "tl", "jw", "--n", "3", "--l", "2")
        assert code == 2
        assert "vanishes" in err

    @pytest.mark.parametrize(
        "argv", [["jw", "--n", "9"], ["steinberg", "--l", "10"]], ids=["jw", "steinberg"]
    )
    def test_tl_projector_past_strand_cap_is_three(self, capsys, monkeypatch, argv):
        # jw(9) has 18 boundary points; the cap is checked before building
        def build(n, ring):
            raise AssertionError("built past the cap")

        monkeypatch.setattr(cli.tl, "jw", build)
        code, out, err = run(capsys, "tl", *argv)
        assert code == 3 and out == ""
        assert "cap 16" in err

    @pytest.mark.parametrize(
        "argv", [["jw", "--n", "9"], ["steinberg", "--l", "10"]], ids=["jw", "steinberg"]
    )
    def test_tl_projector_bound_raises_the_cap(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli.tl, "jw", lambda n, ring: cli.tl.tl_identity(n, ring))
        code, out, _ = run(capsys, "tl", *argv, "--bound", "18", "--json")
        assert code == 0 and json.loads(out)["source"] == 9

    @pytest.mark.parametrize(
        "argv", [["jw", "--n", "8", "--l", "8"], ["steinberg", "--l", "9"]], ids=["jw", "steinberg"]
    )
    def test_tl_projector_at_strand_cap(self, capsys, argv):
        code, out, _ = run(capsys, "tl", *argv, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["source"] == 8 and len(doc["terms"]) == 1430


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--family", "ortho", "--n", "1", "--json")
        _, out2, _ = run(capsys, "verify", "--family", "ortho", "--n", "1", "--json")
        assert out1 == out2
        _, out3, _ = run(capsys, "decompose", "--n", "1", "--d", "0", "--json")
        _, out4, _ = run(capsys, "decompose", "--n", "1", "--d", "0", "--json")
        assert out3 == out4

    def test_io_roundtrip_idempotent(self, capsys, tmp_path):
        # a non-canonical file canonicalizes once, then stays fixed
        doc = {
            "source": 1,
            "target": 1,
            "ring": "Qt",
            "terms": [
                {"blocks": [[1], [0]], "coeff": "0 + 1"},
                {"blocks": [[1, 0]], "coeff": "2 - 1"},
            ],
        }
        first = tmp_path / "in.json"
        first.write_text(json.dumps(doc))
        mid = tmp_path / "mid.json"
        out = tmp_path / "out.json"
        # dual . dual is the identity, so two passes re-serialize the input
        assert cli.main(["dual", "-f", str(first), "-o", str(mid)]) == 0
        assert cli.main(["dual", "-f", str(mid), "-o", str(out)]) == 0
        canonical = out.read_text()
        again = tmp_path / "again.json"
        assert cli.main(["dual", "-f", str(out), "-o", str(again)]) == 0
        assert cli.main(["dual", "-f", str(again), "-o", str(out)]) == 0
        assert out.read_text() == canonical
        blocks = json.loads(canonical)["terms"][0]["blocks"]
        assert blocks == [[0], [1]]


def partition_doc(**fields):
    doc = {"source": 1, "target": 1, "ring": "Qt", "terms": [{"blocks": [[0, 1]], "coeff": "1"}]}
    return {**doc, **fields}


def tl_doc(**fields):
    doc = {"kind": "tl", "source": 1, "target": 1, "ring": "Qratfun",
           "terms": [{"pairs": [[0, 1]], "coeff": "1"}]}
    return {**doc, **fields}


BAD_SHAPES = {
    "coeff-number": lambda make, field: make(terms=[{field: [[0, 1]], "coeff": 3}]),
    "minpoly-number": lambda make, field: make(ring="Qdelta", minpoly=3),
    "t-list": lambda make, field: make(ring="Q", t=[1]),
    # without terms no diagram is built, so only the reader's own checks catch these
    "source-string": lambda make, field: make(source="a", terms=[]),
    "source-negative": lambda make, field: make(source=-1, terms=[]),
    "source-true": lambda make, field: make(source=True),
    "target-true": lambda make, field: make(target=True),
    "point-true": lambda make, field: make(terms=[{field: [[0, True]], "coeff": "1"}]),
}


class TestSchema:
    @pytest.mark.parametrize("kind", ["partition", "tl"])
    @pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
    def test_bad_shape_is_two(self, capsys, tmp_path, kind, shape):
        make, field = (tl_doc, "pairs") if kind == "tl" else (partition_doc, "blocks")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_SHAPES[shape](make, field)))
        code, out, err = run(capsys, "dual", "-f", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["partition", "tl"])
    def test_terms_not_a_list_raises_type_error(self, capsys, tmp_path, kind):
        # kept a TypeError: perfbench's test of a raising operation relies on it
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps((tl_doc if kind == "tl" else partition_doc)(terms=5)))
        with pytest.raises(TypeError, match="terms must be a list, not int"):
            run(capsys, "dual", "-f", str(bad))

    def test_unknown_kind_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(partition_doc(kind="brauer")))
        code, _, err = run(capsys, "trace", "-f", str(bad))
        assert code == 2 and "kind" in err


class TestMixedKinds:
    @pytest.fixture
    def docs(self, tmp_path):
        ring = {"ring": "Qdelta", "minpoly": "d^2 - 2"}
        p, t = tmp_path / "p.json", tmp_path / "t.json"
        p.write_text(json.dumps(partition_doc(**ring)))
        t.write_text(json.dumps(tl_doc(**ring)))
        return str(p), str(t)

    @pytest.mark.parametrize("verb", [("compose",), ("tensor",), ("tl", "compose")])
    def test_mixed_kinds_are_two(self, capsys, docs, verb):
        p, t = docs
        for f, g in ((t, p), (p, t)):
            code, out, err = run(capsys, *verb, "-f", f, "-g", g)
            assert code == 2 and out == ""
            assert "partition vs tl" in err or "tl vs partition" in err

    def test_same_kind_composes(self, capsys, docs):
        _, t = docs
        assert run(capsys, "tl", "compose", "-f", t, "-g", t)[0] == 0

    def test_tl_compose_without_inputs_is_two(self, capsys):
        assert run(capsys, "tl", "compose")[0] == 2
        assert run(capsys, "tl", "trace")[0] == 2
