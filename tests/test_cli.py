import hashlib
import json
from importlib import resources

import pytest

from quivinv import cli
from quivinv.cli import main

from conftest import A1_TEXT

KRONECKER = """
[vertices] 0 1
[arrows]
c: 0 -> 1
d: 0 -> 1
[dims]
0 = 1
1 = 1
[K]
[relations]
g = c - d
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def kronecker_file(tmp_path):
    path = tmp_path / "kronecker.quiver"
    path.write_text(KRONECKER, encoding="utf-8")
    return str(path)


class TestGenerators:
    def test_selected_table_count(self, capsys, a1_file):
        code, out, _ = run(
            capsys, "generators", str(a1_file), "--max-len", "2",
            "--select", "ec,fc,fd", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 12
        assert all(e["kind"] == "contraction" for e in payload["generators"])

    def test_unselected_count(self, capsys, a1_file):
        code, out, _ = run(capsys, "generators", str(a1_file), "--max-len", "2", "--format", "json")
        assert json.loads(out)["count"] == 16

    def test_frozen_override_empty(self, capsys, a1_file):
        code, out, _ = run(
            capsys, "generators", str(a1_file), "--max-len", "1", "--K", "", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["K"] == []
        assert payload["count"] == 16
        assert payload["generators"][0]["polynomial"] == "x[c;1,1]"

    def test_text_format(self, capsys, a1_file):
        code, out, _ = run(capsys, "generators", str(a1_file), "--max-len", "1", "--K", "")
        assert out.splitlines()[0] == "x[c;1,1] = x[c;1,1]"

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "generators", "/no/such/file.quiver")
        assert code == 2
        assert "error:" in err

    def test_unknown_selection_is_input_error(self, capsys, a1_file):
        code, _, err = run(capsys, "generators", str(a1_file), "--select", "zz")
        assert code == 2

    def test_byte_identical_json(self, capsys, a1_file):
        _, first, _ = run(capsys, "generators", str(a1_file), "--format", "json")
        _, second, _ = run(capsys, "generators", str(a1_file), "--format", "json")
        assert first == second


class TestKernel:
    def test_unfrozen_zero_bounds_emits_eight(self, capsys, a1_file):
        code, out, _ = run(
            capsys, "kernel", str(a1_file), "--max-u", "0", "--max-w", "0",
            "--K", "", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 8
        assert [g["relation"] for g in payload["generators"]] == ["g1"] * 4 + ["g2"] * 4

    def test_frozen_bounds_one(self, capsys, a1_file):
        code, out, _ = run(capsys, "kernel", str(a1_file), "--format", "json")
        labels = [g["label"] for g in json.loads(out)["generators"]]
        assert "x[e*g2*c;1,1]" in labels

    def test_no_relations_empty_list(self, capsys, tmp_path):
        path = tmp_path / "free.quiver"
        path.write_text(
            "[vertices] 0\n[arrows]\na: 0 -> 0\n[dims]\n0 = 1\n[K] 0\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "kernel", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_overlong_coefficient_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "long.quiver"
        path.write_text(KRONECKER.replace("g = c - d", "g = " + "1" * 5000 + " c - d"))
        code, out, err = run(capsys, "kernel", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 11:")

    def test_seed_is_not_an_option(self, a1_file):
        # only verify and example-a1 draw random trials
        with pytest.raises(SystemExit) as exc:
            main(["kernel", str(a1_file), "--seed", "1"])
        assert exc.value.code == 2


class TestExampleA1:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_format_is_not_an_option(self, fmt):
        # example-a1 always prints JSON
        with pytest.raises(SystemExit) as exc:
            main(["example-a1", "--format", fmt])
        assert exc.value.code == 2


class TestPresent:
    def test_compare_equal(self, capsys, kronecker_file, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("c[1,1] - d[1,1]\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "present", kronecker_file, "--max-len", "1",
            "--compare", str(ref), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["compare"]["equal"] is True
        assert payload["elimination_ideal"] == ["c[1,1] - d[1,1]"]

    def test_compare_unequal_exits_one(self, capsys, kronecker_file, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("c[1,1]\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "present", kronecker_file, "--max-len", "1",
            "--compare", str(ref), "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["compare"]["equal"] is False

    def test_zero_denominator_in_reference_is_input_error(self, capsys, kronecker_file, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("1/0 c[1,1]\n", encoding="utf-8")
        code, _, err = run(capsys, "present", kronecker_file, "--max-len", "1", "--compare", str(ref))
        assert code == 2
        assert "zero denominator" in err

    def test_missing_compare_file_fails_before_the_elimination(self, capsys, a1_file, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("present_invariant_ring called before the compare file was read")

        monkeypatch.setattr(cli, "present_invariant_ring", never)
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, "present", str(a1_file), "--compare", missing)
        assert (code, out) == (2, "")
        assert "missing.txt" in err

    def test_budget_exhaustion_exits_three(self, capsys, a1_file):
        code, _, err = run(
            capsys, "present", str(a1_file), "--max-len", "2",
            "--select", "ec,fc,fd", "--budget", "10",
        )
        assert code == 3
        assert "budget" in err

    def test_negative_budget_is_input_error(self, capsys, a1_file):
        code, out, err = run(capsys, "present", str(a1_file), "--budget", "-1")
        assert (code, out) == (2, "")
        assert "budget must be nonnegative" in err

    def test_budget_covers_the_compare_step(self, capsys, kronecker_file, tmp_path):
        # the elimination takes 2 reduction steps and the reference's basis
        # one more, so a cap of 2 must stop the comparison
        ref = tmp_path / "ref.txt"
        ref.write_text("c[1,1] - d[1,1]\nc[1,1]^2 - d[1,1]^2\n", encoding="utf-8")
        argv = ["present", kronecker_file, "--max-len", "1", "--compare", str(ref)]
        assert run(capsys, *argv, "--budget", "3")[0] == 0
        code, _, err = run(capsys, *argv, "--budget", "2")
        assert code == 3
        assert "budget" in err

    def test_dictionary_lists_fresh_names(self, capsys, kronecker_file):
        code, out, _ = run(capsys, "present", kronecker_file, "--max-len", "1", "--format", "json")
        payload = json.loads(out)
        assert [d["fresh"] for d in payload["dictionary"]] == ["c[1,1]", "d[1,1]"]


class TestVerify:
    def test_passes_on_a1(self, capsys, a1_file):
        code, out, _ = run(capsys, "verify", str(a1_file), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["seed"] == 0

    def test_mutation_fails_with_exit_one(self, capsys, a1_file):
        code, out, _ = run(capsys, "verify", str(a1_file), "--mutate", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert failing and "witness" in failing[0]

    @pytest.mark.parametrize("dims", [(2, 0), (0, 2)])
    def test_zero_dimension_vertex_passes(self, capsys, a1_file, dims):
        text = a1_file.read_text("utf-8")
        a1_file.write_text(
            text.replace("0 = 2\n1 = 2\n", "0 = {}\n1 = {}\n".format(*dims)), encoding="utf-8"
        )
        code, out, _ = run(capsys, "verify", str(a1_file), "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert [c["name"] for c in payload["checks"] if not c["pass"]] == []

    def test_negative_bound_is_input_error(self, capsys, a1_file):
        code, out, err = run(capsys, "verify", str(a1_file), "--max-len", "-1")
        assert (code, out) == (2, "")
        assert "bounds must be nonnegative" in err

    def test_seed_changes_are_echoed(self, capsys, a1_file):
        _, out, _ = run(capsys, "verify", str(a1_file), "--seed", "99", "--format", "json")
        assert json.loads(out)["seed"] == 99


class TestDeformedRelations:
    """Deformed preprojective relations (weight (1,-1), so lambda . v = 0) carry trivial paths."""

    @pytest.fixture()
    def deformed_file(self, tmp_path):
        text = A1_TEXT.replace("g1 = f*c - e*d", "g1 = f*c - e*d - triv(0)")
        text = text.replace("g2 = d*e - c*f", "g2 = d*e - c*f + triv(1)")
        path = tmp_path / "deformed.quiver"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_verify_passes(self, capsys, deformed_file):
        code, out, _ = run(capsys, "verify", deformed_file, "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_present_exits_zero(self, capsys, deformed_file):
        code, out, _ = run(capsys, "present", deformed_file, "--format", "json")
        assert code == 0
        assert json.loads(out)["elimination_ideal"]


DATA = resources.files("quivinv").joinpath("data")

# sha256 of the text-mode stdout on the bundled file, recorded before text
# output was rendered from the JSON payload
TEXT_PINS = {
    "generators": (
        ["--max-len", "2"],
        "853bccaed407b04d5d621e399387111f3d510cb393efe6adcf0758270a18394b",
    ),
    "kernel": (
        ["--max-u", "1", "--max-w", "1"],
        "444c2630d981167fb76a4d1f090fe383c982a4953df7780ae70fedab2e87e65d",
    ),
    "present": (
        ["--select", "ec,fc,fd", "--compare", str(DATA.joinpath("paper13.txt"))],
        "a4c64a1c0e7d8be0cddc1278301a90771b82cc1f9c1e0c493d2e2debcef831a1",
    ),
    "verify": (
        ["--seed", "0"],
        "89079d3efe91162a6af013413d98ace09ac39c45bc96383fa07fc3ec90447808",
    ),
}


@pytest.mark.parametrize("command", sorted(TEXT_PINS))
def test_text_output_is_pinned(capsys, command):
    args, digest = TEXT_PINS[command]
    code, out, _ = run(capsys, command, str(DATA.joinpath("a1_preprojective.quiver")), *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
