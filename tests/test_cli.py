import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from hopfib.cli import main
from hopfib.corpus import SHIPPED_NAMES, builtin_group, direct_product, group_algebra_pair, quantum_m2_kernel
from hopfib.fileio import canonical_json, corpus_instance_to_dict, instance_from_dict, write_instance
from hopfib.linalg import FieldSpec

from oracles import random_change_of_basis

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def s3s3_big_p():
    """F_p[S3 x S3] at p = 2**31 - 1 with A its centre: the benchmark's
    groups-bigp algebra, in the builtin direct product's basis."""
    s3s3 = direct_product(builtin_group("s3"), builtin_group("s3"))
    return group_algebra_pair(FieldSpec(2**31 - 1), s3s3, s3s3.center())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def q8_file(tmp_path, capsys):
    path = tmp_path / "q8.json"
    code = main(
        ["corpus", "--family", "group", "--group", "q8",
         "--central-subgroup", "center", "--p", "7", "-o", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


class TestCorpusCommand:
    def test_group_file_written_and_parses(self, q8_file):
        data = json.loads(q8_file.read_text())
        assert data["schema"] == 1
        assert data["dim"] == 8
        inst = instance_from_dict(data)
        assert inst.a.dim == 2

    def test_qsl2_file(self, tmp_path, capsys):
        path = tmp_path / "qsl2.json"
        code = main(["corpus", "--family", "qsl2", "--ell", "3", "--p", "7", "-o", str(path)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(path.read_text())["dim"] == 27

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        code = main(["corpus", "--family", "qsl2", "--ell", "4", "--p", "7",
                     "-o", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "odd" in err

    @pytest.mark.parametrize("subgroup, index", [("0,99", "99"), ("0,-3", "-3")])
    def test_central_subgroup_index_outside_the_group_exits_2(self, tmp_path, capsys, subgroup, index):
        # an index numpy would wrap to an element, and one it would reject
        code = main(["corpus", "--family", "group", "--group", "c3", "--central-subgroup", subgroup,
                     "--p", "7", "-o", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"index {index} " in err and "[0, 3)" in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv, missing", [
        (["--family", "qsl2", "--p", "7"], "--ell"),
        (["--family", "usl2", "--p", "7"], "--ell"),
        (["--family", "qm2", "--p", "7"], "--t"),
        (["--family", "group", "--p", "7"], "--group or --cayley-file"),
    ])
    def test_missing_family_parameter_exits_2_naming_it(self, tmp_path, capsys, argv, missing):
        code = main(["corpus", *argv, "-o", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and missing in err and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("content", [{"table": [[0]]}, [[0]]])
    def test_cayley_file_without_the_key_exits_2_naming_it(self, tmp_path, capsys, content):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(content))
        code = main(["corpus", "--family", "group", "--cayley-file", str(gpath), "--p", "7",
                     "-o", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'cayley'" in err

    def test_group_and_cayley_file_together_exit_2_naming_both(self, tmp_path, capsys):
        gpath = tmp_path / "c5.json"
        gpath.write_text(json.dumps({"cayley": [[(i + j) % 5 for j in range(5)] for i in range(5)]}))
        code = main(["corpus", "--family", "group", "--group", "q8", "--cayley-file", str(gpath),
                     "--p", "7", "-o", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "--group" in err and "--cayley-file" in err
        assert not (tmp_path / "x.json").exists()

    def test_custom_cayley_table(self, tmp_path, capsys):
        cayley = {"cayley": [[(i + j) % 5 for j in range(5)] for i in range(5)]}
        gpath = tmp_path / "c5.json"
        gpath.write_text(json.dumps(cayley))
        out = tmp_path / "c5alg.json"
        code = main(["corpus", "--family", "group", "--cayley-file", str(gpath),
                     "--central-subgroup", "trivial", "--p", "11", "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["dim"] == 5


class TestRoundTrip:
    def test_serialize_parse_serialize_is_identity(self, q8_file):
        raw = q8_file.read_text()
        inst = instance_from_dict(json.loads(raw))
        assert canonical_json(corpus_instance_to_dict(inst)) == raw


class TestAxiomsCommand:
    def test_valid_file_exit_0(self, q8_file, capsys):
        code, report = run(capsys, "axioms", "--input", str(q8_file))
        assert code == 0
        assert report["results"]["passed"] is True

    def test_corrupted_file_exit_1_with_witness(self, q8_file, tmp_path, capsys):
        data = json.loads(q8_file.read_text())
        data["mul"][5][3] = (data["mul"][5][3] + 1) % 7  # bump one coefficient
        bad = tmp_path / "corrupted.json"
        bad.write_text(canonical_json(data))
        code, report = run(capsys, "axioms", "--input", str(bad))
        assert code == 1
        failed = [c for c in report["results"]["checks"] if not c["passed"]]
        assert failed
        assert all(c["witness"] is not None for c in failed)

    def test_unreadable_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        code = main(["axioms", "--input", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_mutated_dense_basis_at_dim_27_exits_2_naming_the_join_budget(self, instances, tmp_path):
        # qsl2 in a dense random basis, with one seeded multiplication
        # coefficient bumped: associativity fails, so Delta-multiplicativity
        # cannot be checked on the generators and reruns over every basis
        # pair, whose sparse joins pass 10**8 pairs and would take
        # gigabytes. The run must stop at linalg.MAX_JOIN_TERMS (in its own
        # process, so a regression costs that process and not the session)
        path = tmp_path / "qsl2_dense.json"
        d = random_change_of_basis(corpus_instance_to_dict(instances("qsl2")), seed=2)
        at = random.Random(0).randrange(len(d["mul"]))
        d["mul"][at][3] = (d["mul"][at][3] + 1) % d["field"]["p"]
        path.write_text(json.dumps(d))
        proc = subprocess.run([sys.executable, "-m", "hopfib.cli", "axioms", "--input", str(path)],
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 2
        assert "linalg.MAX_JOIN_TERMS" in proc.stderr and proc.stdout == ""

    def test_a_rerun_past_the_join_budget_keeps_the_generator_witness(self, instances, tmp_path, capsys,
                                                                      monkeypatch):
        # qsl2 with one seeded coproduct coefficient bumped: Delta-multiplicativity
        # fails on the generators, and its rerun over every basis element joins
        # up to 16425 term pairs. Under a budget of 2000, above every other join
        # of the run (1096 at most), the failure found on G stands as the
        # witness, with a warning, and the run exits 1 for a failed axiom
        import hopfib.linalg

        path = tmp_path / "qsl2_bad_comul.json"
        d = corpus_instance_to_dict(instances("qsl2"))
        at = random.Random(0).randrange(len(d["comul"]))
        d["comul"][at][3] = (d["comul"][at][3] + 1) % d["field"]["p"]
        path.write_text(json.dumps(d))
        code, report = run(capsys, "axioms", "--input", str(path))
        exhaustive = {c["name"]: c for c in report["results"]["checks"]}
        assert code == 1 and exhaustive["comul_multiplicative"]["witness"] == [1, 15]
        monkeypatch.setattr(hopfib.linalg, "MAX_JOIN_TERMS", 2000)
        with pytest.warns(UserWarning, match=r"failure at \(1, 15, 7, 11\), found on the generating set G.*MAX_JOIN_TERMS"):
            code, report = run(capsys, "axioms", "--input", str(path))
        assert code == 1
        assert {c["name"]: c for c in report["results"]["checks"]} == exhaustive


class TestMalformedEntries:
    """Instance files are outside input: entries are checked before use."""

    @pytest.mark.parametrize("command", ["verify", "axioms"])
    @pytest.mark.parametrize("key", ["mul", "comul", "antipode"])
    @pytest.mark.parametrize("index", ["dim", -1])
    def test_index_outside_the_basis_exits_2(self, q8_file, tmp_path, capsys, command, key, index):
        data = json.loads(q8_file.read_text())
        data[key][0][1] = data["dim"] if index == "dim" else index
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main([command, "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("command", ["verify", "axioms"])
    @pytest.mark.parametrize("key", ["mul", "comul", "antipode", "unit", "counit", "subalgebra_A"])
    def test_coefficient_is_read_mod_p(self, q8_file, tmp_path, capsys, command, key):
        # p = 7 divides 7 * 2**64, so the shifted coefficient is the same
        # field element, far outside int64
        data = json.loads(q8_file.read_text())
        assert data["field"]["p"] == 7
        vectors = {"unit": data["unit"], "counit": data["counit"],
                   "subalgebra_A": data["subalgebra_A"]["basis_vectors"][0]}
        row = vectors[key] if key in vectors else data[key][0]
        row[-1] += 7 * 2**64
        shifted = tmp_path / "shifted.json"
        shifted.write_text(json.dumps(data))
        code, report = run(capsys, command, "--input", str(shifted))
        code0, report0 = run(capsys, command, "--input", str(q8_file))
        assert (code, report["results"]) == (code0, report0["results"])


    NUMBERS = {  # where an integer sits: (container, key) in the parsed file
        "field.p": lambda d: (d["field"], "p"),
        "dim": lambda d: (d, "dim"),
        "mul index": lambda d: (d["mul"][0], 1),
        "mul coefficient": lambda d: (d["mul"][0], 3),
        "comul index": lambda d: (d["comul"][0], 0),
        "comul coefficient": lambda d: (d["comul"][0], 3),
        "antipode index": lambda d: (d["antipode"][0], 1),
        "antipode coefficient": lambda d: (d["antipode"][0], 2),
        "unit": lambda d: (d["unit"], 0),
        "counit": lambda d: (d["counit"], 0),
        "subalgebra_A": lambda d: (d["subalgebra_A"]["basis_vectors"][0], 0),
    }

    @pytest.mark.parametrize("command", ["verify", "axioms"])
    @pytest.mark.parametrize("where", sorted(NUMBERS))
    @pytest.mark.parametrize("spell", [lambda x: x + 0.9, float, str, bool],
                             ids=["float", "integral float", "string", "boolean"])
    def test_non_integer_exits_2(self, q8_file, tmp_path, capsys, command, where, spell):
        # int() would truncate 1.9 to 1 and accept "1"; the format is integers only
        data = json.loads(q8_file.read_text())
        container, key = self.NUMBERS[where](data)
        container[key] = spell(container[key])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main([command, "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


    # where a key sits: (container, key) in the parsed file
    KEYS = {
        "field": lambda d: (d, "field"),
        "field.p": lambda d: (d["field"], "p"),
        "dim": lambda d: (d, "dim"),
        "unit": lambda d: (d, "unit"),
        "mul": lambda d: (d, "mul"),
        "comul": lambda d: (d, "comul"),
        "counit": lambda d: (d, "counit"),
        "antipode": lambda d: (d, "antipode"),
        "subalgebra_A": lambda d: (d, "subalgebra_A"),
        "subalgebra_A.basis_vectors": lambda d: (d["subalgebra_A"], "basis_vectors"),
        "basis_labels": lambda d: (d, "basis_labels"),
        "provenance": lambda d: (d, "provenance"),
        "expected": lambda d: (d, "expected"),
    }
    REQUIRED = ["field", "field.p", "dim", "unit", "mul", "comul", "counit",
                "subalgebra_A.basis_vectors"]

    def _exits_2_naming(self, data, key, q8_file, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main([command, "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]

    @pytest.mark.parametrize("command", ["verify", "axioms"])
    @pytest.mark.parametrize("key", REQUIRED)
    def test_missing_required_key_exits_2(self, q8_file, tmp_path, capsys, command, key):
        data = json.loads(q8_file.read_text())
        container, leaf = self.KEYS[key](data)
        del container[leaf]
        self._exits_2_naming(data, key, q8_file, tmp_path, capsys, command)

    @pytest.mark.parametrize("command", ["verify", "axioms"])
    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_key_of_the_wrong_json_type_exits_2(self, q8_file, tmp_path, capsys, command, key):
        # a list where an object belongs and an object where anything else
        # does ("expected" is optional and absent from this file)
        data = json.loads(q8_file.read_text())
        container, leaf = self.KEYS[key](data)
        value = container.get(leaf, {})
        container[leaf] = [value] if isinstance(value, dict) else {"value": value}
        self._exits_2_naming(data, key, q8_file, tmp_path, capsys, command)

    @pytest.mark.parametrize("command", ["verify", "axioms"])
    @pytest.mark.parametrize("labels", [["a"], list(range(8)), ["g"] * 9])
    def test_basis_labels_other_than_dim_strings_exit_2(self, q8_file, tmp_path, capsys, command,
                                                        labels):
        data = json.loads(q8_file.read_text())
        data["basis_labels"] = labels
        self._exits_2_naming(data, "basis_labels", q8_file, tmp_path, capsys, command)

    @pytest.mark.parametrize("key", ["mul", "comul", "antipode"])
    def test_repeated_entries_add_up(self, q8_file, tmp_path, capsys, key):
        data = json.loads(q8_file.read_text())
        p = data["field"]["p"]
        first, rest = data[key][0], data[key][1:]
        code0, report0 = run(capsys, "axioms", "--input", str(q8_file))
        assert code0 == 0
        # the first coefficient c written as c + 1 and p - 1 is the same data
        split = tmp_path / "split.json"
        split.write_text(json.dumps(
            dict(data, **{key: [first[:-1] + [first[-1] + 1], first[:-1] + [p - 1], *rest]})))
        code, report = run(capsys, "axioms", "--input", str(split))
        assert (code, report["results"]) == (code0, report0["results"])
        # the first entry written twice doubles its coefficient
        doubled = tmp_path / "doubled.json"
        doubled.write_text(json.dumps(dict(data, **{key: [first, first, *rest]})))
        code, report = run(capsys, "axioms", "--input", str(doubled))
        assert code == 1
        assert not report["results"]["passed"]


def _malformed_files() -> dict:
    """Every malformed file of TestMalformedEntries, and four more, by case
    id: a function that spoils a parsed q8 file in place."""
    cases = {}

    def put(case, locate, value=None):  # value(data, old); None deletes the key
        def spoil(data):
            container, key = locate(data)
            if value is None:
                del container[key]
            else:
                container[key] = value(data, container[key])
        cases[case] = spoil

    numbers, keys = TestMalformedEntries.NUMBERS, TestMalformedEntries.KEYS
    for key in ("mul", "comul", "antipode"):
        put(f"{key} index dim", lambda d, key=key: (d[key][0], 1), lambda d, old: d["dim"])
        put(f"{key} index -1", lambda d, key=key: (d[key][0], 1), lambda d, old: -1)
    spells = {"float": lambda x: x + 0.9, "integral float": float, "string": str, "boolean": bool}
    for where in numbers:
        for spelling, spell in spells.items():
            put(f"{where} as {spelling}", numbers[where], lambda d, old, spell=spell: spell(old))
    for key in TestMalformedEntries.REQUIRED:
        put(f"no {key}", keys[key])
    for key in keys:
        def wrong_type(d, locate=keys[key]):  # "expected" is absent from the file
            container, leaf = locate(d)
            value = container.get(leaf, {})
            container[leaf] = [value] if isinstance(value, dict) else {"value": value}
        cases[f"{key} of the wrong type"] = wrong_type
    for name, labels in [("one", ["a"]), ("ints", list(range(8))), ("nine", ["g"] * 9)]:
        put(f"basis_labels {name}", lambda d: (d, "basis_labels"), lambda d, old, labels=labels: labels)

    def index_after_coefficient(d):
        d["mul"][0][3] = "1"
        d["mul"][1][0] = d["dim"]
    cases["mul index in entry 1 before a string coefficient in entry 0"] = index_after_coefficient
    put("mul index true", lambda d: (d["mul"][0], 0), lambda d, old: True)
    put("mul index 2**63", lambda d: (d["mul"][0], 0), lambda d, old: 2**63)
    put("mul entry of 3 items", lambda d: (d, "mul"), lambda d, old: [old[0][:3], *old[1:]])
    return cases


MALFORMED_FILES = _malformed_files()
# the error line each case prints, as the per-entry check words it
PINNED_ERRORS = {
    'antipode coefficient as boolean': 'antipode coefficient True is not an integer',
    'antipode coefficient as float': 'antipode coefficient 1.9 is not an integer',
    'antipode coefficient as integral float': 'antipode coefficient 1.0 is not an integer',
    'antipode coefficient as string': "antipode coefficient '1' is not an integer",
    'antipode index -1': 'antipode entry [0, -1, 1] is not 2 indices in [0, 8) and a coefficient',
    'antipode index as boolean': 'antipode index False is not an integer',
    'antipode index as float': 'antipode index 0.9 is not an integer',
    'antipode index as integral float': 'antipode index 0.0 is not an integer',
    'antipode index as string': "antipode index '0' is not an integer",
    'antipode index dim': 'antipode entry [0, 8, 1] is not 2 indices in [0, 8) and a coefficient',
    'antipode of the wrong type': "antipode {'value': [[0, 0, 1], [1, 1, 1], [2, 3, 1], [3, 2, 1], [4, 5, 1], [5, 4, 1], [6, 7, 1], [7, 6, 1]]} is not a list",
    'basis_labels ints': 'basis_labels must be 8 strings, one per basis element',
    'basis_labels nine': 'basis_labels must be 8 strings, one per basis element',
    'basis_labels of the wrong type': "basis_labels {'value': ['g0', 'g1', 'g2', 'g3', 'g4', 'g5', 'g6', 'g7']} is not a list",
    'basis_labels one': 'basis_labels must be 8 strings, one per basis element',
    'comul coefficient as boolean': 'comul coefficient True is not an integer',
    'comul coefficient as float': 'comul coefficient 1.9 is not an integer',
    'comul coefficient as integral float': 'comul coefficient 1.0 is not an integer',
    'comul coefficient as string': "comul coefficient '1' is not an integer",
    'comul index -1': 'comul entry [0, -1, 0, 1] is not 3 indices in [0, 8) and a coefficient',
    'comul index as boolean': 'comul index False is not an integer',
    'comul index as float': 'comul index 0.9 is not an integer',
    'comul index as integral float': 'comul index 0.0 is not an integer',
    'comul index as string': "comul index '0' is not an integer",
    'comul index dim': 'comul entry [0, 8, 0, 1] is not 3 indices in [0, 8) and a coefficient',
    'comul of the wrong type': "comul {'value': [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1], [4, 4, 4, 1], [5, 5, 5, 1], [6, 6, 6, 1], [7, 7, 7, 1]]} is not a list",
    'counit as boolean': 'counit entry True is not an integer',
    'counit as float': 'counit entry 1.9 is not an integer',
    'counit as integral float': 'counit entry 1.0 is not an integer',
    'counit as string': "counit entry '1' is not an integer",
    'counit of the wrong type': "counit {'value': [1, 1, 1, 1, 1, 1, 1, 1]} is not a list",
    'dim as boolean': 'dim True is not an integer',
    'dim as float': 'dim 8.9 is not an integer',
    'dim as integral float': 'dim 8.0 is not an integer',
    'dim as string': "dim '8' is not an integer",
    'dim of the wrong type': "dim {'value': 8} is not an integer",
    'expected of the wrong type': 'expected [{}] is not an object',
    'field of the wrong type': "field [{'p': 7}] is not an object",
    'field.p as boolean': 'field.p True is not an integer',
    'field.p as float': 'field.p 7.9 is not an integer',
    'field.p as integral float': 'field.p 7.0 is not an integer',
    'field.p as string': "field.p '7' is not an integer",
    'field.p of the wrong type': "field.p {'value': 7} is not an integer",
    'mul coefficient as boolean': 'mul coefficient True is not an integer',
    'mul coefficient as float': 'mul coefficient 1.9 is not an integer',
    'mul coefficient as integral float': 'mul coefficient 1.0 is not an integer',
    'mul coefficient as string': "mul coefficient '1' is not an integer",
    'mul entry of 3 items': 'mul entry [0, 0, 0] is not 3 indices in [0, 8) and a coefficient',
    'mul index -1': 'mul entry [0, -1, 0, 1] is not 3 indices in [0, 8) and a coefficient',
    'mul index 2**63': 'mul entry [9223372036854775808, 0, 0, 1] is not 3 indices in [0, 8) and a coefficient',
    'mul index as boolean': 'mul index False is not an integer',
    'mul index as float': 'mul index 0.9 is not an integer',
    'mul index as integral float': 'mul index 0.0 is not an integer',
    'mul index as string': "mul index '0' is not an integer",
    'mul index dim': 'mul entry [0, 8, 0, 1] is not 3 indices in [0, 8) and a coefficient',
    'mul index in entry 1 before a string coefficient in entry 0': 'mul entry [8, 1, 1, 1] is not 3 indices in [0, 8) and a coefficient',
    'mul index true': 'mul index True is not an integer',
    'mul of the wrong type': "mul {'value': [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1], [0, 4, 4, 1], [0, 5, 5, 1], [0, 6, 6, 1], [0, 7, 7, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 3, 1], [1, 3, 2, 1], [1, 4, 5, 1], [1, 5, 4, 1], [1, 6, 7, 1], [1, 7, 6, 1], [2, 0, 2, 1], [2, 1, 3, 1], [2, 2, 1, 1], [2, 3, 0, 1], [2, 4, 6, 1], [2, 5, 7, 1], [2, 6, 5, 1], [2, 7, 4, 1], [3, 0, 3, 1], [3, 1, 2, 1], [3, 2, 0, 1], [3, 3, 1, 1], [3, 4, 7, 1], [3, 5, 6, 1], [3, 6, 4, 1], [3, 7, 5, 1], [4, 0, 4, 1], [4, 1, 5, 1], [4, 2, 7, 1], [4, 3, 6, 1], [4, 4, 1, 1], [4, 5, 0, 1], [4, 6, 2, 1], [4, 7, 3, 1], [5, 0, 5, 1], [5, 1, 4, 1], [5, 2, 6, 1], [5, 3, 7, 1], [5, 4, 0, 1], [5, 5, 1, 1], [5, 6, 3, 1], [5, 7, 2, 1], [6, 0, 6, 1], [6, 1, 7, 1], [6, 2, 4, 1], [6, 3, 5, 1], [6, 4, 3, 1], [6, 5, 2, 1], [6, 6, 1, 1], [6, 7, 0, 1], [7, 0, 7, 1], [7, 1, 6, 1], [7, 2, 5, 1], [7, 3, 4, 1], [7, 4, 2, 1], [7, 5, 3, 1], [7, 6, 0, 1], [7, 7, 1, 1]]} is not a list",
    'no comul': "required key 'comul' is missing",
    'no counit': "required key 'counit' is missing",
    'no dim': "required key 'dim' is missing",
    'no field': "required key 'field' is missing",
    'no field.p': "required key 'field.p' is missing",
    'no mul': "required key 'mul' is missing",
    'no subalgebra_A.basis_vectors': "required key 'subalgebra_A.basis_vectors' is missing",
    'no unit': "required key 'unit' is missing",
    'provenance of the wrong type': "provenance [{'family': 'group', 'group': 'q8', 'p': 7, 'z': 'center'}] is not an object",
    'subalgebra_A as boolean': 'subalgebra_A entry True is not an integer',
    'subalgebra_A as float': 'subalgebra_A entry 1.9 is not an integer',
    'subalgebra_A as integral float': 'subalgebra_A entry 1.0 is not an integer',
    'subalgebra_A as string': "subalgebra_A entry '1' is not an integer",
    'subalgebra_A of the wrong type': "subalgebra_A [{'basis_vectors': [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]}] is not an object",
    'subalgebra_A.basis_vectors of the wrong type': "subalgebra_A.basis_vectors {'value': [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]} is not a list",
    'unit as boolean': 'unit entry True is not an integer',
    'unit as float': 'unit entry 1.9 is not an integer',
    'unit as integral float': 'unit entry 1.0 is not an integer',
    'unit as string': "unit entry '1' is not an integer",
    'unit of the wrong type': "unit {'value': [1, 0, 0, 0, 0, 0, 0, 0]} is not a list",
}


class TestErrorLines:
    """The words and the order of precedence of every entry error are
    pinned: the bulk check hands every fault to the per-entry loop."""

    def test_every_case_is_pinned(self):
        assert sorted(MALFORMED_FILES) == sorted(PINNED_ERRORS)

    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_error_line_is_pinned(self, q8_file, tmp_path, capsys, case):
        data = json.loads(q8_file.read_text())
        MALFORMED_FILES[case](data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for command in ("verify", "axioms"):
            code = main([command, "--input", str(bad)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {PINNED_ERRORS[case]}\n"), command


class TestCharactersCommand:
    def test_q8_characters(self, q8_file, capsys):
        code, report = run(capsys, "characters", "--input", str(q8_file))
        assert code == 0
        assert report["results"]["count"] == 4
        for values in report["results"]["characters"]:
            assert values[0] == 1  # identity group-like maps to 1


class TestSimplesCommand:
    def test_q8_simple_dims(self, q8_file, capsys):
        code, report = run(capsys, "simples", "--input", str(q8_file), "--seed", "1")
        assert code == 0
        dims = [r["dim"] for r in report["results"]["records"]]
        assert dims == [1, 1, 1, 1, 2]


class TestVerifyCommand:
    def test_q8_verify_exit_0_all_true(self, q8_file, capsys):
        code, report = run(capsys, "verify", "--input", str(q8_file),
                           "--mode", "global", "--seed", "7")
        assert code == 0
        conds = report["results"]["conditions"]
        assert all(conds[k] is True for k in ("cond_i", "cond_ii", "cond_iii", "cond_iv"))

    def test_s3c2_verify_exit_0_all_false_agree(self, tmp_path, capsys):
        path = tmp_path / "s3c2.json"
        main(["corpus", "--family", "group", "--group", "s3c2",
              "--central-subgroup", "center", "--p", "7", "-o", str(path)])
        capsys.readouterr()
        code, report = run(capsys, "verify", "--input", str(path),
                           "--mode", "global", "--seed", "7")
        assert code == 0  # conditions all false but they agree
        conds = report["results"]["conditions"]
        assert all(conds[k] is False for k in ("cond_i", "cond_ii", "cond_iii", "cond_iv"))

    def test_non_split_prime_exits_2_naming_e(self, tmp_path, capsys):
        # F_5[C3]: x^2 + x + 1 is irreducible over F_5, so F_5 does not split
        # the algebra and no verdict is given
        path = tmp_path / "c3p5.json"
        assert main(["corpus", "--family", "group", "--group", "c3", "--p", "5",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "does not split H" in captured.err and "= 2 > 1" in captured.err

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_non_central_coideal_subalgebra_without_antipode_exits_2(self, tmp_path, capsys, mode):
        # the span of the nine words in a and b of the quantum 2x2 matrices
        # is a right coideal subalgebra (Delta(a) = a (x) a + b (x) c,
        # Delta(b) = a (x) b + b (x) d), but a and b do not commute
        d = corpus_instance_to_dict(quantum_m2_kernel(3, 7))
        words = [i for i, label in enumerate(d["basis_labels"]) if set(label.split(".")) <= {"1", "a", "b"}]
        assert len(words) == 9
        d["subalgebra_A"] = {"basis_vectors": [[int(j == i) for j in range(d["dim"])] for i in words]}
        path = tmp_path / "qm2_ab.json"
        path.write_text(canonical_json(d))
        code = main(["verify", "--input", str(path), "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the subalgebra must be central" in captured.err

    def test_report_bytes_deterministic(self, q8_file, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        main(["verify", "--input", str(q8_file), "--seed", "3", "--report", str(r1)])
        capsys.readouterr()
        main(["verify", "--input", str(q8_file), "--seed", "3", "--report", str(r2)])
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_uniform_fibers_flag(self, q8_file, capsys):
        code, report = run(capsys, "verify", "--input", str(q8_file),
                           "--uniform-fibers", "--seed", "0")
        assert code == 0
        uf = report["results"]["uniform_fibers"]
        assert uf["consistent"] is True
        assert len(uf["entries"]) == 2

    def test_uniform_fibers_reuses_the_characters_of_verify(self, q8_file, capsys, spy):
        # both reports read the one spectrum of H: one spectrum (of
        # H = F_7[Q8]), no character enumeration, and no spectrum of
        # A = F_7[Z(Q8)]
        import hopfib.cli
        import hopfib.hopf
        import hopfib.repn

        enumerations = spy("enumerate_characters", hopfib.hopf, hopfib.cli)
        spectra = spy("spectrum", hopfib.repn, hopfib.hopf, hopfib.cli)
        code, report = run(capsys, "verify", "--input", str(q8_file), "--uniform-fibers")
        assert code == 0 and len(report["results"]["uniform_fibers"]["entries"]) == 2
        assert enumerations == []
        assert [args[0].dim for args in spectra] == [8]

    def test_uniform_fibers_builds_no_quotient_algebra(self, q8_file, capsys):
        # every fiber's size is read off one ideal closure: no function that
        # builds a quotient algebra, its projection or its induced structure
        # constants runs. Calls are seen by name through a profile hook, so a
        # function of that name anywhere is counted
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            code, report = run(capsys, "verify", "--input", str(q8_file), "--uniform-fibers")
        finally:
            sys.setprofile(None)
        assert code == 0 and len(report["results"]["uniform_fibers"]["entries"]) == 2
        assert {"ideal_closure", "spectrum"} <= called
        assert not called & {"quotient_algebra", "complement_projection", "induced_constants"}

    def test_uniform_fibers_proves_a_subalgebra_once(self, q8_file, capsys, spy):
        # coideal_subalgebra proves A a unital subalgebra at load; the
        # centrality check and the remark take that as given. Counted under
        # every module that binds is_subalgebra
        import hopfib.algebra
        import hopfib.hopf

        owners = [m for m in (hopfib.algebra, hopfib.hopf) if hasattr(m, "is_subalgebra")]
        calls = spy("is_subalgebra", *owners)
        code, report = run(capsys, "verify", "--input", str(q8_file), "--uniform-fibers")
        assert code == 0 and report["results"]["uniform_fibers"]["consistent"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_uniform_fibers_without_antipode_exits_2_before_any_chop(self, tmp_path, capsys, spy, mode):
        # qm2 is a bialgebra without an antipode: the remark's Hopf-subalgebra
        # checks refuse it before the spectrum of H is read
        import hopfib.cli
        import hopfib.hopf
        import hopfib.repn

        path = tmp_path / "qm2.json"
        path.write_text(canonical_json(corpus_instance_to_dict(quantum_m2_kernel(3, 7))))
        spectra = spy("spectrum", hopfib.repn, hopfib.hopf, hopfib.cli)
        code = main(["verify", "--input", str(path), "--mode", mode, "--uniform-fibers"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: A Hopf subalgebra needs an ambient antipode\n"
        assert spectra == []

    def test_input_digest_present(self, q8_file, capsys):
        _, report = run(capsys, "characters", "--input", str(q8_file))
        assert report["input_digest"].startswith("sha256:")
        assert report["timing"] is None

    @pytest.mark.parametrize("name", ["q8", "s3c2"])
    def test_verdict_survives_a_random_basis_at_the_largest_prime(
        self, name, instances, rebased_big_p, tmp_path, capsys
    ):
        # every coefficient is a random element of F_p for p = 2**31 - 1, so
        # any product of field data that wraps in int64 changes the outcome
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rebased_big_p(name)))
        code, report = run(capsys, "verify", "--input", str(path), "--seed", "3")
        assert code == 0
        expected = instances(name).expected
        results = report["results"]
        assert results["x_order"] == expected["x_order"]
        assert all(c is expected["conditions"] for c in results["conditions"].values())
        assert results["witnesses"]["fiber_sizes"] == sorted(expected["fiber_sizes"])
        assert results["witnesses"]["orbit_sizes"] == sorted(expected["orbit_sizes"])

    def test_qm2_experiment_via_cli(self, tmp_path, capsys):
        path = tmp_path / "qm2.json"
        code = main(["corpus", "--family", "qm2", "--t", "3", "--p", "7", "-o", str(path)])
        capsys.readouterr()
        assert code == 0
        code, report = run(capsys, "verify", "--input", str(path),
                           "--mode", "local", "--seed", "7")
        assert code == 0
        results = report["results"]
        assert results["mode"] == "experiment"
        assert results["hopf"] is False
        assert results["conditions"]["cond_iii"] is True
        assert results["witnesses"]["action"] == "two-sided"
        assert results["x_order"] == 9

    def test_uniform_fibers_groups_the_spectrum_once(self, instances, tmp_path, capsys, spy):
        # s3c2 has two fibers: one grouping of the spectrum, one ker(xi) per
        # fiber and one ideal closure per fiber algebra, the counit's shared
        # by the verdict and the remark
        import hopfib.algebra
        import hopfib.cli
        import hopfib.hopf
        import hopfib.specmap

        path = tmp_path / "s3c2.json"
        write_instance(path, instances("s3c2"))
        groupings = spy("fibers", *[m for m in (hopfib.specmap, hopfib.cli) if hasattr(m, "fibers")])
        kernels = spy("character_kernel", hopfib.hopf, hopfib.specmap)
        closures = spy("ideal_closure", hopfib.algebra, hopfib.hopf)
        code, report = run(capsys, "verify", "--input", str(path), "--uniform-fibers")
        assert code == 0 and len(report["results"]["uniform_fibers"]["entries"]) == 2
        assert (len(groupings), len(kernels), len(closures)) == (1, 2, 2)

    @pytest.mark.parametrize("name", ["qsl2", "qm2", "s3s3-bigp"])
    def test_verify_and_characters_split_no_module(self, instances, tmp_path, capsys, spy, name):
        # Prim H is read off the primitive idempotents of the centre of H/R0,
        # once per command: no exact radical, no lifted idempotent, and no
        # module of H or of H/R0 is split
        import hopfib.repn

        path = tmp_path / f"{name}.json"
        write_instance(path, s3s3_big_p() if name == "s3s3-bigp" else instances(name))
        blocks = spy("_primitive_idempotents", hopfib.repn)
        lifts = spy("_lifted_idempotents", hopfib.repn)
        for argv in (["verify"], ["verify", "--mode", "local"], ["characters"]):
            code, report = run(capsys, *argv, "--input", str(path))
            assert code == 0 and report is not None
        assert len(blocks) == 3 and all(args[1] is args[0].trace_radical for args in blocks)
        assert lifts == []

    def test_verify_and_characters_leave_numpy_random_unloaded(self, instances, tmp_path):
        # every route draws its central elements from random.Random;
        # importing numpy.random would cost every run about 5 ms. F_3[S3]
        # takes the exact radical, and simples lifts idempotents
        paths = [tmp_path / "q8.json", tmp_path / "s3s3-bigp.json", tmp_path / "f3s3.json"]
        write_instance(paths[0], instances("q8"))
        write_instance(paths[1], s3s3_big_p())
        write_instance(paths[2], modular_and_unsplit_pairs()["f3s3"])
        script = "\n".join([
            "import contextlib, io, sys",
            "from hopfib.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            *(f"    assert main([{command!r}, '--input', {str(path)!r}]) == 0"
              for path in paths for command in ("verify", "characters", "simples")),
            "print('numpy.random' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("command", ["verify", "characters", "simples"])
    def test_a_negative_seed_exits_2(self, q8_file, capsys, command):
        # the split route refuses it as numpy's generator, which chop seeds, does
        code = main([command, "--input", str(q8_file), "--seed", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: expected non-negative integer\n")

    @pytest.mark.parametrize("command", ["verify", "characters"])
    def test_out_of_memory_exits_2_in_one_line(self, q8_file, capsys, monkeypatch, command):
        import hopfib.cli

        def exhausted(d):
            raise MemoryError

        monkeypatch.setattr(hopfib.cli, "instance_from_dict", exhausted)
        code = main([command, "--input", str(q8_file)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: out of memory in {command}\n")

    @pytest.mark.parametrize("name", ["qsl2", "usl2", "qm2"])
    def test_verify_builds_no_dense_regular_stack(self, instances, tmp_path, capsys, spy, name):
        from hopfib.linalg import SparseTensor

        path = tmp_path / f"{name}.json"
        write_instance(path, instances(name))
        denses = spy("dense", SparseTensor)
        code, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0 and [t.rank for (t,) in denses].count(3) == 0


# sha256 of canonical_json(report["results"]) for each shipped instance and
# command, the same at seeds 0 and 1, as the package gave them before the
# spectrum was read off H/R0, and for s3s3-bigp (F_p[S3 x S3] at
# p = 2**31 - 1, A its centre) as it gave them before Prim H was read off
# the idempotents of the centre; None: the command exits 2 with no report
# (qm2 has no antipode)
PINNED_RESULTS = {
    ("c3", "verify"): "6799f840f8facd48e026e8de6508f57e1a4b3bb50e2b9b9f52ca54bb157b5be3",
    ("c3", "verify-local"): "7b9bb35f6dbc123f750adeb1789065db440958cf4186e047509aee11b5308ff3",
    ("c3", "verify-uniform"): "67969632ffcaa5f43f796fe6a8305879b0fbd1974040f416dc6950012fcd2298",
    ("c3", "characters"): "5ab2f5f9307ef8e6e88642ccdc377329a5dd038010365b9ea777bfc6890d6baf",
    ("c4c2", "verify"): "be7d49be88067d76475f787f30222bc7117e2caeae80f76ad77be946def12d46",
    ("c4c2", "verify-local"): "0a363a67d4a60828cfe5f8e6f45b3732a9d234c848c721a91cf2e5d7aa087ed5",
    ("c4c2", "verify-uniform"): "165bea047c462a6c3efc7fc3131f84f52279fd1a68b47b97faf50393b7e58541",
    ("c4c2", "characters"): "135c78e86ccda2bdbe30b833f184df75cb101a539b1670cc8d55baaf20705caa",
    ("q8", "verify"): "117031a9f0dfa8e958f980e938cd4af3c3d1e49eb5776283605cb205124e8452",
    ("q8", "verify-local"): "3568afa1842b96855534e445bf9c42aab6c1f12f52dade335251e11907777928",
    ("q8", "verify-uniform"): "7233fca29f51e5e226b2968dbb02343b2f04868fbdc4aa22651502c229956276",
    ("q8", "characters"): "ad5fdae9e8ca957640bdb8464cf8a9c68e0733ab1e3bcb1bef268d8cabb9b05f",
    ("s3c2", "verify"): "f9271e3bcdaf5b340054a6e66c97fba0f94fe409aad75d05a8408bc96832117b",
    ("s3c2", "verify-local"): "6540be33012a1d0839787e0a38a36b3c374b5bb23f2946a1d53f83fccdfdc28f",
    ("s3c2", "verify-uniform"): "d78ad8a150e04821b279c199adfb2856089e1d9d541ea6168e706839240fca39",
    ("s3c2", "characters"): "6633139b9c8b828ba1a04140094e6990b0255126815bfe2d505a3072c6c6a00a",
    ("qsl2", "verify"): "be9b4074ea3e878cc87ad49db981e81a6cad257d0a3c555ccaa0d94ec40f8461",
    ("qsl2", "verify-local"): "301acc351bd4aa8f6e8ffa1cd1ca87df24b3e3945fe4dacc27cbe4d71dede8d4",
    ("qsl2", "verify-uniform"): "800d2cff2cc6578222859bc3c29aac2820e1384a4911cdbb3a806b32172a06bf",
    ("qsl2", "characters"): "49f6323a7aa4cafcd1459ef53c9d9b24ae85722adcf42abbd95b67a916269db7",
    ("usl2", "verify"): "4a92367ccafccd1b3fcb32a2419d76d71982dd88ba3477598375128883ad0b5f",
    ("usl2", "verify-local"): "127ef47ccdf9cbf5aa3c03aad1902532adaac66744c27cb32a0bb1c3753af83e",
    ("usl2", "verify-uniform"): "4b94233d126a2acbe2dcf9b061086b8f5495abc8066d01929e914efeaf94b32d",
    ("usl2", "characters"): "a30af0e94685fb4fb07889c7c7c6981623426dfa67fad58d8722abef50b4ad32",
    ("qm2", "verify"): "c4a52314a08208148114698741d79b39c2d49790f11171f0c9692b5a4b54e3ae",
    ("qm2", "verify-local"): "c4a52314a08208148114698741d79b39c2d49790f11171f0c9692b5a4b54e3ae",
    ("qm2", "verify-uniform"): None,
    ("qm2", "characters"): "2a1f06faa6a4c4a1f394192508044ef282c8e50bd62405e62668327a145cb540",
    ("s3s3-bigp", "verify"): "6276425c1e331c12da3d8e28151816d7ede20479692a331b1570a8b26a932c6e",
    ("s3s3-bigp", "verify-local"): "3f9061fbab4625a28ca499ea3eff01d3a5c3808bddb67bdbab38d88e19e66ece",
    ("s3s3-bigp", "verify-uniform"): "ec70731b99bbcc24cd688c6a28b4d63acd6469a57ac26fb0e0e5083192d18d1e",
    ("s3s3-bigp", "characters"): "ce52ac1008ecbec754f1fa7fd785239001e938c97120be21a21285da606268a6",
}
PINNED_COMMANDS = {"verify": ["verify"], "verify-local": ["verify", "--mode", "local"],
                   "verify-uniform": ["verify", "--uniform-fibers"], "characters": ["characters"]}


class TestPinnedReports:
    """A change that only makes the verifier faster must leave its results
    byte for byte as they were."""

    @pytest.mark.parametrize("name", [*SHIPPED_NAMES, "s3s3-bigp"])
    def test_results_digests_are_pinned(self, instances, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        write_instance(path, s3s3_big_p() if name == "s3s3-bigp" else instances(name))
        for command, argv in PINNED_COMMANDS.items():
            want = PINNED_RESULTS[name, command]
            for seed in ("0", "1"):
                code, report = run(capsys, *argv, "--input", str(path), "--seed", seed)
                got = report and hashlib.sha256(canonical_json(report["results"]).encode()).hexdigest()
                assert (code, got) == ((0, want) if want else (2, None)), (command, seed)


def modular_and_unsplit_pairs():
    """The pairs on which Prim H is read off H/J(H) rather than H/R0, or off a
    centre that F_p does not split: F_3[S3] and F_3[S3 x C2] (modular group
    algebras, R0 = H) and F_p[C4] at p = 2**31 - 1, A = F_p[C2], where
    x**2 + 1 is irreducible."""
    with pytest.warns(UserWarning, match="not semisimple"):
        f3s3 = group_algebra_pair(FieldSpec(3), builtin_group("s3"), [0])
        s3c2 = direct_product(builtin_group("s3"), builtin_group("c2"))
        f3s3c2 = group_algebra_pair(FieldSpec(3), s3c2, s3c2.center())
    return {"f3s3": f3s3, "f3s3c2": f3s3c2,
            "c4c2-bigp": group_algebra_pair(FieldSpec(2**31 - 1), builtin_group("c4"), [0, 2])}


# sha256 of canonical_json(report["results"]) of simples, the same at seeds 0
# and 1, as the package gave them while simples still chopped the regular
# module
PINNED_SIMPLES = {
    "c3": "82d6adb269494378a4c59411e49e7f3eb9638881851d968c9471d20b0eac8ef7",
    "c4c2": "413ec1550a7cb80230d87cfc6fd83bf7421ef41b5da7ef53cbfeb7339c00325d",
    "q8": "97206763a0f21798a89d79579147fc97dcd482592c35c16851f12b9af62a076b",
    "s3c2": "070d027b0b75909932dc05725c309f75375e2e85ab441fd225f098b452e80232",
    "qsl2": "aac7ab4255d768d710820fc603eb11475235ad3e5014fe05c4b15948e4825b31",
    "usl2": "a90f9e2015cd16cbd37e5053fcb0847cafe0b1dd14d9229fe95e45e6d9ad40f9",
    "qm2": "cde58f335ff01a27d62d77e3f88319c23a1d5652ae4effba45fac076142b9436",
    "s3s3-bigp": "bae2712a171090ab38572c64470fbea88bf3e8aecc51423c8588094a057e4051",
    "f3s3": "9ef6a901d8580f62097f44c39d49a84edc6a7f6d071a3f20d7596561d0b144e0",
    "f3s3c2": "9a1a2dd2e7a200a6588960ea6f710bc3daf5f6e9898519812119ee8038a44732",
    "c4c2-bigp": "cccdf4562af6bcc8a8782b94453d1be5e6e50d523c3593e5725e5a615c2868c4",
}


class TestPinnedSimples:
    """simples reports the dimension, multiplicity and annihilator of every
    simple module; a change of route must leave them byte for byte."""

    @pytest.mark.parametrize("name", list(PINNED_SIMPLES))
    def test_simples_digests_are_pinned(self, instances, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        if name in SHIPPED_NAMES:
            inst = instances(name)
        else:
            inst = s3s3_big_p() if name == "s3s3-bigp" else modular_and_unsplit_pairs()[name]
        write_instance(path, inst)
        for seed in ("0", "1"):
            code, report = run(capsys, "simples", "--input", str(path), "--seed", seed)
            got = hashlib.sha256(canonical_json(report["results"]).encode()).hexdigest()
            assert (code, got) == (0, PINNED_SIMPLES[name]), seed
