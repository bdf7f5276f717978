"""fileio's bulk entry check against the per-entry loop it replaced
(tests/oracles.py::checked_entry_rows), and canonical_json against
json.dumps(obj, sort_keys=True, indent=2) + "\\n"."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfib.cli
from hopfib.cli import main
from hopfib.corpus import (
    SHIPPED_NAMES,
    builtin_group,
    direct_product,
    group_algebra_pair,
    quantum_sl2_kernel,
    small_quantum_sl2,
)
from hopfib.errors import DimensionMismatch
from hopfib.fileio import _checked_entries, canonical_json, corpus_instance_to_dict
from hopfib.linalg import FieldSpec

from oracles import checked_entry_rows
from test_cli import s3s3_big_p

ARITY = {"mul": 4, "comul": 4, "antipode": 3}
INT64_EDGES = [2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64, 7 * 2**64, -1]
# what may sit where a number belongs
SPOILERS = st.one_of(st.integers(), st.sampled_from(INT64_EDGES), st.booleans(), st.floats(),
                     st.text(max_size=2), st.lists(st.integers(0, 3), max_size=2))


@st.composite
def entry_lists(draw, arity: int, n: int):
    """Entries with indices in range and any integer coefficients, up to
    two of them spoiled: a value replaced, an arity changed, or an entry
    that is not a list."""
    coefficient = st.one_of(st.integers(), st.sampled_from(INT64_EDGES))
    rows = draw(st.lists(st.tuples(st.lists(st.integers(0, n - 1), min_size=arity - 1, max_size=arity - 1),
                                   coefficient).map(lambda t: [*t[0], t[1]]), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["index", "coefficient", "arity", "entry"]))
        if not (isinstance(rows[at], list) and len(rows[at]) == arity):  # spoiled already
            kind = "entry"
        if kind == "index":
            rows[at][draw(st.integers(0, arity - 2))] = draw(st.one_of(SPOILERS, st.sampled_from([n, -1])))
        elif kind == "coefficient":
            rows[at][-1] = draw(SPOILERS)
        elif kind == "arity":
            rows[at] = rows[at][:draw(st.integers(0, arity - 1))] or [*rows[at], 0]
        else:
            rows[at] = draw(SPOILERS)
    return rows


class TestBulkEntryCheck:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_the_bulk_check_agrees_with_the_per_entry_loop(self, data):
        key = data.draw(st.sampled_from(sorted(ARITY)))
        n = data.draw(st.integers(1, 5))
        p = data.draw(st.sampled_from([3, 7, 2**31 - 1]))
        rows = data.draw(entry_lists(ARITY[key], n))
        d = {"schema": 1, "field": {"p": p}, "dim": n, "unit": [1] + [0] * (n - 1),
             "mul": [], "comul": [], "counit": [1] * n, key: copy.deepcopy(rows)}
        try:
            want = checked_entry_rows(rows, key, ARITY[key], n, p)
        except DimensionMismatch as exc:
            with pytest.raises(DimensionMismatch) as got:
                _checked_entries(d)
            assert str(got.value) == str(exc)
        else:
            got = _checked_entries(d)[key]
            assert got.dtype == np.int64 and got.shape == (len(rows), ARITY[key])
            assert got.tolist() == [list(row) for row in want]
        assert d[key] == rows  # the input is not written to

    def test_shipped_entries_are_the_loop_s(self, instances):
        for name in SHIPPED_NAMES:
            d = corpus_instance_to_dict(instances(name))
            checked = _checked_entries(d)
            for key in ARITY.keys() & d.keys():
                want = checked_entry_rows(d[key], key, ARITY[key], d["dim"], d["field"]["p"])
                assert checked[key].tolist() == [list(row) for row in want], (name, key)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


JSON_KEYS = st.text(max_size=3)  # non-ASCII included
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from(INT64_EDGES),
                         st.floats(), st.text(max_size=4))
# mostly ints, so that most lists and tables are of ints alone; json writes a bool as true
INTS = st.one_of(st.integers(), st.integers(), st.integers(), st.booleans())
INT_TABLES = st.integers(0, 4).flatmap(
    lambda width: st.lists(st.lists(INTS, min_size=width, max_size=width), max_size=4))
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, INT_TABLES, st.lists(INTS, max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(JSON_KEYS, inner, max_size=4),
                            st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=20)


class TestCanonicalJson:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_it_is_json_dumps_on_json_values(self, obj):
        assert canonical_json(obj) == dumps(obj)

    def test_it_is_json_dumps_on_every_instance(self, instances):
        for inst in [*(instances(name) for name in SHIPPED_NAMES), s3s3_big_p()]:
            d = corpus_instance_to_dict(inst)
            assert canonical_json(d) == dumps(d)

    def test_it_is_json_dumps_on_every_report_of_the_standard_set(self, instances, rebased_big_p,
                                                                  tmp_path, monkeypatch, capsys):
        # verify (global and local, each with and without --uniform-fibers),
        # characters and simples at seeds 0 and 1 on the seven shipped
        # instances, F_p[S3 x S3] at 2**31 - 1, q8 and s3c2 rebased there,
        # F_3[S3] and F_3[S3 x C2] with A the centre, and qsl2 and usl2 at (5, 11)
        written = []

        def checked(obj):
            text = canonical_json(obj)
            written.append(text == dumps(obj))
            return text

        monkeypatch.setattr(hopfib.cli, "canonical_json", checked)
        dicts = {name: corpus_instance_to_dict(instances(name)) for name in SHIPPED_NAMES}
        dicts["s3s3-bigp"] = corpus_instance_to_dict(s3s3_big_p())
        dicts["q8-bigp"], dicts["s3c2-bigp"] = rebased_big_p("q8"), rebased_big_p("s3c2")
        with pytest.warns(UserWarning, match="not semisimple"):
            for name, g in [("f3s3", builtin_group("s3")),
                            ("f3s3c2", direct_product(builtin_group("s3"), builtin_group("c2")))]:
                dicts[name] = corpus_instance_to_dict(group_algebra_pair(FieldSpec(3), g, g.center()))
        dicts["qsl2-5-11"] = corpus_instance_to_dict(quantum_sl2_kernel(5, 11))
        dicts["usl2-5-11"] = corpus_instance_to_dict(small_quantum_sl2(5, 11))
        codes = []
        for name, d in dicts.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(d))
            for argv in (["verify"], ["verify", "--mode", "local"], ["verify", "--uniform-fibers"],
                         ["verify", "--mode", "local", "--uniform-fibers"], ["characters"], ["simples"]):
                for seed in ("0", "1"):
                    codes.append(main([*argv, "--input", str(path), "--seed", seed]))
                    capsys.readouterr()
        # qm2 has no antipode, so --uniform-fibers refuses it (exit 2, no report)
        assert len(codes) == 168 and codes.count(2) == 4
        assert written == [True] * 164
