"""Tests of the benchmark's own code.

Run from the root of a checkout:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rep  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_tree():
    # op [0, 100] > a.f [10, 60] > b.g [20, 30], a.f [35, 55] (recursion)
    #            > b.h [70, 90]
    spans = [
        ("op.verify", 0, 100, -1, 0),
        ("a.f", 10, 60, 0, 0),
        ("b.g", 20, 30, 1, 0),
        ("a.f", 35, 55, 1, 0),
        ("b.h", 70, 90, 0, 0),
    ]
    agg = tracer.aggregate(spans)
    ns = 1e-9
    assert agg["a.f.calls"] == 2
    assert agg["a.f.s"] == pytest.approx(50 * ns)  # the nested call is not counted twice
    assert agg["a.self_s"] == pytest.approx((50 - 10 - 20 + 20) * ns)
    assert agg["b.self_s"] == pytest.approx((10 + 20) * ns)
    assert "op.self_s" not in agg
    assert agg["op.verify.s"] == pytest.approx(100 * ns)


def test_tracer_wraps_aliases_by_identity():
    import types

    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.inner")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    work.__module__ = "fakepkg.inner"
    mod.work = work
    user.work = work  # as bound by `from .inner import work`
    sys.modules.update({"fakepkg": pkg, "fakepkg.inner": mod, "fakepkg.user": user})
    try:
        tr = tracer.Tracer()
        assert tr.install(pkg) == 1
        assert user.work is mod.work is not work
        assert user.work(1) == 2
        assert [s[0] for s in tr.spans] == ["inner.work"]
    finally:
        for name in ("fakepkg", "fakepkg.inner", "fakepkg.user"):
            sys.modules.pop(name)


def _report(inst):
    pin = inst.pin
    return {"results": {
        "mode": pin["mode"], "hopf": pin["hopf"], "x_order": pin["x_order"],
        "conditions": dict(pin["conditions"]), "agree": pin["agree"],
        "witnesses": {"fiber_sizes": list(pin["fiber_sizes"]),
                      "orbit_sizes": list(reversed(pin["orbit_sizes"]))},
    }}


@pytest.mark.parametrize("field,value", [
    ("agree", False), ("x_order", 5), ("cond_ii", True), ("fiber_sizes", [9, 1]),
])
def test_gate_rejects_tampered_verdict(field, value):
    inst = workloads.WORKLOADS["groups-bigp"][0]
    good = _report(inst)
    assert workloads.gate(good, inst.pin) == []
    bad = copy.deepcopy(good)
    r = bad["results"]
    if field.startswith("cond_"):
        r["conditions"][field] = value
    elif field in r:
        r[field] = value
    else:
        r["witnesses"][field] = value
    assert workloads.gate(bad, inst.pin) != []
    assert workloads.gate({"results": {}}, inst.pin) != []


def test_shipped_pins_match_expected():
    from hopfib.corpus import shipped_instance

    for inst in workloads.WORKLOADS["corpus7"]:
        exp = shipped_instance(inst.name).expected
        assert inst.pin["x_order"] == exp["x_order"]
        if "conditions" in exp:
            assert set(inst.pin["conditions"].values()) == {exp["conditions"]}
        for key in ("fiber_sizes", "orbit_sizes"):
            if key in exp:
                assert inst.pin[key] == sorted(exp[key])


def test_group_tables():
    from hopfib.corpus import GroupTable

    g = GroupTable.from_cayley(
        workloads.permutation_group_cayley(workloads.GROUP_GENERATORS["s3s3"]))
    assert g.order == 36 and g.identity == 0 and g.center() == [0]


def test_smoke_small_corpus7(tmp_path):
    """Traced run over the corpus7 instances other than qm2."""
    import hopfib
    import hopfib.cli  # noqa: F401  (install wraps loaded modules only)

    small = [i for i in workloads.WORKLOADS["corpus7"] if i.name != "qm2"]
    tr = tracer.Tracer()
    simple_types = rep.install_probes(tr)
    tr.install(hopfib)
    cayley = rep.write_cayley_files(small, str(tmp_path))
    ops, digests, reports = rep.run_instances(
        small, str(tmp_path), 3, cayley, rep.make_call(tr))
    assert [op["error"] for op in ops] == [None] * (2 * len(small))
    assert sorted(digests) == sorted(reports) == sorted(i.name for i in small)
    agg = tracer.aggregate(tr.spans)
    assert agg["op.verify.calls"] == len(small)
    assert agg["rewrite.extract_bialgebra.calls"] == 2
    assert agg["repn.annihilator.calls"] >= len(simple_types) > 0
    assert tr.counters["rewrite.ambiguities"] > 0
    assert tr.counters["linalg.object_path_calls"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    derived = {"rewrite.calls", "repn.annihilators_per_simple", "trace.overhead"}
    assert per_layer - derived <= set(agg) | set(tr.counters)
    props = rep.props(os.path.join(str(tmp_path), "usl2.json"), reports["usl2"])
    assert props["dim"] == 27 and props["max_simple_dim"] == 3 and props["fiber_algebra_is_h"]
    assert json.loads(json.dumps(props)) == props
