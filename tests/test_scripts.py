"""Smoke tests for the scripts the README advertises, run as subprocesses."""

import json
import os
import re
import pathlib
import subprocess
import sys

from hopfib.corpus import (
    SHIPPED_NAMES,
    quantum_m2_presentation,
    quantum_sl2_presentation,
    small_quantum_sl2_presentation,
)
from hopfib.fileio import instance_from_dict

from oracles import parse_presentation

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, check=True)


def test_export_fixtures_writes_loadable_instances_and_presentations(tmp_path):
    run_script("export_fixtures.py", str(tmp_path))
    assert sorted(path.stem for path in tmp_path.glob("*.json")) == sorted(SHIPPED_NAMES)
    for name in SHIPPED_NAMES:
        data = json.loads((tmp_path / f"{name}.json").read_text())
        assert instance_from_dict(data).dim == data["dim"]
    expected = {
        "qsl2": quantum_sl2_presentation(3, 7),
        "usl2": small_quantum_sl2_presentation(3, 7),
        "qm2": quantum_m2_presentation(3, 7),
    }
    assert sorted(path.stem for path in tmp_path.glob("*.pres")) == sorted(expected)
    for name, pres in expected.items():
        again = parse_presentation((tmp_path / f"{name}.pres").read_text())
        assert again.rules == pres.rules
        assert again.weights == pres.weights
        assert again.generators == pres.generators


def test_verify_corpus_prints_seven_agreeing_rows():
    out = run_script("verify_corpus.py", "--seed", "0").stdout
    header, *rows = out.splitlines()
    assert header.split()[7] == "agree"
    assert [row.split()[0] for row in rows] == list(SHIPPED_NAMES)
    assert all(row.split()[7] == "True" for row in rows)


def fibers_and_orbits(out):
    """The fibers/orbits column of verify_corpus.py's table, by instance."""
    return {row.split()[0]: re.search(r"(\[[\d, ]*\])\s*/(\[[\d, ]*\]|-)", row).groups()
            for row in out.splitlines()[1:]}


def test_verify_corpus_local_mode_prints_the_counit_fiber_and_its_orbits():
    # local mode reads the counit fiber alone: its size over its X-orbit sizes
    local = fibers_and_orbits(run_script("verify_corpus.py", "--seed", "0", "--mode", "local").stdout)
    assert list(local) == list(SHIPPED_NAMES)
    assert local["s3c2"] == ("[3]", "[1, 2]")
    assert local["usl2"] == ("[3]", "[1, 1, 1]")
    assert local["q8"] == ("[4]", "[4]")
    assert local["qm2"] == ("[9]", "[9]")  # no antipode: the experiment, as in global mode
