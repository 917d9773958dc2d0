"""The benchmark's own tests.

Run from the repository root (this file is named so that the project's
test suite does not collect it)::

    python3 -m pytest -q perfbench/selftest.py

Every workload runs end to end at a tiny size, plain and traced; each
output check must catch a tampered counter; the tracer must reach names
imported into other modules; and without the program the benchmark must
fail without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402
import streams  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr[-3000:]
    assert result["attempted"] >= 1
    wanted = CONFIG["end_to_end"] if trace == "0" else CONFIG["per_layer"]
    names = {m["name"] for m in wanted}
    if trace == "0":
        names.discard("spec_ms_tail")  # omitted below 40 samples
    assert names <= set(result["metrics"])
    units = {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    if workload == "service-mixed":
        # The inadmissible fractional-trials specs: two per round.
        assert result["failed"] * 7 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture(scope="module")
def property_run():
    from repro.api import ExperimentSpec, Session

    spec = streams.spec_doc("traffic_light", {
        "scenario": "effects", "target": "diffusion", "engine": "parallel-numpy"})
    return spec, Session().run(ExperimentSpec.from_dict(spec)).to_dict()


def _tampered(doc, scenario, **changes):
    doc = copy.deepcopy(doc)
    for key, delta in changes.items():
        doc["campaigns"][scenario][key] += delta
    return doc


def test_checks_pass_on_real_output(property_run):
    spec, doc = property_run
    expect = checks.Expectations()
    assert checks.conservation(spec, doc, expect) == []
    assert checks.scfi_guarantee(spec, doc) == []
    assert checks.oracle_replay([spec], {doc["spec_hash"]: doc}) == []


def test_tampered_counters_are_caught(property_run):
    spec, doc = property_run
    expect = checks.Expectations()
    # A counter that no longer sums to the total.
    assert checks.conservation(spec, _tampered(doc, "stuck1", masked=1), expect)
    # A total the generator cannot have produced (sum kept consistent).
    assert checks.conservation(spec, _tampered(doc, "flip", total_injections=1, detected=1), expect)
    # A single diffusion flip that escaped detection.
    moved = _tampered(doc, "flip", detected=-1, hijacked=1)
    assert checks.scfi_guarantee(spec, moved)
    assert checks.oracle_replay([spec], {doc["spec_hash"]: moved})
    assert checks.same_answer("replay", moved, doc)
    # Stuck-at masking that no longer splits the nets between stuck0/stuck1.
    assert checks.scfi_guarantee(spec, _tampered(doc, "stuck0", masked=1, detected=-1))


def test_tampered_example_is_caught():
    from repro.api import ExperimentSpec, Session

    name, spec, gold = streams.examples(ROOT)[0]
    doc = Session().run(ExperimentSpec.from_dict(spec), engine="parallel-numpy").to_dict()
    assert checks.golden(name, doc, gold) == []
    scenario = next(iter(gold["campaigns"]))
    assert checks.golden(name, _tampered(doc, scenario, masked=1, detected=-1), gold)


def test_tracer_wraps_imported_names_and_restores_them():
    import repro.api.session as session_module
    import repro.core.scfi as scfi_module
    import repro.fi.scenarios as scenarios_module

    originals = (session_module.protect_fsm, scenarios_module.net_placement)
    tracer = layertrace.install(layertrace.Tracer())
    try:
        assert session_module.protect_fsm is scfi_module.protect_fsm
        assert session_module.protect_fsm is not originals[0]
        assert scenarios_module.net_placement is not originals[1]
        from repro.api import FsmSpec, ProtectSpec, Session

        Session().harden(FsmSpec(name="traffic_light"), ProtectSpec())
    finally:
        tracer.uninstall()
    assert (session_module.protect_fsm, scenarios_module.net_placement) == originals
    summary = tracer.summary()
    assert summary["harden"]["calls"] == 1
    # Self time excludes the layout and structure children.
    assert summary["harden"]["self_ms"] < summary["harden"]["total_ms"]
    assert summary["harden.layout"]["calls"] == 1
