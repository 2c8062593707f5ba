"""Single-field mutants of every bundled input end in exit 0 or 2, never a traceback.

Each key of an input, at every depth, is deleted or set to ``null``, ``7``,
``"x"``, ``[]`` or ``{}`` (mutation-based input fuzzing; Zeller et al., *The
Fuzzing Book*). Every mutant runs through the stages from the first one that
reads the file up to ``tcg``. A vulnerability-database mutant runs through
``execute`` against an endpoint nobody listens on, so a database that reads
cleanly ends there in exit 3.

The result files of a seeded demo run are mutated the same way and read by
``report``, and its case files are mutated and run through ``execute``,
against an in-thread simulator, and then ``report``: a mutant ends in exit 0
or 1, or in exit 2 naming the file.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

from vecuforge.cli import EXIT_FINDINGS, EXIT_INFRA, EXIT_OK, EXIT_USAGE, main
from vecuforge.simulator import SimConfig

VALUES = (None, 7, "x", [], {})
UNREACHABLE = "127.0.0.1:1:1"

# input file -> (its flag, the stages that read it or what it produces)
INPUTS = {
    "item.json": ("--item", ("item", "analyze", "concept", "plan", "tcg")),
    "catalog.json": ("--catalog", ("analyze", "concept", "plan", "tcg")),
    "countermeasures.json": ("--countermeasures", ("concept", "plan", "tcg")),
    "attack_trees.json": ("--attack-trees", ("plan", "tcg")),
    "sutdb.json": ("--sutdb", ("tcg",)),
    "scripts/write-data.json": ("--scripts", ("tcg",)),
    "vulndb.json": ("--vulndb", ("execute",)),
}


def mutants(doc):
    """Every single-field mutant of a JSON document, each with its label."""
    paths = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, child in node.items():
                paths.append(path + (key,))
                walk(child, path + (key,))
        elif isinstance(node, list):
            for ix, child in enumerate(node):
                walk(child, path + (ix,))

    walk(doc, ())
    for path in paths:
        for value in ("<deleted>",) + VALUES:
            mutant = copy.deepcopy(doc)
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            if value == "<deleted>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield f"{'/'.join(map(str, path))}={json.dumps(value)}", mutant


@pytest.fixture(scope="module")
def base_run(tmp_path_factory) -> Path:
    run = tmp_path_factory.mktemp("base")
    for stage in ("item", "analyze", "concept", "plan", "tcg"):
        assert main([stage, "--run-dir", str(run)]) == EXIT_OK
    return run


@pytest.mark.parametrize("name", list(INPUTS))
def test_no_mutant_escapes(name, samples_dir, base_run, tmp_path, capsys):
    flag, stages = INPUTS[name]
    doc = json.loads((samples_dir / name).read_text())
    allowed = {EXIT_OK, EXIT_USAGE} | ({EXIT_INFRA} if "execute" in stages else set())
    escapes = []
    count = 0
    for label, mutant in mutants(doc):
        count += 1
        work = tmp_path / str(count)
        run = work / "run"
        shutil.copytree(base_run, run)
        if name.startswith("scripts/"):
            target = work / "scripts"
            shutil.copytree(samples_dir / "scripts", target)
            (target / Path(name).name).write_text(json.dumps(mutant))
        else:
            target = work / name
            target.write_text(json.dumps(mutant))
        for stage in stages:
            try:
                code = main([stage, "--run-dir", str(run), flag, str(target),
                             "--sim-endpoint", UNREACHABLE])
            except Exception as exc:  # noqa: BLE001 - an escape is what the test counts
                escapes.append(f"{label} at {stage}: {type(exc).__name__}: {exc}")
                break
            err = capsys.readouterr().err
            if code not in allowed or (code == EXIT_USAGE and not err.startswith("error: ")):
                escapes.append(f"{label} at {stage}: exit {code}: {err!r}")
                break
            if code != EXIT_OK:
                break
        shutil.rmtree(work)
    assert count > 0
    assert escapes == [], f"{len(escapes)} of {count} mutants escaped:\n" + "\n".join(escapes)


# The item mutants whose defect only the catalog makes one: no impact rating
# for a goal property that a threat maps to.
MISSING_RATINGS = {
    'config_params="<deleted>"', "config_params={}",
    'config_params/impact_ratings="<deleted>"', "config_params/impact_ratings={}",
    *(f'config_params/impact_ratings/{prop}="<deleted>"'
      for prop in ("authentication", "authorization", "confidentiality", "availability")),
}


def test_item_stage_stops_what_analyze_would(samples_dir, tmp_path, capsys):
    """An item mutant that ``item`` accepts, ``analyze`` accepts too, unless
    it lacks an impact rating the catalog's threats need."""
    doc = json.loads((samples_dir / "item.json").read_text())
    late = set()
    for count, (label, mutant) in enumerate(mutants(doc)):
        work = tmp_path / str(count)
        work.mkdir()
        target = work / "item.json"
        target.write_text(json.dumps(mutant))
        run = str(work / "run")
        if (main(["item", "--run-dir", run, "--item", str(target)]) == EXIT_OK
                and main(["analyze", "--run-dir", run]) != EXIT_OK):
            late.add(label)
        shutil.rmtree(work)
    capsys.readouterr()
    assert late == MISSING_RATINGS


# One result of each kind of step detail: none, a fuzz campaign, a database scan.
RESULTS = ("func-neg-req-tc-sessbypass-if-can-000", "fuzz-if-can-000",
           "vulnscan-item-demo-ecu-000")


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory) -> Path:
    # A 400-frame budget keeps the fuzz result's findings, all of one shape, few.
    run = tmp_path_factory.mktemp("demo")
    assert main(["demo", "--run-dir", str(run), "--budget", "400"]) == EXIT_FINDINGS
    return run


@pytest.mark.parametrize("case_id", RESULTS)
def test_no_result_mutant_escapes(case_id, demo_run, capsys):
    path = demo_run / "results" / f"{case_id}.result.json"
    original = path.read_text()
    escapes = []
    count = 0
    try:
        for label, mutant in mutants(json.loads(original)):
            count += 1
            path.write_text(json.dumps(mutant))
            try:
                code = main(["report", "--run-dir", str(demo_run)])
            except Exception as exc:  # noqa: BLE001 - an escape is what the test counts
                escapes.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE) or (
                code == EXIT_USAGE and path.name not in err
            ):
                escapes.append(f"{label}: exit {code}: {err!r}")
    finally:
        path.write_text(original)
    assert count > 0
    assert escapes == [], f"{len(escapes)} of {count} mutants escaped:\n" + "\n".join(escapes)


# Every case of the seeded demo: one per scenario, and the three bindings of
# the negative functional scenario.
CASES = ("func-neg-req-tc-sessbypass-if-can-000", "func-neg-req-tc-sessbypass-if-can-001",
         "func-neg-req-tc-sessbypass-if-can-002", "func-pos-req-tc-sessbypass-if-can-000",
         "fuzz-if-can-000", "pen-req-tc-weakkey-if-can-00-000", "vulnscan-item-demo-ecu-000")


@pytest.mark.parametrize("case_id", CASES)
def test_no_case_mutant_escapes(case_id, demo_run, sim_factory, tmp_path, capsys):
    # A run directory whose only case is the one mutated, so each mutant runs alone.
    run = tmp_path / "run"
    shutil.copytree(demo_run, run, ignore=shutil.ignore_patterns("cases", "results"))
    path = run / "cases" / f"{case_id}.case.json"
    path.parent.mkdir()
    original = json.loads((demo_run / "cases" / path.name).read_text())
    server = sim_factory(SimConfig())
    endpoint = f"127.0.0.1:{server.data_endpoint[1]}:{server.mgmt_endpoint[1]}"
    escapes = []
    count = 0
    for label, mutant in mutants(original):
        count += 1
        path.write_text(json.dumps(mutant))
        for stage in ("execute", "report"):
            try:
                code = main([stage, "--run-dir", str(run), "--sim-endpoint", endpoint])
            except Exception as exc:  # noqa: BLE001 - an escape is what the test counts
                escapes.append(f"{label} at {stage}: {type(exc).__name__}: {exc}")
                break
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE) or (
                code == EXIT_USAGE and path.name not in err
            ):
                escapes.append(f"{label} at {stage}: exit {code}: {err!r}")
                break
            if code == EXIT_USAGE:
                break
    assert count > 0
    assert escapes == [], f"{len(escapes)} of {count} mutants escaped:\n" + "\n".join(escapes)
