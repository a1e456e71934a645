"""Failure-mode scenes, pinned end to end.

Each `scenes/<scene>.scene` here is a background-maintenance failure of
Method A: burn-in (the first frame, Method A's own background, holds a
person who then leaves), light switch (an ambient step of about 30
counts) and slow entry (a slow walk-in is absorbed into the background and
leaves a ghost after the exit). `tests/data/<scene>_golden.json` pins what
the commands do on it, with default flags and with `--max-hold-frames 30`:

- the three confusion matrices of `eval --out`;
- `verdict_sha256`, the sha256 of `detect`'s verdicts written as one ASCII
  "1" or "0" per frame;
- `states`, `detect`'s zone state per frame under the scene's zone file
  (`ZONES`), as [state, frames] runs.

The goldens pin the current behaviour, weak spots included: on every scene
Method A stays positive on frames without a person until a hold limit
forces a background refresh. Each run also checks that the hybrid is the
union of the two methods (acceptance C6) and that `detect` and `eval`
agree frame by frame.
"""

import hashlib
import itertools
import json
from pathlib import Path
from unittest import mock

import pytest

from thermal_sentry import evaluate
from thermal_sentry.cli import main

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
# each scene's zone file: README's command-line example, and one that makes
# Q2 a warning zone for the slow entry, which crosses Q2 and then Q3
README_ZONES = "Q0=warning\nQ3=critical\ndebounce=3\n"
ZONES = {
    "burn_in": README_ZONES,
    "light_switch": README_ZONES,
    "slow_entry": "Q2=warning\nQ3=critical\ndebounce=3\n",
}
RUNS = {"default": [], "max_hold_30": ["--max-hold-frames", "30"]}


def observe(dataset, zones, flags):
    """A run's golden entry: eval's matrices, detect's verdict digest and
    zone-state runs. Checks C6 and eval/detect agreement on the way."""
    report, ndjson = dataset.parent / "report.json", dataset.parent / "run.ndjson"
    # run_eval hands confusion() one prediction list per Method, in Method order
    with mock.patch.object(evaluate, "confusion", wraps=evaluate.confusion) as spy:
        assert main(["eval", "--input-dir", str(dataset), "--labels",
                     str(dataset / "labels.csv"), "--out", str(report), *flags]) == 0
    a_preds, b_preds, hybrid_preds = (list(call.args[0]) for call in spy.call_args_list)
    assert hybrid_preds == [a or b for a, b in zip(a_preds, b_preds)]

    assert main(["detect", "--input-dir", str(dataset), "--zones", str(zones),
                 "--out", str(ndjson), *flags]) == 0
    records = [json.loads(line) for line in ndjson.read_text().splitlines()]
    detections = [r for r in records if "verdict" in r]
    assert [r["frame"] for r in detections] == list(range(len(hybrid_preds)))
    assert [r["verdict"] for r in detections] == hybrid_preds
    assert [r["movement"] for r in detections] == a_preds
    assert [any(r["flags"].values()) for r in detections] == b_preds

    matrices = json.loads(report.read_text())["matrices"]
    verdicts = "".join("1" if r["verdict"] else "0" for r in detections)
    states = (r["state"] for r in detections)
    return {
        "matrices": {method: {cell: cells[cell] for cell in ("tp", "fp", "fn", "tn")}
                     for method, cells in matrices.items()},
        "verdict_sha256": hashlib.sha256(verdicts.encode()).hexdigest(),
        "states": [[state, len(list(run))] for state, run in itertools.groupby(states)],
    }


@pytest.fixture(scope="module", params=list(ZONES))
def scene(request, tmp_path_factory):
    """(name, dataset directory, zone file, golden) of one scene."""
    name = request.param
    work = tmp_path_factory.mktemp(name)
    dataset = work / "dataset"
    assert main(["synth", "--scene", str(REPO / "scenes" / f"{name}.scene"),
                 "--out-dir", str(dataset)]) == 0
    zones = work / "zones.cfg"
    zones.write_text(ZONES[name])
    return name, dataset, zones, json.loads((DATA / f"{name}_golden.json").read_text())


@pytest.mark.parametrize("run", RUNS)
def test_scene_matches_its_golden(scene, run):
    name, dataset, zones, golden = scene
    assert golden["scene"] == f"scenes/{name}.scene" and golden["zones"] == ZONES[name]
    assert len(list(dataset.glob("*.pgm"))) == golden["frames"] <= 200
    expected = golden["runs"][run]
    assert expected["flags"] == RUNS[run]
    assert observe(dataset, zones, RUNS[run]) == {
        key: expected[key] for key in ("matrices", "verdict_sha256", "states")}
