"""Every output check passes the real output and rejects a corrupted one.

Run:  python3 -m pytest perfbench/tests -q
"""

import copy
import os

import numpy as np
import pytest

from repro.core import cawot_monitor, cawt_monitor, learn_thresholds
from repro.experiments import ExperimentResult
from repro.fi import CampaignConfig, generate_campaign
from repro.serve import MonitorService
from repro.simulation import (CampaignStoreWriter, TraceDataset,
                              replay_campaign, run_campaign)

from perfbench import checks
from perfbench.serve import Fleet

PLATFORM, PATIENT = "glucosym", "B"
SCENARIOS = generate_campaign(CampaignConfig(
    init_glucose_values=(120.0, 200.0), timing_choices=((0, 24),)))[::2]


@pytest.fixture(scope="module")
def traces():
    return run_campaign(PLATFORM, [PATIENT], SCENARIOS, batch_size=8)


@pytest.fixture
def store(tmp_path, traces):
    directory = str(tmp_path / "store")
    with CampaignStoreWriter(directory, PLATFORM, 150, folds=2) as writer:
        run_campaign(PLATFORM, [PATIENT], SCENARIOS, batch_size=8,
                     sink=writer)
    return directory


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------

def _result(rows, headers=("monitor", "FPR", "F1", "paper_us")):
    return ExperimentResult(title="t", headers=headers, rows=rows)


def test_experiment_check_passes_sound_rows():
    assert checks.check_experiment(
        "run_table5", _result([("CAWT", 0.1, 0.8, float("nan"))])) == []


@pytest.mark.parametrize("rows", [
    [],
    [("CAWT", 0.1, float("nan"), 1.0)],
    [("CAWT", 0.1, 1.2, 1.0)],
    [("CAWT", -0.1, 0.8, 1.0)],
])
def test_experiment_check_rejects(rows):
    assert checks.check_experiment("run_table5", _result(rows))


def test_digest_ignores_only_the_overhead_timing_column():
    headers = ("monitor", "mean_us", "paper_us")
    a = [("run_overhead", _result([("CAWT", 5.0, 252.7)], headers))]
    b = [("run_overhead", _result([("CAWT", 6.0, 252.7)], headers))]
    c = [("run_overhead", _result([("CAWT", 5.0, 252.8)], headers))]
    assert checks.rows_digest(a) == checks.rows_digest(b)
    assert checks.rows_digest(a) != checks.rows_digest(c)


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

def test_store_checks_pass_an_intact_store(store, traces):
    dataset = TraceDataset.open(store)
    reference = {i: traces[i] for i in (0, len(traces) - 1)}
    assert checks.check_store_sample(dataset, reference) == []
    hazards = sum(t.hazardous for t in traces)
    assert checks.check_hazard_count(dataset, hazards) == []


def test_store_checks_reject_a_deleted_shard(store, traces):
    dataset = TraceDataset.open(store)
    os.remove(os.path.join(store, dataset.entry(1)["file"]))
    dataset = TraceDataset.open(store)
    assert checks.check_store_sample(dataset, {1: traces[1]})
    hazards = sum(t.hazardous for t in traces)
    assert checks.check_hazard_count(dataset, hazards)


def test_store_sample_rejects_a_changed_trace(store, traces):
    other = traces[1]
    assert checks.check_store_sample(TraceDataset.open(store), {0: other})


def test_replay_check_rejects_a_perturbed_threshold(traces):
    thresholds = learn_thresholds(traces, batch_size=8).thresholds
    alerts = replay_campaign({"CAWT": cawt_monitor(thresholds)}, traces,
                             batch_size=8)["CAWT"]
    assert checks.check_replay(thresholds, traces, alerts) == []
    caught = []
    for name, value in thresholds.items():
        for delta in (-50.0, 50.0):
            perturbed = dict(thresholds, **{name: value + delta})
            caught.append(bool(checks.check_replay(perturbed, traces,
                                                   alerts)))
    assert any(caught)


def test_threshold_check_rejects_a_perturbed_threshold():
    learned = {"beta1": 1.0, "beta2": -2.5}
    assert checks.check_thresholds(learned, dict(learned)) == []
    assert checks.check_thresholds(learned, dict(learned, beta2=-2.4))


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def test_recovered_tick_check_rejects_a_flipped_alert():
    service = MonitorService({"CAWOT": cawot_monitor()})
    fleet = Fleet(200, seed=3)
    result = [service.process(fleet.tick()) for _ in range(30)][-1]
    assert checks.check_recovered_tick(result, copy.deepcopy(result)) == []
    flipped = copy.deepcopy(result)
    flipped.alerts["CAWOT"][7] = not flipped.alerts["CAWOT"][7]
    assert checks.check_recovered_tick(result, flipped)


def test_clean_feed_check():
    assert checks.check_clean_feed(0) == []
    assert checks.check_clean_feed(1)


def test_fleet_is_seeded():
    a, b, c = Fleet(50, seed=1), Fleet(50, seed=1), Fleet(50, seed=2)
    for _ in range(3):
        ta, tb, tc = a.tick(), b.tick(), c.tick()
    assert np.array_equal(ta.cgm, tb.cgm)
    assert not np.array_equal(ta.cgm, tc.cgm)
