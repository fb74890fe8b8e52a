"""Cells that share a BSP opening train it once, each bit for bit.

An inline executor batch makes the pending cells of one
:func:`~repro.experiments.materialize.opening_key` one work item; every
member's result must equal its own :func:`execute_spec` run, compared
on ``to_dict()`` (no hashes: the checks hold on any BLAS build).
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._lazy import resolve
from repro.core.runtime import ElasticTrainingRun
from repro.errors import ConfigurationError
from repro.experiments.executor import (
    TRAINING_CELL,
    ParallelExecutor,
    RunRequest,
    disk_load,
    disk_store,
)
from repro.experiments.materialize import (
    execute_group,
    execute_spec,
    opening_key,
    train_group,
)
from repro.experiments.setups import SETUPS, switch_spec

SCALE = 0.002


@functools.cache
def standalone(index: int, percent: float, seed: int) -> dict:
    """The cell's own run, trained once per session."""
    spec = switch_spec(percent)
    return execute_spec(SETUPS[index], spec, seed, SCALE).to_dict()


def counting_forks():
    """Counts :meth:`ElasticTrainingRun.fork` calls while installed."""
    return mock.patch.object(
        ElasticTrainingRun,
        "fork",
        autospec=True,
        side_effect=ElasticTrainingRun.fork,
    )


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_every_member_equals_its_own_run(data):
    index = data.draw(st.sampled_from((1, 2, 3)), label="setup")
    seed = data.draw(st.sampled_from((0, 1)), label="seed")
    percents = data.draw(
        st.lists(
            st.sampled_from(SETUPS[index].sweep_percents),
            min_size=2,
            unique=True,
        ),
        label="percents",
    )
    requests = [
        RunRequest(SETUPS[index], switch_spec(percent), seed)
        for percent in percents
    ]
    with counting_forks() as fork:
        results = ParallelExecutor(scale=SCALE, jobs=1).execute(requests)
    for request, percent in zip(requests, percents):
        assert results[request.key(SCALE)].to_dict() == standalone(
            index, percent, seed
        )
    # 0 % is pure ASP and trains alone; the rest share one opening.
    openers = sum(1 for percent in percents if percent > 0)
    assert fork.call_count == max(openers - 1, 0)


def test_the_paper_sweep_grid_shares_its_ends():
    """0 % and 100 % — the sweep's ends — beside every other percent."""
    setup = SETUPS[1]
    requests = [
        RunRequest(setup, switch_spec(percent), 0)
        for percent in setup.sweep_percents
    ]
    results = ParallelExecutor(scale=SCALE, jobs=1).execute(requests)
    for request in requests:
        assert results[request.key(SCALE)].to_dict() == standalone(
            1, request.spec["percent"], 0
        )


BASE = RunRequest(SETUPS[1], switch_spec(25.0), 0)


@pytest.mark.parametrize(
    "spec",
    [
        switch_spec(25.0, stragglers={"n": 1, "latency": 0.01}),
        switch_spec(25.0, online="greedy"),
        switch_spec(25.0, online="elastic"),
        {"kind": "reversed", "percent": 25.0},
        {
            "kind": "schedule",
            "protocols": ["osp", "asp"],
            "fractions": [0.5, 0.5],
        },
        {"kind": "static", "protocol": "asp"},
        switch_spec(0.0),
    ],
    ids=[
        "stragglers",
        "greedy",
        "elastic",
        "reversed",
        "osp-opener",
        "pure-asp",
        "switch-at-0",
    ],
)
def test_an_ineligible_cell_trains_alone(spec):
    assert opening_key(RunRequest(SETUPS[1], spec, 0), SCALE) is None


@pytest.mark.parametrize(
    "other",
    [
        RunRequest(SETUPS[1], switch_spec(50.0, steps_scale=0.5), 0),
        RunRequest(SETUPS[1], switch_spec(50.0, ambient=False), 0),
        RunRequest(SETUPS[1], switch_spec(50.0), 1),
        RunRequest(SETUPS[3], switch_spec(50.0), 0),
        RunRequest(
            SETUPS[1],
            {"kind": "static", "protocol": "bsp", "options": {"batch_size": 64}},
            0,
        ),
    ],
    ids=["steps-scale", "ambient", "seed", "setup", "options"],
)
def test_a_differing_job_is_another_group(other):
    assert opening_key(other, SCALE) is not None
    assert opening_key(other, SCALE) != opening_key(BASE, SCALE)
    with pytest.raises(ConfigurationError):
        list(train_group([BASE, other], SCALE))


def test_the_order_of_options_names_one_opening():
    def static(options):
        spec = {"kind": "static", "protocol": "bsp", "options": options}
        return RunRequest(SETUPS[1], spec, 0)

    first = static({"batch_size": 64, "lr_multiplier": 4.0})
    second = static({"lr_multiplier": 4.0, "batch_size": 64})
    assert opening_key(first, SCALE) is not None
    assert opening_key(first, SCALE) == opening_key(second, SCALE)
    assert first.key(SCALE) == second.key(SCALE)


def test_equal_openings_are_one_group():
    members = [
        BASE,
        RunRequest(SETUPS[1], switch_spec(50.0), 0),
        RunRequest(SETUPS[1], {"kind": "static", "protocol": "bsp"}, 0),
        RunRequest(
            SETUPS[1],
            {
                "kind": "schedule",
                "protocols": ["bsp", "ssp", "asp"],
                "fractions": [0.1, 0.3, 0.6],
            },
            0,
        ),
    ]
    assert len({opening_key(request, SCALE) for request in members}) == 1


def sweep_requests(percents) -> list[RunRequest]:
    return [RunRequest(SETUPS[1], switch_spec(p), 0) for p in percents]


def test_only_the_training_cell_groups():
    """Setup 1's sweep: one item for 0 % (pure ASP, alone) and one for
    the six BSP openers — under the training cell only."""
    requests = sweep_requests(SETUPS[1].sweep_percents)
    pending = {request.key(SCALE): request for request in requests}
    keys = list(pending)  # 0 % first

    def items(cell_fn) -> list[list[str]]:
        executor = ParallelExecutor(scale=SCALE, cell_fn=cell_fn)
        work = executor._work_items(pending)
        return [[key for key, _ in item] for item in work]

    assert items(resolve(TRAINING_CELL)) == [keys[:1], keys[1:]]
    assert items(lambda payload: None) == [[key] for key in keys]


def test_a_custom_cell_fn_sees_every_cell():
    """Cells that share an opening still reach a custom cell function."""
    seen = []

    def record(payload):
        _, _, request, key = payload
        seen.append(request.spec["percent"])
        return key, standalone(1, request.spec["percent"], 0)

    requests = sweep_requests((25.0, 50.0))
    ParallelExecutor(scale=SCALE, jobs=1, cell_fn=record).execute(requests)
    assert seen == [25.0, 50.0]


def test_a_pool_trains_the_same_blobs(tmp_path):
    """A pool runs one cell per item; its blobs equal the lone runs."""
    requests = sweep_requests((3.125, 12.5, 50.0, 100.0))
    results = ParallelExecutor(
        scale=SCALE, cache_dir=tmp_path, jobs=2
    ).execute(requests)
    for request in requests:
        assert results[request.key(SCALE)].to_dict() == standalone(
            1, request.spec["percent"], 0
        )
    assert len(list(tmp_path.glob("*.json"))) == len(requests)


def test_a_group_stores_each_member_once_it_is_trained(tmp_path):
    """A failure while the second member trains keeps the first on disk."""
    requests = sweep_requests((6.25, 25.0, 100.0))
    keys = [request.key(SCALE) for request in requests]
    finish = ElasticTrainingRun.run_to_completion
    calls = []

    def fail_second(run):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("killed")
        return finish(run)

    with mock.patch.object(
        ElasticTrainingRun, "run_to_completion", fail_second
    ), pytest.raises(RuntimeError, match="killed"):
        list(execute_group((SCALE, str(tmp_path), requests, keys)))
    assert [path.stem for path in tmp_path.glob("*.json")] == keys[:1]
    assert disk_load(tmp_path, keys[0]).to_dict() == standalone(1, 6.25, 0)


def test_a_group_loads_the_members_a_sibling_finished(tmp_path):
    """execute_group re-reads every member: a finished one is loaded,
    and the rest still train together."""
    setup = SETUPS[1]
    requests = [
        RunRequest(setup, switch_spec(percent), 0)
        for percent in (6.25, 25.0, 100.0)
    ]
    keys = [request.key(SCALE) for request in requests]
    finished = standalone(1, 25.0, 0)
    disk_store(tmp_path, keys[1], finished)
    with counting_forks() as fork:
        cells = dict(execute_group((SCALE, str(tmp_path), requests, keys)))
    assert sorted(cells) == sorted(keys)
    for key, request in zip(keys, requests):
        assert cells[key] == standalone(1, request.spec["percent"], 0)
    assert fork.call_count == 1
