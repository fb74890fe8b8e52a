"""Tests for the sharded parameter server."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsim.parameter_server import ShardedParameterServer
from repro.errors import ConfigurationError
from repro.mlcore.optim import MomentumSGD
from repro.mlcore.params import ParameterLayout


def make_ps(size=10, n_shards=3, momentum=0.9) -> ShardedParameterServer:
    layout = ParameterLayout({"w": (size,)})
    initial = np.arange(size, dtype=np.float64)
    return ShardedParameterServer(layout, initial, n_shards, momentum=momentum)


def test_pull_returns_frozen_snapshot_and_version():
    ps = make_ps()
    params, version = ps.pull()
    assert version == 0
    with pytest.raises(ValueError):
        params[0] = 999.0  # snapshots are read-only views
    ps.push(np.ones(10), lr=0.1)
    # Copy-on-write: the push must not leak into the outstanding snapshot.
    assert np.array_equal(params, np.arange(10, dtype=np.float64))
    assert not np.array_equal(ps.peek(), params)


def test_snapshots_stay_frozen_across_many_pushes():
    ps = make_ps(momentum=0.0)
    snapshots = []
    for _ in range(4):
        snapshots.append(ps.pull())
        ps.push(np.ones(10), lr=0.1)
    for age, (snapshot, version) in enumerate(snapshots):
        # Each snapshot shows the value as of its pull version.
        expected = np.arange(10, dtype=np.float64) - 0.1 * age
        assert np.allclose(snapshot, expected)
        assert version == age


def test_push_without_outstanding_snapshot_mutates_in_place():
    ps = make_ps()
    buffer = ps.peek()
    ps.push(np.ones(10), lr=0.1)
    assert ps.peek() is buffer  # no copy without outstanding pulls


def test_push_with_outstanding_snapshot_is_copy_on_write():
    ps = make_ps()
    snapshot, _ = ps.pull()
    buffer = ps.peek()
    ps.push(np.ones(10), lr=0.1)
    assert ps.peek() is not buffer  # snapshot pinned the old buffer
    assert snapshot.base is buffer or snapshot is buffer  # old values intact
    # The second push (no pull in between) is in place again.
    replaced = ps.peek()
    ps.push(np.ones(10), lr=0.1)
    assert ps.peek() is replaced


def test_cow_and_copy_push_paths_are_bit_identical():
    cow = make_ps(momentum=0.9)
    reference = make_ps(momentum=0.9)
    rng = np.random.default_rng(7)
    for _ in range(5):
        cow.pull()  # force the copy-on-write path on every push
        grad = rng.normal(size=10)
        cow.push(grad, lr=0.05)
        reference.push(grad, lr=0.05)  # in-place path
    assert np.array_equal(cow.peek(), reference.peek())


def test_load_state_detaches_outstanding_snapshots():
    ps = make_ps()
    saved = ps.state()
    snapshot, _ = ps.pull()
    before = snapshot.copy()
    ps.push(np.ones(10), lr=0.1)
    ps.load_state(saved)
    ps.push(np.ones(10), lr=0.1)
    assert np.array_equal(snapshot, before)


def test_push_increments_version():
    ps = make_ps()
    grad = np.ones(10)
    assert ps.push(grad, lr=0.1) == 1
    assert ps.push(grad, lr=0.1) == 2
    assert ps.version == 2


def test_push_matches_reference_sgd():
    ps = make_ps(momentum=0.9)
    reference = MomentumSGD(10, momentum=0.9, dtype=np.float64)
    expected = np.arange(10, dtype=np.float64)
    grad = np.linspace(0, 1, 10)
    for _ in range(3):
        ps.push(grad, lr=0.05)
        reference.step(expected, grad, lr=0.05)
    assert np.allclose(ps.peek(), expected)


def test_staleness_accounting():
    ps = make_ps()
    _, version = ps.pull()
    ps.push(np.ones(10), lr=0.1)
    ps.push(np.ones(10), lr=0.1)
    assert ps.staleness(version) == 2
    with pytest.raises(ConfigurationError):
        ps.staleness(99)


def test_momentum_override_applies():
    ps = make_ps(momentum=0.9)
    before = ps.peek().copy()
    ps.push(np.ones(10), lr=0.1, momentum=0.0)
    ps.push(np.ones(10), lr=0.1, momentum=0.0)
    assert np.allclose(ps.peek(), before - 0.2)


def test_state_roundtrip_is_exact():
    ps = make_ps()
    ps.push(np.random.default_rng(0).normal(size=10), lr=0.1)
    saved = ps.state()
    ps.push(np.ones(10), lr=0.1)
    ps.load_state(saved)
    assert np.array_equal(ps.peek(), saved["params"])
    assert ps.version == saved["version"]
    assert np.array_equal(ps.optimizer.velocity, saved["optimizer"]["velocity"])


def test_state_is_deep_copy():
    ps = make_ps()
    saved = ps.state()
    ps.push(np.ones(10), lr=0.1)
    assert np.array_equal(saved["params"], np.arange(10, dtype=np.float64))


@given(
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=30)
def test_every_index_owned_by_exactly_one_shard(size, n_shards):
    ps = make_ps(size=size, n_shards=min(n_shards, size))
    owners = []
    for index in range(size):
        shards = [
            shard
            for shard, (lo, hi) in enumerate(ps.shard_bounds)
            if lo <= index < hi
        ]
        assert len(shards) == 1, f"index {index} owned by {shards}"
        owners.extend(shards)
    assert owners[0] == 0
    assert owners[-1] == ps.n_shards - 1
    # ownership is monotone non-decreasing over the flat vector
    assert owners == sorted(owners)


def test_push_validation():
    ps = make_ps()
    with pytest.raises(ConfigurationError):
        ps.push(np.ones(5), lr=0.1)
    with pytest.raises(ConfigurationError):
        ps.push(np.ones(10), lr=0.0)


def test_init_shape_validation():
    layout = ParameterLayout({"w": (10,)})
    with pytest.raises(ConfigurationError):
        ShardedParameterServer(layout, np.zeros(5), 2)
