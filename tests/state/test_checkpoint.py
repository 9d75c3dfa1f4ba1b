"""SimCheckpoint container, the on-disk store, and the run session."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state.checkpoint import (
    CheckpointSession,
    CheckpointStore,
    SimCheckpoint,
    checkpoint_enabled_by_env,
    run_fingerprint,
)
from repro.state.protocol import STATE_SCHEMA_VERSION


def _checkpoint(serviced=100, fingerprint="ab" * 32, meta=None):
    return SimCheckpoint(
        fingerprint=fingerprint,
        serviced=serviced,
        payload=((1, 2.5), {"k": (3,)}, np.arange(4, dtype=np.int64)),
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
def test_checkpoint_json_roundtrip():
    original = _checkpoint(meta={"records_per_core": 500})
    loaded = SimCheckpoint.loads(original.dumps())
    assert loaded.fingerprint == original.fingerprint
    assert loaded.serviced == original.serviced
    assert loaded.meta == {"records_per_core": 500}
    assert loaded.schema_version == STATE_SCHEMA_VERSION
    a, b, array = loaded.payload
    assert a == (1, 2.5) and b == {"k": (3,)}
    assert np.array_equal(array, np.arange(4, dtype=np.int64))


def test_foreign_schema_version_is_rejected_loudly():
    data = _checkpoint().to_dict()
    data["schema_version"] = STATE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="checkpoint schema"):
        SimCheckpoint.from_dict(data)


def test_run_fingerprint_is_stable_and_input_sensitive():
    base = {"workload": "lbm", "seed": 1}
    assert run_fingerprint(base) == run_fingerprint(dict(base))
    assert run_fingerprint(base) != run_fingerprint({"workload": "lbm", "seed": 2})


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_get_and_cuts(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp = "cd" * 32
    for serviced in (300, 100, 200):
        store.put(_checkpoint(serviced=serviced, fingerprint=fp))
    assert store.cuts(fp) == [100, 200, 300]
    loaded = store.get(fp, 200)
    assert loaded is not None and loaded.serviced == 200
    assert store.get(fp, 999) is None
    assert store.cuts("ef" * 32) == []


def test_store_corrupt_file_is_a_miss(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp = "cd" * 32
    store.put(_checkpoint(serviced=100, fingerprint=fp))
    path = tmp_path / fp[:2] / fp / "100.json"
    path.write_text("{not json")
    assert store.get(fp, 100) is None
    assert store.latest(fp) is None  # corrupt entries never resume


def test_store_latest_caps_and_filters(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp = "cd" * 32
    for serviced in (100, 200, 300):
        store.put(_checkpoint(serviced=serviced, fingerprint=fp))
    assert store.latest(fp).serviced == 300
    assert store.latest(fp, max_serviced=250).serviced == 200
    assert store.latest(fp, accept=lambda c: c.serviced < 250).serviced == 200
    assert store.latest(fp, max_serviced=50) is None


def test_store_mismatched_body_is_a_miss(tmp_path):
    store = CheckpointStore(root=tmp_path)
    fp, other = "cd" * 32, "ef" * 32
    store.put(_checkpoint(serviced=100, fingerprint=fp))
    # A file renamed under a foreign fingerprint directory must not load.
    target = tmp_path / other[:2] / other
    target.mkdir(parents=True)
    (target / "100.json").write_text(
        (tmp_path / fp[:2] / fp / "100.json").read_text()
    )
    assert store.get(other, 100) is None


def test_disabled_store_is_inert(tmp_path):
    store = CheckpointStore(root=tmp_path, enabled=False)
    store.put(_checkpoint())
    assert list(tmp_path.iterdir()) == []
    assert store.cuts("ab" * 32) == []
    assert store.latest("ab" * 32) is None


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
def _wanted(session, serviced):
    """Reference cut predicate: an explicit cut or a positive multiple
    of ``every``."""
    if serviced in session.cuts:
        return True
    return bool(session.every) and serviced > 0 and serviced % session.every == 0


def _walk(session, start, total):
    """The cut sequence a run driver sees: next_cut from ``start``,
    then from one past each cut, until past ``total``."""
    found = []
    cut = session.next_cut(start)
    while 0 <= cut <= total:
        found.append(cut)
        cut = session.next_cut(cut + 1)
    return found


def test_session_next_cut_explicit_cuts_and_interval():
    session = CheckpointSession(every=100, cuts=(0, 42))
    assert session.next_cut(0) == 0
    assert session.next_cut(1) == 42
    assert session.next_cut(43) == 100
    assert session.next_cut(100) == 100
    assert session.next_cut(101) == 200
    zero = CheckpointSession(every=0)
    assert zero.next_cut(0) == -1 and zero.next_cut(100) == -1
    assert CheckpointSession(cuts=(7,)).next_cut(8) == -1


@pytest.mark.parametrize("every", [0, 3, 1200])
@pytest.mark.parametrize("cuts", [(), (0, 257, 1200), (5, 5, 600, 1199)])
@pytest.mark.parametrize("resumed_from", [None, 0, 600, 1200])
def test_next_cut_walk_matches_predicate(every, cuts, resumed_from):
    """From a fresh start (cut 0 included) or one past a resume point,
    walking next_cut yields exactly the wanted serviced counts."""
    total = 1200
    session = CheckpointSession(every=every, cuts=cuts)
    start = 0 if resumed_from is None else resumed_from + 1
    expected = [s for s in range(start, total + 1) if _wanted(session, s)]
    assert _walk(session, start, total) == expected


@settings(max_examples=200, deadline=None)
@given(
    every=st.integers(min_value=0, max_value=50),
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
    start=st.integers(min_value=0, max_value=300),
)
def test_next_cut_is_the_first_wanted_count(every, cuts, start):
    session = CheckpointSession(every=every, cuts=tuple(cuts))
    total = 300
    expected = [s for s in range(start, total + 1) if _wanted(session, s)]
    assert _walk(session, start, total) == expected


def test_session_save_records_and_sinks():
    seen = []
    session = CheckpointSession(
        fingerprint="ab" * 32, sink=seen.append, meta={"workload": "lbm"}
    )
    checkpoint = session.save(250, payload=(1, 2))
    assert session.saved == [250]
    assert seen == [checkpoint]
    assert checkpoint.fingerprint == "ab" * 32
    assert checkpoint.meta == {"workload": "lbm"}


def test_session_rejects_mismatched_resume_fingerprint():
    foreign = _checkpoint(fingerprint="ef" * 32)
    with pytest.raises(ValueError, match="does not match"):
        CheckpointSession(fingerprint="ab" * 32, resume=foreign)
    # Without a declared fingerprint there is nothing to mismatch.
    session = CheckpointSession(resume=foreign)
    assert session.resumed_from == foreign.serviced


def test_session_rejects_negative_interval():
    with pytest.raises(ValueError, match=">= 0"):
        CheckpointSession(every=-1)


def test_checkpoint_env_gate(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
    assert not checkpoint_enabled_by_env()
    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    assert checkpoint_enabled_by_env()
    monkeypatch.setenv("REPRO_CHECKPOINT", "0")
    assert not checkpoint_enabled_by_env()
