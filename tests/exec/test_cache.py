"""Content-addressed result cache: keys, round-trips, failure modes."""

import json

import pytest

from repro.exec import MitigationSpec, ResultCache, SweepPoint, canonical_key
from repro.exec import cache as cache_module
from repro.exec.cache import default_cache_dir
from repro.mem.metrics import SimMetrics


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache", enabled=True)


def _metrics(**overrides):
    base = dict(
        workload="stream",
        mitigation="RRS",
        instructions=1234,
        core_ipcs=[1.5, 2.5],
        sim_time_ns=99.5,
        activations=42,
        swaps=3,
        swap_history=[1, 2, 0],
        bit_flips=0,
    )
    base.update(overrides)
    return SimMetrics(**base)


def test_put_get_round_trip(cache):
    cache.put("ab" * 32, _metrics())
    loaded = cache.get("ab" * 32)
    assert loaded == _metrics()
    assert cache.hits == 1 and cache.stores == 1


def test_miss_on_absent_key(cache):
    assert cache.get("cd" * 32) is None
    assert cache.misses == 1


def test_corrupt_entry_is_dropped_and_missed(cache):
    key = "ef" * 32
    cache.put(key, _metrics())
    path = cache._path(key)
    path.write_text("{not json")
    assert cache.get(key) is None
    assert not path.exists()
    # A fresh put recovers.
    cache.put(key, _metrics())
    assert cache.get(key) == _metrics()


def test_entry_with_unknown_field_is_rejected(cache):
    key = "01" * 32
    cache.put(key, _metrics())
    path = cache._path(key)
    data = json.loads(path.read_text())
    data["brand_new_counter"] = 7
    path.write_text(json.dumps(data))
    assert cache.get(key) is None  # stale-schema entry must not load


def test_disabled_cache_never_stores(tmp_path):
    cache = ResultCache(root=tmp_path, enabled=False)
    cache.put("aa" * 32, _metrics())
    assert cache.get("aa" * 32) is None
    assert len(cache) == 0


def test_env_opt_out_disables(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    cache = ResultCache(root=tmp_path)
    assert not cache.enabled


def test_env_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_clear_and_len(cache):
    for i in range(3):
        cache.put(f"{i:02d}" + "00" * 31, _metrics(instructions=i))
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_clear_removes_checkpoint_cuts(cache):
    """``make clean-cache`` also drops the cuts a checkpointed run
    persisted under ``<cache-dir>/checkpoints``, and counts them."""
    from repro.state.checkpoint import CheckpointStore, SimCheckpoint

    cache.put("ab" * 32, _metrics())
    store = CheckpointStore(root=cache.root / "checkpoints")
    fp = "cd" * 32
    for serviced in (300, 600):
        store.put(SimCheckpoint(fingerprint=fp, serviced=serviced, payload=(1,)))
    assert store.cuts(fp) == [300, 600]
    assert cache.clear() == 3
    assert store.cuts(fp) == []
    assert len(cache) == 0


def test_canonical_key_is_order_independent():
    a = canonical_key({"x": 1, "y": 2})
    b = canonical_key({"y": 2, "x": 1})
    assert a == b
    assert len(a) == 64


def test_canonical_key_source_digest_invalidates(monkeypatch):
    description = {"x": 1}
    monkeypatch.setattr(cache_module, "source_digest", lambda: "a" * 64)
    first = canonical_key(description)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "b" * 64)
    assert canonical_key(description) != first


def test_sweep_point_key_depends_on_every_input():
    base = SweepPoint(
        workload="stream",
        mitigation=MitigationSpec.rrs(t_rh=4800, scale=32),
        scale=32,
        records_per_core=1000,
    )
    variants = [
        base.__class__(**{**_point_kwargs(base), "workload": "gcc"}),
        base.__class__(**{**_point_kwargs(base), "seed": 1}),
        base.__class__(**{**_point_kwargs(base), "records_per_core": 2000}),
        base.__class__(**{**_point_kwargs(base), "cores": 4}),
        base.__class__(**{**_point_kwargs(base), "scale": 16}),
        base.__class__(
            **{**_point_kwargs(base), "mitigation": MitigationSpec.none()}
        ),
    ]
    keys = {base.cache_key()} | {variant.cache_key() for variant in variants}
    assert len(keys) == len(variants) + 1


def _point_kwargs(point):
    return dict(
        workload=point.workload,
        mitigation=point.mitigation,
        scale=point.scale,
        records_per_core=point.records_per_core,
        cores=point.cores,
        seed=point.seed,
        with_faults=point.with_faults,
        t_rh=point.t_rh,
    )


def test_sweep_point_key_stable_across_resolution():
    """An explicit records count and the resolved default must agree."""
    implicit = SweepPoint(
        workload="gromacs",
        mitigation=MitigationSpec.none(),
        scale=32,
    )
    explicit = implicit.resolved()
    assert explicit.records_per_core is not None
    assert implicit.cache_key() == explicit.cache_key()

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_canonical_key_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_key({"t_rh": bad})


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", complex(1, 2)])
def test_canonical_key_rejects_non_json_values(bad):
    with pytest.raises(ValueError, match="not canonicalizable"):
        canonical_key({"value": bad})


def test_canonical_key_rejects_nested_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_key({"mitigation": {"knobs": [1.0, float("nan")]}})


def test_canonical_key_accepts_finite_floats():
    assert len(canonical_key({"t_rh": 4800.0, "duty": 0.925})) == 64
