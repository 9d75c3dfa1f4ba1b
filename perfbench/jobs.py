"""The benchmark's four workloads, as lists of timed operations.

Every workload is a fixed job made of operations (a sweep point, an
attack run, a Monte Carlo run, a checkpointed run or a resume). Each
operation returns an :class:`Outcome`: plain output data, which is
digested and compared, plus the work counts the metrics divide by.

* ``fig6_rrs`` — Figure 6 timing points at scale 1/32 under RRS
  (T_RH=4800) for hmmer, bzip2 and xz_17 at their Figure 6 lengths,
  through ``SweepRunner(jobs=1, use_cache=False)``. The untimed warm-up
  runs the same traces with no defense, which gives the normalized IPC.
* ``fig6_baseline`` — the same traces and lengths with no defense: the
  mitigation and tracker layers do no work.
* ``fullscale_security`` — activation-level runs at full-scale
  parameters: Figure 5's one-bank RRS replay (hmmer, bzip2), the Table 4
  adaptive attack on 1 and 16 banks, Half-Double against an aggressive
  ideal victim refresh and against RRS, and the Table 4 Monte Carlo.
* ``fig6_checkpointed`` — the hmmer and bzip2 RRS points run through
  ``execute_point`` with a checkpoint session that persists a cut every
  block-aligned quarter, then each point resumed from its middle cut.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

WORKLOADS = ("fig6_rrs", "fig6_baseline", "fullscale_security", "fig6_checkpointed")

SCALE = 32
T_RH = 4800
FIG6_TRACES = ("hmmer", "bzip2", "xz_17")
CHECKPOINT_TRACES = ("hmmer", "bzip2")
FIG6_MAX_RECORDS = 110_000
FIG5_TRACES = ("hmmer", "bzip2")
ADAPTIVE_T_RRS = 800
HALF_DOUBLE_ACTS = 400_000
# xz_17 is the eviction-only point: its tracker churns but almost never
# reaches the swap threshold (0 swaps on most seeds, 1 on seed 6).
XZ_MAX_SWAPS = 5


@dataclass
class Outcome:
    """One operation's output and the work it did."""

    output: Dict
    requests: int = 0  # requests serviced (activation-level: one per ACT)
    mem_requests: int = 0  # requests serviced by the memory system
    activations: int = 0
    accesses: int = 0  # full-run memory accesses (row-hit ratio base)
    row_hits: int = 0
    swaps: int = 0
    swap_blocked_ns: float = 0.0
    windows: int = 0
    flips: int = 0
    cuts: int = 0
    state_bytes: int = 0
    extra: Dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.output)


@dataclass
class Op:
    """One timed operation; ``pin`` names its pinned expected output."""

    name: str
    pin: str
    run: Callable[[], Outcome]
    resume: bool = False


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: Callable[[], None]
    # (outcomes by op name) -> error strings by op name
    check: Callable[[Dict[str, Outcome]], Dict[str, List[str]]]
    # (outcomes by op name) -> simulated statistics
    sim_outputs: Callable[[Dict[str, Outcome]], Dict[str, float]]


def digest(output: Dict) -> str:
    """Canonical digest of plain output data."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Construct one workload's operations for ``seed``."""
    builders = {
        "fig6_rrs": _fig6_rrs,
        "fig6_baseline": _fig6_baseline,
        "fullscale_security": _fullscale_security,
        "fig6_checkpointed": _fig6_checkpointed,
    }
    return builders[name](seed, workdir)


# ----------------------------------------------------------------------
# Figure 6 timing points
# ----------------------------------------------------------------------
def _rrs_spec():
    from repro.exec import MitigationSpec

    return MitigationSpec.rrs(t_rh=T_RH, scale=SCALE)


def _fig6_point(trace: str, mitigation, seed: int, records: Optional[int] = None):
    from repro.analysis.perf import records_for_windows
    from repro.exec import SweepPoint
    from repro.workloads.suites import get_workload

    if records is None:
        records = records_for_windows(
            get_workload(trace), SCALE, max_records=FIG6_MAX_RECORDS
        )
    return SweepPoint(
        workload=trace,
        mitigation=mitigation,
        scale=SCALE,
        records_per_core=records,
        seed=seed,
    ).resolved()


def _sim_outcome(metrics) -> Outcome:
    return Outcome(
        output=metrics.to_dict(),
        requests=metrics.accesses,
        mem_requests=metrics.accesses,
        activations=metrics.activations,
        accesses=metrics.accesses,
        row_hits=metrics.row_buffer_hits,
        swaps=metrics.swaps,
        swap_blocked_ns=metrics.swap_blocked_ns,
        windows=metrics.windows,
        flips=metrics.bit_flips,
        extra={"ipc": metrics.ipc, "sim_time_ns": metrics.sim_time_ns},
    )


def _sweep_op(runner, point, label: str) -> Op:
    def run() -> Outcome:
        retried = runner.stats.retried
        metrics = runner.run([point], label=label)[0]
        if runner.stats.retried != retried:
            raise RuntimeError(f"{label}: the runner had to retry the point")
        return _sim_outcome(metrics)

    kind = point.mitigation.kind
    return Op(f"{point.workload}/{kind}", f"fig6/{point.workload}/{kind}", run)


def _window_ns() -> float:
    from repro.dram.config import DRAMConfig

    return float(DRAMConfig().scaled(SCALE).refresh_window_ns)


def _swaps_per_window(outcomes: List[Outcome]) -> float:
    if not outcomes:
        return 0.0
    window = _window_ns()
    rates = [
        o.swaps / max(o.extra["sim_time_ns"] / window, 1e-9) for o in outcomes
    ]
    return sum(rates) / len(rates)


def _hit_ratio(outcomes) -> float:
    accesses = sum(o.accesses for o in outcomes)
    return sum(o.row_hits for o in outcomes) / accesses if accesses else 0.0


def _fig6_guards(trace: str, outcome: Outcome, defended: bool) -> List[str]:
    """Every point crosses a refresh window; swaps where RRS should swap."""
    errors = []
    if outcome.windows < 1:
        errors.append(f"{trace}: completed no refresh window")
    if not defended and outcome.swaps:
        errors.append(f"{trace}: swaps with no defense")
    if defended and trace in ("hmmer", "bzip2") and outcome.swaps <= 0:
        errors.append(f"{trace}: RRS made no swap")
    if defended and trace == "xz_17" and outcome.swaps > XZ_MAX_SWAPS:
        errors.append(f"xz_17: expected at most {XZ_MAX_SWAPS} swaps, got {outcome.swaps}")
    return errors


def _fig6_rrs(seed: int, workdir: Path) -> Workload:
    from repro.exec import MitigationSpec, SweepRunner
    from repro.exec.runner import execute_point

    runner = SweepRunner(jobs=1, use_cache=False)
    points = [_fig6_point(trace, _rrs_spec(), seed) for trace in FIG6_TRACES]
    baselines = [_fig6_point(trace, MitigationSpec.none(), seed) for trace in FIG6_TRACES]
    baseline_ipc: Dict[str, float] = {}

    def warmup() -> None:
        # The no-defense runs of the same traces: warms every lazy
        # import and gives the Figure 6 normalization.
        for point in baselines:
            baseline_ipc[point.workload] = execute_point(point).ipc

    def normalized(outcomes) -> Dict[str, float]:
        return {
            trace: outcomes[f"{trace}/rrs"].extra["ipc"] / baseline_ipc[trace]
            for trace in FIG6_TRACES
            if f"{trace}/rrs" in outcomes
        }

    def check(outcomes):
        errors = {
            name: _fig6_guards(name.split("/")[0], o, True)
            for name, o in outcomes.items()
        }
        # Figure 6 shape: swapping costs the swap-heavy points some IPC;
        # the near-swapless point stays within run-to-run phase noise.
        # (Which of bzip2 and hmmer slows more varies with the seed.)
        for trace, norm in normalized(outcomes).items():
            if trace in ("hmmer", "bzip2") and not 0.85 < norm < 1.0:
                errors[f"{trace}/rrs"].append(f"normalized IPC {norm:.4f} not in (0.85, 1)")
            if trace == "xz_17" and not 0.95 < norm < 1.05:
                errors[f"{trace}/rrs"].append(f"normalized IPC {norm:.4f} not in (0.95, 1.05)")
        return errors

    def sim_outputs(outcomes):
        norms = list(normalized(outcomes).values())
        values = list(outcomes.values())
        return {
            "sim.normalized_ipc": math.prod(norms) ** (1 / len(norms)) if norms else 0.0,
            "sim.swaps_per_window": _swaps_per_window(values),
            "sim.row_hit_ratio": _hit_ratio(values),
            "sim.bit_flips": float(sum(o.flips for o in values)),
        }

    ops = [_sweep_op(runner, point, "fig6_rrs") for point in points]
    return Workload("fig6_rrs", ops, warmup, check, sim_outputs)


def _fig6_baseline(seed: int, workdir: Path) -> Workload:
    from repro.exec import MitigationSpec, SweepRunner
    from repro.exec.runner import execute_point

    runner = SweepRunner(jobs=1, use_cache=False)
    points = [_fig6_point(trace, MitigationSpec.none(), seed) for trace in FIG6_TRACES]

    def warmup() -> None:
        for trace in FIG6_TRACES:
            execute_point(_fig6_point(trace, MitigationSpec.none(), seed, records=4096))

    def check(outcomes):
        return {
            name: _fig6_guards(name.split("/")[0], o, False)
            for name, o in outcomes.items()
        }

    def sim_outputs(outcomes):
        values = list(outcomes.values())
        return {
            "sim.normalized_ipc": 1.0,
            "sim.swaps_per_window": 0.0,
            "sim.row_hit_ratio": _hit_ratio(values),
            "sim.bit_flips": float(sum(o.flips for o in values)),
        }

    ops = [_sweep_op(runner, point, "fig6_baseline") for point in points]
    return Workload("fig6_baseline", ops, warmup, check, sim_outputs)


# ----------------------------------------------------------------------
# Full-scale activation-level security runs
# ----------------------------------------------------------------------
def _fullscale_security(seed: int, workdir: Path) -> Workload:
    from benchmarks._activation import swaps_per_window
    from repro.analysis import security
    from repro.attacks.base import AttackHarness
    from repro.attacks.multibank import MultiBankAttackHarness
    from repro.attacks.patterns import HalfDoubleAttack
    from repro.core.config import RRSConfig
    from repro.core.rrs import RandomizedRowSwap
    from repro.dram.config import DRAMConfig
    from repro.mitigations.ideal_vfm import IdealVictimRefresh
    from repro.utils.rng import DeterministicRng
    from repro.workloads.suites import get_workload

    dram = DRAMConfig()
    victim = DeterministicRng(seed, "perfbench", "half-double").randint(
        2, dram.rows_per_bank - 3
    )

    def rrs():
        return RandomizedRowSwap(RRSConfig(), DRAMConfig())

    def fig5(trace: str) -> Op:
        def run() -> Outcome:
            swaps, stream = swaps_per_window(get_workload(trace), dram, seed=seed)
            return Outcome(
                output={"swaps": swaps, "activations": stream},
                requests=stream,
                activations=stream,
                swaps=swaps // dram.banks_total,
                extra={"swaps_per_window": swaps},
            )

        return Op(f"fig5/{trace}", f"fig5/{trace}", run)

    def adaptive(banks: int, acts: int) -> Op:
        def run() -> Outcome:
            result = MultiBankAttackHarness(rrs, banks=banks).run_adaptive(
                t_rrs=ADAPTIVE_T_RRS, max_activations=acts, seed=seed
            )
            return Outcome(
                output={
                    "activations": result.activations,
                    "swaps": result.swaps,
                    "elapsed_ns": result.elapsed_ns,
                    "per_bank": sorted(result.per_bank_activations.items()),
                },
                requests=result.activations,
                activations=result.activations,
                swaps=result.swaps,
                extra={"duty_cycle": result.duty_cycle},
            )

        return Op(f"table4/{banks}bank", f"table4/{banks}bank", run)

    def half_double(label: str, mitigation_factory) -> Op:
        def run() -> Outcome:
            harness = AttackHarness(mitigation_factory(), dram, t_rh=T_RH)
            attack = HalfDoubleAttack(victim=victim, dose_interval=10**9)
            result = harness.run(attack.rows(), max_activations=HALF_DOUBLE_ACTS)
            return Outcome(
                output={
                    "activations": result.activations,
                    "windows": result.windows,
                    "swaps": result.swaps,
                    "victim_refreshes": result.victim_refreshes,
                    "elapsed_ns": result.elapsed_ns,
                    "flips": [asdict(flip) for flip in result.flips],
                },
                requests=result.activations,
                activations=result.activations,
                swaps=result.swaps,
                windows=result.windows,
                flips=len(result.flips),
            )

        return Op(f"halfdouble/{label}", f"halfdouble/{label}", run)

    def monte_carlo() -> Outcome:
        result = security.validate_window_model(target_balls=6, trials=100_000, seed=seed)
        return Outcome(output=asdict(result), extra={"rel_error": result.rel_error})

    ops = [
        fig5("hmmer"),
        fig5("bzip2"),
        adaptive(1, 150_000),
        adaptive(16, 400_000),
        half_double(
            "vfm",
            lambda: IdealVictimRefresh(t_rh=T_RH, mitigation_threshold=16),
        ),
        half_double("rrs", rrs),
        Op("mc", "mc", monte_carlo),
    ]

    def warmup() -> None:
        MultiBankAttackHarness(rrs, banks=2).run_adaptive(
            t_rrs=ADAPTIVE_T_RRS, max_activations=4_000, seed=seed
        )
        for factory in (rrs, lambda: IdealVictimRefresh(t_rh=T_RH)):
            AttackHarness(factory(), dram, t_rh=T_RH).run(
                HalfDoubleAttack(victim=victim).rows(), max_activations=4_000
            )
        security.validate_window_model(target_balls=6, trials=2_000, seed=seed)

    def check(outcomes):
        errors: Dict[str, List[str]] = {name: [] for name in outcomes}
        for trace in FIG5_TRACES:
            o = outcomes.get(f"fig5/{trace}")
            if o is not None and not 500 <= o.extra["swaps_per_window"] <= 3000:
                errors[f"fig5/{trace}"].append(
                    f"{o.extra['swaps_per_window']} swaps per window, outside 500-3000"
                )
        single = outcomes.get("table4/1bank")
        if single is not None:
            model = security.duty_cycle(ADAPTIVE_T_RRS)
            if abs(single.extra["duty_cycle"] - model) > 0.06:
                errors["table4/1bank"].append(
                    f"duty cycle {single.extra['duty_cycle']:.3f} vs model {model:.3f}"
                )
        multi = outcomes.get("table4/16bank")
        if single is not None and multi is not None:
            if not multi.extra["duty_cycle"] < single.extra["duty_cycle"]:
                errors["table4/16bank"].append("all-bank duty cycle is not lower")
        if "halfdouble/vfm" in outcomes and outcomes["halfdouble/vfm"].flips == 0:
            errors["halfdouble/vfm"].append("no bit flip through victim refresh")
        if "halfdouble/rrs" in outcomes and outcomes["halfdouble/rrs"].flips != 0:
            errors["halfdouble/rrs"].append("bit flip through RRS")
        mc = outcomes.get("mc")
        if mc is not None and not mc.extra["rel_error"] <= 0.05:
            errors["mc"].append(f"Monte Carlo off the analytic value by {mc.extra['rel_error']:.3f}")
        return errors

    def sim_outputs(outcomes):
        rates = [
            outcomes[f"fig5/{t}"].extra["swaps_per_window"]
            for t in FIG5_TRACES
            if f"fig5/{t}" in outcomes
        ]
        return {
            "sim.normalized_ipc": 0.0,
            "sim.swaps_per_window": sum(rates) / len(rates) if rates else 0.0,
            "sim.row_hit_ratio": 0.0,
            "sim.bit_flips": float(sum(o.flips for o in outcomes.values())),
        }

    return Workload("fullscale_security", ops, warmup, check, sim_outputs)


# ----------------------------------------------------------------------
# Checkpointed runs
# ----------------------------------------------------------------------
def _quarter_cut(total: int) -> int:
    """Block-aligned quarter of a run's serviced requests.

    Fixed here rather than taken from the runner's default cadence, so a
    change to that default cannot change what this workload measures.
    """
    from repro.workloads.trace import TRACE_BLOCK_RECORDS

    quarter = (total // 4 // TRACE_BLOCK_RECORDS) * TRACE_BLOCK_RECORDS
    return max(quarter, TRACE_BLOCK_RECORDS)


def _store_bytes(store, fingerprint: str) -> int:
    directory = store.root / fingerprint[:2] / fingerprint
    return sum(entry.stat().st_size for entry in directory.glob("*.json"))


def _checkpoint_ops(point, store, label: str) -> List[Op]:
    """A checkpointed run of ``point`` and a resume from its middle cut."""
    from repro.exec import runner as runner_module
    from repro.state.checkpoint import CheckpointSession

    fingerprint = point.checkpoint_fingerprint()
    total = point.records_per_core * point.cores
    every = _quarter_cut(total)
    pin = f"fig6/{point.workload}/{point.mitigation.kind}"

    def checkpointed() -> Outcome:
        session = CheckpointSession(
            fingerprint=fingerprint,
            every=every,
            sink=store.put,
            meta={"records_per_core": point.records_per_core},
        )
        # Through the module attribute, so the traced run sees the call.
        metrics = runner_module.execute_point(point, checkpoints=session)
        outcome = _sim_outcome(metrics)
        outcome.cuts = len(session.saved)
        outcome.state_bytes = _store_bytes(store, fingerprint)
        return outcome

    def resumed() -> Outcome:
        cuts = store.cuts(fingerprint)
        if not cuts:
            raise RuntimeError(f"{label}: no persisted cut to resume from")
        middle = cuts[(len(cuts) - 1) // 2]
        checkpoint = store.get(fingerprint, middle)
        if checkpoint is None:
            raise RuntimeError(f"{label}: cut {middle} did not load")
        # Work done before the cut, from the per-channel controller stats
        # in the payload: (reads, writes, activations, row hits, victim
        # refreshes, swaps, swap-blocked ns, ...).
        stats = checkpoint.payload[2]
        session = CheckpointSession(fingerprint=fingerprint, resume=checkpoint)
        metrics = runner_module.execute_point(point, checkpoints=session)
        outcome = _sim_outcome(metrics)
        outcome.requests = outcome.mem_requests = total - middle
        outcome.activations -= sum(channel[2] for channel in stats)
        outcome.swaps -= sum(channel[5] for channel in stats)
        outcome.swap_blocked_ns -= sum(channel[6] for channel in stats)
        return outcome

    return [
        Op(f"checkpointed/{label}", pin, checkpointed),
        Op(f"resumed/{label}", pin, resumed, resume=True),
    ]


def _fig6_checkpointed(seed: int, workdir: Path) -> Workload:
    from repro.exec import runner as runner_module
    from repro.state.checkpoint import CheckpointSession, CheckpointStore

    store = CheckpointStore(root=workdir / "checkpoints")
    points = {trace: _fig6_point(trace, _rrs_spec(), seed) for trace in CHECKPOINT_TRACES}
    pairs = {trace: _checkpoint_ops(point, store, trace) for trace, point in points.items()}
    ops = [pairs[t][0] for t in CHECKPOINT_TRACES] + [pairs[t][1] for t in CHECKPOINT_TRACES]

    def warmup() -> None:
        scratch = CheckpointStore(root=workdir / "warmup-checkpoints")
        point = _fig6_point("hmmer", _rrs_spec(), seed, records=4096)
        fingerprint = point.checkpoint_fingerprint()
        session = CheckpointSession(fingerprint=fingerprint, every=4096, sink=scratch.put)
        runner_module.execute_point(point, checkpoints=session)
        checkpoint = scratch.get(fingerprint, session.saved[0])
        runner_module.execute_point(
            point, checkpoints=CheckpointSession(fingerprint=fingerprint, resume=checkpoint)
        )

    def check(outcomes):
        errors: Dict[str, List[str]] = {name: [] for name in outcomes}
        for trace in CHECKPOINT_TRACES:
            full = outcomes.get(f"checkpointed/{trace}")
            again = outcomes.get(f"resumed/{trace}")
            if full is not None:
                errors[f"checkpointed/{trace}"] += _fig6_guards(trace, full, True)
                if full.cuts != 4:
                    errors[f"checkpointed/{trace}"].append(f"{full.cuts} cuts, expected 4")
            if full is not None and again is not None and again.digest != full.digest:
                errors[f"resumed/{trace}"].append("resumed run differs from the uninterrupted run")
        return errors

    def sim_outputs(outcomes):
        values = [o for name, o in outcomes.items() if name.startswith("checkpointed/")]
        return {
            "sim.normalized_ipc": 0.0,
            "sim.swaps_per_window": _swaps_per_window(values),
            "sim.row_hit_ratio": _hit_ratio(values),
            "sim.bit_flips": float(sum(o.flips for o in values)),
        }

    return Workload("fig6_checkpointed", ops, warmup, check, sim_outputs)


def isolate_environment(workdir: Path) -> Dict[str, str]:
    """Drop every ``REPRO_*`` switch, then pin defaults and private dirs.

    The behaviour switches are set to their defaults explicitly, so a
    user's environment never changes what is measured.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    pinned = {
        "REPRO_BLOCK_CONTROLLER": "1",
        "REPRO_BATCH_MITIGATION": "1",
        "REPRO_CHECKPOINT": "0",
        "REPRO_TRACE": "",
        "REPRO_SANITIZE": "0",
        "REPRO_JOBS": "1",
        "REPRO_PROGRESS": "0",
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_LEDGER": str(workdir / "ledger.jsonl"),
    }
    for key, value in pinned.items():
        if value:
            os.environ[key] = value
    return pinned
