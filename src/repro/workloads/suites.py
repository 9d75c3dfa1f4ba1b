"""The paper's workload suite (Table 3) plus the low-activity remainder.

The paper evaluates 78 workloads and tabulates the 28 that have at least
one row with 800+ activations per 64 ms window (Table 3, reproduced in
``WORKLOAD_TABLE`` verbatim). The other 50 never trigger a row swap;
we synthesize them with plausible footprint/MPKI values and zero
ACT-800+ rows so suite-wide averages are taken over the same population
size the paper uses.

Mixed workloads (mix1-mix6) combine randomly selected benchmarks; their
``components`` name the per-core traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class WorkloadSpec:
    """Calibration targets for one workload (the paper's Table 3 row).

    ``ipc_hint`` is this simulator's measured baseline IPC (from
    ``scripts/calibrate_ipc.py``); the synthetic generators use it to
    convert per-window activation targets into per-access hot-row
    probabilities. Zero means "unknown, use the MPKI formula".
    """

    name: str
    suite: str
    footprint_gb: float
    mpki: float
    act800_rows: int  # rows with >800 ACTs per 64ms window (whole system)
    components: Tuple[str, ...] = ()  # non-empty only for mixes
    ipc_hint: float = 0.0

    @property
    def is_mix(self) -> bool:
        """True for the 6 mixed workloads."""
        return bool(self.components)

    def component_for_core(self, core_id: int) -> "WorkloadSpec":
        """The workload one core replays.

        Mix components cycle round-robin over the cores; every other
        workload runs rate-mode (each core replays the same spec).
        """
        if not self.components:
            return self
        return get_workload(self.components[core_id % len(self.components)])


def _w(name, suite, footprint, mpki, act800, ipc=0.0):
    return WorkloadSpec(
        name=name,
        suite=suite,
        footprint_gb=footprint,
        mpki=mpki,
        act800_rows=act800,
        ipc_hint=ipc,
    )


# Table 3 of the paper, verbatim: the 28 workloads with ACT-800+ rows.
WORKLOAD_TABLE: List[WorkloadSpec] = [
    _w("hmmer", "SPEC2006", 0.01, 0.84, 1675, ipc=3.76),
    _w("bzip2", "SPEC2006", 2.41, 5.57, 1150, ipc=1.52),
    _w("h264", "SPEC2006", 0.05, 0.52, 1136, ipc=3.89),
    _w("calculix", "SPEC2006", 0.16, 1.12, 932, ipc=3.62),
    _w("gcc", "SPEC2006", 0.09, 4.42, 818, ipc=1.85),
    _w("zeusmp", "SPEC2006", 0.55, 2.00, 405, ipc=3.06),
    _w("astar", "SPEC2006", 0.04, 1.04, 352, ipc=3.68),
    _w("sphinx", "SPEC2006", 0.13, 12.90, 242, ipc=0.83),
    _w("mummer", "BIOBENCH", 2.17, 19.13, 192, ipc=0.64),
    _w("ferret", "PARSEC", 0.79, 5.67, 132, ipc=1.59),
    _w("gobmk", "SPEC2006", 0.2, 1.17, 79, ipc=3.59),
    _w("blender_17", "SPEC2017", 0.24, 1.53, 53, ipc=3.38),
    _w("freq", "PARSEC", 0.59, 2.89, 44, ipc=2.47),
    _w("stream", "PARSEC", 0.63, 3.48, 41, ipc=2.23),
    _w("gcc_17", "SPEC2017", 0.36, 0.55, 38, ipc=3.89),
    _w("swapt", "PARSEC", 0.76, 3.52, 37, ipc=2.17),
    _w("black", "PARSEC", 0.55, 3.08, 37, ipc=2.35),
    _w("comm1", "COMMERCIAL", 1.55, 5.93, 19, ipc=1.5),
    _w("xz_17", "SPEC2017", 0.64, 5.12, 12, ipc=1.67),
    _w("comm2", "COMMERCIAL", 3.37, 6.14, 8, ipc=1.47),
    _w("omnetpp_17", "SPEC2017", 1.55, 9.81, 7, ipc=1.02),
    _w("fluid", "PARSEC", 0.99, 2.70, 7, ipc=2.61),
    _w("omnetpp", "SPEC2006", 1.1, 17.24, 5, ipc=0.69),
    _w("face", "PARSEC", 1.1, 7.18, 3, ipc=1.32),
    _w("mcf", "SPEC2006", 7.71, 107.81, 2, ipc=0.21),
    _w("gromacs", "SPEC2006", 0.06, 0.58, 1, ipc=3.89),
    _w("comm5", "COMMERCIAL", 0.67, 1.48, 1, ipc=3.38),
    _w("comm3", "COMMERCIAL", 1.77, 2.84, 1, ipc=2.52),
]

# The 50 workloads without ACT-800+ rows (identities synthesized; only
# their *count* and low activity matter to the paper's averages).
_QUIET_WORKLOADS: List[WorkloadSpec] = [
    # Remaining SPEC2006-style benchmarks.
    _w("perlbench", "SPEC2006", 0.3, 0.9, 0),
    _w("bwaves", "SPEC2006", 0.9, 10.2, 0),
    _w("milc", "SPEC2006", 0.7, 12.4, 0),
    _w("cactus", "SPEC2006", 0.6, 4.8, 0),
    _w("leslie3d", "SPEC2006", 0.1, 7.5, 0),
    _w("namd", "SPEC2006", 0.05, 0.3, 0),
    _w("soplex", "SPEC2006", 0.5, 21.5, 0),
    _w("povray", "SPEC2006", 0.01, 0.1, 0),
    _w("libquantum", "SPEC2006", 0.3, 25.4, 0),
    _w("lbm", "SPEC2006", 0.4, 20.1, 0),
    _w("wrf", "SPEC2006", 0.6, 6.8, 0),
    _w("sjeng", "SPEC2006", 0.2, 0.4, 0),
    _w("gems", "SPEC2006", 0.8, 15.6, 0),
    _w("tonto", "SPEC2006", 0.04, 0.2, 0),
    _w("dealII", "SPEC2006", 0.1, 1.9, 0),
    _w("xalancbmk", "SPEC2006", 0.3, 2.3, 0),
    # Remaining SPEC2017-style benchmarks.
    _w("lbm_17", "SPEC2017", 0.4, 19.3, 0),
    _w("mcf_17", "SPEC2017", 3.9, 32.4, 0),
    _w("cactu_17", "SPEC2017", 1.3, 5.6, 0),
    _w("wrf_17", "SPEC2017", 0.2, 2.9, 0),
    _w("pop2_17", "SPEC2017", 0.6, 3.1, 0),
    _w("imagick_17", "SPEC2017", 0.03, 0.2, 0),
    _w("nab_17", "SPEC2017", 0.1, 0.6, 0),
    _w("fotonik_17", "SPEC2017", 0.8, 14.2, 0),
    _w("roms_17", "SPEC2017", 0.9, 9.8, 0),
    _w("perl_17", "SPEC2017", 0.2, 0.7, 0),
    _w("x264_17", "SPEC2017", 0.1, 0.5, 0),
    _w("deepsjeng_17", "SPEC2017", 0.7, 1.1, 0),
    _w("leela_17", "SPEC2017", 0.03, 0.3, 0),
    _w("exchange2_17", "SPEC2017", 0.01, 0.05, 0),
    # GAP graph workloads: large footprints, diffuse accesses — the
    # paper notes GAP has <5 swaps; we keep them at 0-3 hot rows.
    _w("gap_bc", "GAP", 6.2, 38.5, 3),
    _w("gap_bfs", "GAP", 5.8, 29.2, 2),
    _w("gap_cc", "GAP", 5.5, 31.7, 1),
    _w("gap_pr", "GAP", 6.0, 41.3, 2),
    _w("gap_sssp", "GAP", 6.8, 35.9, 1),
    _w("gap_tc", "GAP", 4.9, 22.6, 0),
    # BIOBENCH remainder.
    _w("tigr", "BIOBENCH", 0.5, 7.9, 0),
    _w("fasta_dna", "BIOBENCH", 0.3, 4.4, 0),
    _w("clustalw", "BIOBENCH", 0.1, 1.3, 0),
    # PARSEC remainder.
    _w("canneal", "PARSEC", 0.9, 11.2, 0),
    _w("dedup", "PARSEC", 1.1, 3.7, 0),
    _w("vips", "PARSEC", 0.4, 1.8, 0),
    _w("raytrace", "PARSEC", 0.6, 1.2, 0),
    # COMMERCIAL remainder.
    _w("comm4", "COMMERCIAL", 2.2, 4.5, 0),
]

# Six mixed workloads of randomly selected benchmarks (paper §3). Each
# mix lists the per-core component traces; aggregate spec fields are
# component means so mixes participate in suite-level summaries.
_MIX_COMPONENTS: Dict[str, Tuple[str, ...]] = {
    "mix1": ("hmmer", "mcf", "ferret", "gcc", "hmmer", "mcf", "ferret", "gcc"),
    "mix2": ("bzip2", "sphinx", "stream", "omnetpp", "bzip2", "sphinx", "stream", "omnetpp"),
    "mix3": ("h264", "mummer", "black", "xz_17", "h264", "mummer", "black", "xz_17"),
    "mix4": ("calculix", "comm1", "fluid", "gobmk", "calculix", "comm1", "fluid", "gobmk"),
    "mix5": ("zeusmp", "comm2", "freq", "astar", "zeusmp", "comm2", "freq", "astar"),
    "mix6": ("gcc_17", "face", "swapt", "blender_17", "gcc_17", "face", "swapt", "blender_17"),
}


def _build_mixes() -> List[WorkloadSpec]:
    by_name = {spec.name: spec for spec in WORKLOAD_TABLE + _QUIET_WORKLOADS}
    mixes = []
    for name, components in _MIX_COMPONENTS.items():
        parts = [by_name[c] for c in components]
        mixes.append(
            WorkloadSpec(
                name=name,
                suite="MIX",
                footprint_gb=sum(p.footprint_gb for p in parts) / len(parts),
                mpki=sum(p.mpki for p in parts) / len(parts),
                act800_rows=sum(p.act800_rows for p in parts) // len(parts),
                components=components,
            )
        )
    return mixes


ALL_WORKLOADS: List[WorkloadSpec] = WORKLOAD_TABLE + _QUIET_WORKLOADS + _build_mixes()

_BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in ALL_WORKLOADS}


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by name; raises ``KeyError`` with candidates."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def workloads_by_suite(suite: str) -> List[WorkloadSpec]:
    """All workloads belonging to one suite (e.g. 'SPEC2006')."""
    found = [spec for spec in ALL_WORKLOADS if spec.suite == suite]
    if not found:
        known = sorted({spec.suite for spec in ALL_WORKLOADS})
        raise KeyError(f"unknown suite {suite!r}; known: {known}")
    return found
