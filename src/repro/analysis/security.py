"""Security analysis of RRS (paper Section 5, Table 4, Table 1).

Models the optimal adaptive attack of Section 5.3: the attacker
repeatedly picks a random row of the bank, activates it exactly T_RRS
times to force a swap, and repeats — hoping the randomly relocated
activations pile k = T_RH/T_RRS swap-loads onto one physical row within
a single 64 ms refresh window.

Each round is one ball thrown into N = rows-per-bank buckets; the
attacker gets B = A*D/T_RRS balls per window (A = ACT_max, D = the duty
cycle lost to swap streaming). The expected windows until any bucket
collects k balls follows the binomial tail the paper's Equation 3
states:

    AT_iter = 1 / (N * C(B,k) * p^k * (1-p)^(B-k)),   p = 1/N
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.buckets import BucketsAndBalls

# Table 1 of the paper: Row Hammer threshold by DRAM generation.
RH_THRESHOLD_HISTORY: Dict[str, int] = {
    "DDR3 (old)": 139_000,
    "DDR3 (new)": 22_400,
    "DDR4 (old)": 17_500,
    "DDR4 (new)": 10_000,
    "LPDDR4 (old)": 16_800,
    "LPDDR4 (new)": 4_800,
}

WINDOW_SECONDS = 0.064


def duty_cycle(
    t_rrs: int,
    acts_per_window: int = 1_360_000,
    swap_cost_s: float = 2.9e-6,
    window_s: float = WINDOW_SECONDS,
    attacked_banks: int = 1,
) -> float:
    """Fraction of the window a bank can spend activating under attack.

    Each T_RRS activations trigger one ~2.9 us channel-blocking swap;
    solving D = 1 - banks * (A*D/T) * cost / window for D gives the
    self-consistent duty cycle. The paper quotes D ~ 0.925 for the
    single-bank attack and ~0.55 for the all-bank attack.
    """
    if t_rrs <= 0:
        raise ValueError("T_RRS must be positive")
    overhead = attacked_banks * acts_per_window * swap_cost_s / (t_rrs * window_s)
    return 1.0 / (1.0 + overhead)


def _log_binomial_pmf(trials: int, successes: int, probability: float) -> float:
    """log of C(trials, k) * p^k * (1-p)^(trials-k)."""
    if not 0 <= successes <= trials:
        return float("-inf")
    log_comb = (
        math.lgamma(trials + 1)
        - math.lgamma(successes + 1)
        - math.lgamma(trials - successes + 1)
    )
    return (
        log_comb
        + successes * math.log(probability)
        + (trials - successes) * math.log1p(-probability)
    )


def attack_iterations(
    t_rrs: int,
    t_rh: int = 4800,
    rows_per_bank: int = 128 * 1024,
    acts_per_window: int = 1_360_000,
    attacked_banks: int = 1,
    swap_cost_s: float = 2.9e-6,
) -> float:
    """Expected 64 ms iterations until the adaptive attack succeeds
    (paper Equation 3)."""
    if t_rh % t_rrs != 0:
        raise ValueError("T_RH must be an integer multiple of T_RRS")
    k = t_rh // t_rrs
    d = duty_cycle(
        t_rrs,
        acts_per_window=acts_per_window,
        swap_cost_s=swap_cost_s,
        attacked_banks=attacked_banks,
    )
    balls = int(acts_per_window * d / t_rrs)
    p = 1.0 / rows_per_bank
    log_pmf = _log_binomial_pmf(balls, k, p)
    # Expected hot buckets per window across every attacked bank.
    log_expected = math.log(rows_per_bank * attacked_banks) + log_pmf
    return math.exp(-log_expected)


def attack_time_seconds(t_rrs: int, t_rh: int = 4800, **kwargs) -> float:
    """Expected wall-clock time for a successful attack (AT_time)."""
    return attack_iterations(t_rrs, t_rh, **kwargs) * WINDOW_SECONDS


def time_to_failure_probability(
    t_rrs: int,
    probability: float,
    t_rh: int = 4800,
    **kwargs,
) -> float:
    """Attack duration (seconds) at which success probability reaches
    ``probability``.

    Window successes are independent Bernoulli trials with
    p = 1/AT_iter, so P(success within n windows) = 1 - (1-p)^n. This
    is the "how long can I deploy this part" question AT_time's mean
    does not directly answer.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must be in (0, 1)")
    p_window = 1.0 / attack_iterations(t_rrs, t_rh, **kwargs)
    windows = math.log1p(-probability) / math.log1p(-min(p_window, 1 - 1e-12))
    return windows * WINDOW_SECONDS


@dataclass(frozen=True)
class MonteCarloValidation:
    """One wide Monte Carlo check of the Eq. 1-3 window model.

    ``measured`` is the empirical fraction of windows in which some
    bucket reached ``target_balls``; ``analytic`` is the union-bound
    binomial tail Table 4 inverts. ``std_error`` is the binomial
    standard error of ``measured`` — at 50K+ trials it is small enough
    that the residual measured-vs-analytic gap is the *model's* error
    (the union bound double-counts multi-hot windows), not noise.
    """

    buckets: int
    balls_per_window: int
    target_balls: int
    trials: int
    hits: int
    measured: float
    analytic: float
    std_error: float

    @property
    def rel_error(self) -> float:
        """|measured - analytic| / analytic (inf when analytic is 0)."""
        if self.analytic == 0.0:
            return float("inf")
        return abs(self.measured - self.analytic) / self.analytic


def validate_window_model(
    buckets: int = 512,
    balls_per_window: int = 512,
    target_balls: int = 4,
    trials: int = 50_000,
    seed: int = 9,
    chunk_draws: int = 1 << 18,
) -> MonteCarloValidation:
    """Wide Monte Carlo validation of the window-success model.

    Runs the vectorized buckets-and-balls engine for ``trials`` windows
    and compares against the analytic probability. The engine draws
    chunked 2-D int32 throws (the same ``next_uint32`` stream as the
    scalar reference's int64 draws, so hit counts are bit-identical),
    sorts each window and tests it for a run of ``target_balls`` equal
    throws. The trial budget that used to take minutes in the scalar
    loop runs in well under a second, so Table 4 validation can afford
    50K-100K trials — enough to resolve rare-event points (k >= 6)
    where a few hundred trials would see single-digit hit counts.
    Raises ValueError when ``trials`` is not positive.
    """
    experiment = BucketsAndBalls(
        buckets=buckets,
        balls_per_window=balls_per_window,
        target_balls=target_balls,
        seed=seed,
    )
    measured = experiment.success_probability(trials, chunk_draws=chunk_draws)
    hits = round(measured * trials)
    std_error = math.sqrt(max(measured * (1.0 - measured), 0.0) / trials)
    return MonteCarloValidation(
        buckets=buckets,
        balls_per_window=balls_per_window,
        target_balls=target_balls,
        trials=trials,
        hits=hits,
        measured=measured,
        analytic=experiment.analytic_window_probability(),
        std_error=std_error,
    )


@dataclass(frozen=True)
class AttackModel:
    """One Table 4 row: threshold, iterations, and time."""

    t_rrs: int
    k: int
    iterations: float
    seconds: float


def table4_rows(
    t_rh: int = 4800,
    k_values: tuple = (5, 6, 7),
    **kwargs,
) -> List[AttackModel]:
    """The paper's Table 4: attack cost for T_RRS in {960, 800, 685}."""
    rows = []
    for k in k_values:
        t_rrs = t_rh // k
        # Match the paper's rounding: T must divide T_RH for Eq. 3, so
        # evaluate at the exact k with T = T_RH/k.
        iterations = attack_iterations(t_rrs, t_rrs * k, **kwargs)
        rows.append(
            AttackModel(
                t_rrs=t_rrs,
                k=k,
                iterations=iterations,
                seconds=iterations * WINDOW_SECONDS,
            )
        )
    return rows
