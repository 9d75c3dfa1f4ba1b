"""Static and runtime analysis guarding the reproduction's invariants.

Three pillars, surfaced through ``python -m repro check``:

* :mod:`repro.check.linter` — an AST determinism linter with
  project-specific rules (RRS001...): every simulation result must be a
  pure function of its :class:`~repro.exec.runner.SweepPoint`, so any
  entropy, wall-clock, or ordering hazard inside the simulation and
  analysis packages is flagged unless it flows through
  :class:`repro.utils.rng.DeterministicRng`.
* :mod:`repro.check.sanitizer` — an opt-in (``REPRO_SANITIZE=1``)
  runtime DDR4 protocol checker hooked into the banks' command streams
  plus an RRS swap-machinery auditor, raising a structured
  :class:`~repro.check.sanitizer.ProtocolViolation` on the first break.
* ``--flow`` — two passes over one shared
  :class:`~repro.check.callgraph.ProjectGraph`:
  :mod:`repro.check.statecheck` (STA001/STA002 snapshot coverage) and
  :mod:`repro.check.oracle` (ORA001: every scalar-oracle/batched-kernel
  pair has both sides and an equivalence test).

Import the submodules directly; this package re-exports nothing, so
importing :mod:`repro.check.findings` loads no analyser.
"""
