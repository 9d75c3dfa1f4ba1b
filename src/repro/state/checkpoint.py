"""Checkpoint container, on-disk store, and run session.

:class:`SimCheckpoint` is one cut of a run: the schema version, a
config *fingerprint* (the SHA-256 canonical key of everything that
shapes the simulation — workload, system config, mitigation recipe,
seed, the behaviour-relevant env toggles, and the package's source
digest), the number of requests
serviced at the cut, and the pure-data payload assembled by
:meth:`SystemSimulator.checkpoint`.

:class:`CheckpointStore` persists checkpoints with the result cache's
conventions: rooted under the cache dir (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``), sharded by fingerprint prefix, written atomically
(temp file + ``os.replace``), corrupt entries treated as misses. One
fingerprint directory holds every persisted cut of that configuration,
which is what lets a longer sweep point *fork* from a shorter sibling's
warm-start checkpoint: the fingerprint deliberately excludes the
record count, because synthetic trace generators are seeded
independently of length — any two points that differ only in records
share a bit-identical prefix.

:class:`CheckpointSession` is the handle a caller threads into
:meth:`SystemSimulator.run`: where to resume from, which serviced
counts to cut at, and where saved checkpoints go.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.exec.cache import canonical_key, default_cache_dir
from repro.state.protocol import STATE_SCHEMA_VERSION
from repro.state.serial import decode_state, encode_state

_ENV_ENABLE = "REPRO_CHECKPOINT"


def checkpoint_enabled_by_env() -> bool:
    """True when ``REPRO_CHECKPOINT=1`` opts sweeps into checkpointing."""
    return os.environ.get(_ENV_ENABLE, "") == "1"


def default_checkpoint_dir() -> Path:
    """Checkpoint root: ``<cache-dir>/checkpoints``."""
    return default_cache_dir() / "checkpoints"


def run_fingerprint(description: Dict[str, Any]) -> str:
    """Canonical fingerprint of a run configuration.

    ``description`` must be JSON-representable and must cover every
    input that shapes simulated state — restoring a checkpoint under a
    mismatched fingerprint is refused.
    """
    return canonical_key(description)


@dataclass
class SimCheckpoint:
    """One serialized cut of a simulation run."""

    fingerprint: str
    serviced: int
    payload: Any
    meta: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = STATE_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON form (payload via :func:`encode_state`)."""
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "serviced": self.serviced,
            "meta": self.meta,
            "payload": encode_state(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimCheckpoint":
        """Inverse of :meth:`to_dict`; rejects foreign schemas loudly."""
        version = data.get("schema_version")
        if version != STATE_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema {version!r} != "
                f"supported {STATE_SCHEMA_VERSION}"
            )
        return cls(
            fingerprint=data["fingerprint"],
            serviced=int(data["serviced"]),
            payload=decode_state(data["payload"]),
            meta=dict(data.get("meta", {})),
            schema_version=int(version),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def loads(cls, text: str) -> "SimCheckpoint":
        return cls.from_dict(json.loads(text))


class CheckpointStore:
    """Sharded, atomically-written checkpoint files.

    Layout: ``<root>/<fp[:2]>/<fingerprint>/<serviced>.json`` — one
    directory per configuration fingerprint, one file per cut.
    """

    def __init__(
        self, root: Optional[Path] = None, enabled: bool = True
    ) -> None:
        self.root = Path(root) if root is not None else default_checkpoint_dir()
        self.enabled = enabled

    def _dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / fingerprint

    def _path(self, fingerprint: str, serviced: int) -> Path:
        return self._dir(fingerprint) / f"{serviced}.json"

    def put(self, checkpoint: SimCheckpoint) -> None:
        """Persist one cut atomically (temp file + ``os.replace``)."""
        if not self.enabled:
            return
        path = self._path(checkpoint.fingerprint, checkpoint.serviced)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-ckpt-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(checkpoint.dumps())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def get(
        self, fingerprint: str, serviced: int
    ) -> Optional[SimCheckpoint]:
        """Load one cut; corrupt or missing files are misses."""
        if not self.enabled:
            return None
        path = self._path(fingerprint, serviced)
        try:
            checkpoint = SimCheckpoint.loads(path.read_text())
        except (OSError, ValueError, KeyError):
            return None
        if (
            checkpoint.fingerprint != fingerprint
            or checkpoint.serviced != serviced
        ):
            return None
        return checkpoint

    def cuts(self, fingerprint: str) -> List[int]:
        """Persisted cut points for a fingerprint, ascending."""
        if not self.enabled:
            return []
        directory = self._dir(fingerprint)
        found: List[int] = []
        try:
            names = os.listdir(directory)
        except OSError:
            return found
        for name in sorted(names):
            stem, _, suffix = name.partition(".")
            if suffix == "json" and stem.isdigit():
                found.append(int(stem))
        found.sort()
        return found

    def latest(
        self,
        fingerprint: str,
        max_serviced: Optional[int] = None,
        accept: Optional[Callable[[SimCheckpoint], bool]] = None,
    ) -> Optional[SimCheckpoint]:
        """The deepest persisted cut, optionally capped at a total.

        The cap is what makes warm-start forking safe: a point may only
        resume from a cut no deeper than its own full run. ``accept``
        adds a caller predicate per loaded checkpoint (e.g. the
        runner's no-exhausted-core rule for cross-length forks).
        """
        for serviced in reversed(self.cuts(fingerprint)):
            if max_serviced is not None and serviced > max_serviced:
                continue
            checkpoint = self.get(fingerprint, serviced)
            if checkpoint is None:
                continue
            if accept is not None and not accept(checkpoint):
                continue
            return checkpoint
        return None


class CheckpointSession:
    """Cut/persist/resume plan for one :meth:`SystemSimulator.run`.

    ``every`` cuts at each positive multiple of that serviced count;
    ``cuts`` adds explicit serviced counts (0 = before the first
    request, the run's total = after the last one). ``sink`` receives
    each :class:`SimCheckpoint` as it is taken; ``resume`` is a
    checkpoint to restore before the first request. The session records
    what happened (``saved``, ``resumed_from``) for ledger rows and
    tests.
    """

    def __init__(
        self,
        fingerprint: str = "",
        every: int = 0,
        cuts: tuple = (),
        sink: Optional[Callable[[SimCheckpoint], None]] = None,
        resume: Optional[SimCheckpoint] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if every < 0:
            raise ValueError("checkpoint interval must be >= 0")
        self.fingerprint = fingerprint
        self.every = every
        self.cuts = frozenset(int(cut) for cut in cuts)
        self.sink = sink
        self.resume = resume
        self.meta = dict(meta or {})
        self.saved: List[int] = []
        self.resumed_from = resume.serviced if resume is not None else 0
        if resume is not None and fingerprint and (
            resume.fingerprint != fingerprint
        ):
            raise ValueError(
                "resume checkpoint fingerprint does not match this run's "
                f"configuration ({resume.fingerprint[:12]}... != "
                f"{fingerprint[:12]}...)"
            )

    def next_cut(self, serviced: int) -> int:
        """The first serviced count ``>= serviced`` to cut at, or -1."""
        cut = -1
        if self.every:
            cut = -(-max(serviced, 1) // self.every) * self.every
        for explicit in self.cuts:
            if serviced <= explicit and (cut < 0 or explicit < cut):
                cut = explicit
        return cut

    def save(self, serviced: int, payload: Any) -> SimCheckpoint:
        """Wrap a payload as a checkpoint and hand it to the sink."""
        checkpoint = SimCheckpoint(
            fingerprint=self.fingerprint,
            serviced=serviced,
            payload=payload,
            meta=dict(self.meta),
        )
        self.saved.append(serviced)
        if self.sink is not None:
            self.sink(checkpoint)
        return checkpoint
