"""Content-addressed on-disk cache for simulation results.

Every sweep point is hashed to a SHA-256 key over its *complete* input
description — canonicalized system configuration, mitigation recipe,
workload name, trace seed, request count — plus the digest of the
package's own source. The serialized :class:`~repro.mem.metrics.SimMetrics` for that key is
stored as one JSON file, so re-running a sweep only simulates points
whose inputs actually changed.

Code in the key
---------------
:func:`source_digest` hashes every ``*.py`` and ``*.c`` file of the
installed ``repro`` package, and :func:`canonical_key` folds it into
every key (result-cache keys and checkpoint fingerprints alike). A
cached result is a claim about the code that produced it, so any edit
to the package misses the cache once — refactors included. Entries of
older trees are never read again; ``make clean-cache`` reclaims them.

Location: ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.
Set ``REPRO_CACHE=0`` to disable caching globally.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Optional

from repro.mem.metrics import SimMetrics

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_CACHE"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(_ENV_DIR, "")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def cache_enabled_by_env() -> bool:
    """False only when ``REPRO_CACHE=0`` explicitly opts out."""
    return os.environ.get(_ENV_ENABLE, "1") != "0"


def digest_sources(package: Path) -> str:
    """SHA-256 over the path and bytes of every ``*.py`` and ``*.c``
    file under ``package`` (sorted, ``__pycache__`` skipped)."""
    package = Path(package)
    sources = sorted(
        (path.relative_to(package).as_posix(), path)
        for path in package.rglob("*")
        if path.suffix in (".py", ".c")
        and "__pycache__" not in path.relative_to(package).parts
    )
    digest = hashlib.sha256()
    for name, path in sources:
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@lru_cache(maxsize=None)
def source_digest() -> str:
    """:func:`digest_sources` of the installed ``repro`` package,
    computed once per process."""
    return digest_sources(Path(__file__).resolve().parents[1])


def canonical_key(description: Dict[str, Any]) -> str:
    """SHA-256 hex key over a canonical-JSON run description and the
    package's :func:`source_digest`.

    Rejects descriptions that cannot be canonicalized stably: NaN and
    ±inf (whose JSON spellings are non-standard and compare unequal to
    themselves) and values with no JSON representation would otherwise
    produce a silently unstable — or unreachable — cache key.
    """
    payload = {"source": source_digest(), "run": description}
    try:
        text = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise ValueError(
            f"run description contains non-finite floats (NaN/inf), which "
            f"have no canonical JSON form: {exc}"
        ) from None
    except TypeError as exc:
        raise ValueError(
            f"run description is not canonicalizable to JSON: {exc}"
        ) from None
    return hashlib.sha256(text.encode()).hexdigest()


class ResultCache:
    """Filesystem-backed map from run key to :class:`SimMetrics`.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (two-level fan-out
    keeps directories small on big sweeps). Writes go through a
    same-directory temp file + ``os.replace`` so concurrent workers
    never observe a torn entry. ``hits``/``misses``/``stores`` count
    this instance's traffic.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = cache_enabled_by_env() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimMetrics]:
        """The cached metrics for ``key``, or None on a miss."""
        if not self.enabled:
            self.misses += 1
            return None
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            metrics = SimMetrics.from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, TypeError, OSError):
            # Corrupt or stale entry: drop it and resimulate.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put(self, key: str, metrics: SimMetrics) -> None:
        """Store one run's metrics under ``key`` (atomic replace)."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(metrics.to_dict(), handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    def clear(self) -> int:
        """Delete every entry under the cache root, and every checkpoint
        cut under its ``checkpoints/<fp[:2]>/<fp>/`` (where
        ``CheckpointStore`` keeps them by default: a package edit
        orphans them all); returns the count."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in chain(
            self.root.glob("*/*.json"), self.root.glob("checkpoints/*/*/*.json")
        ):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
