"""On-disk result cache for experiment shards.

Repeated sweeps dominate the reproduction's wall-clock cost: the
sensitivity harness re-runs whole experiments per seed, threshold sweeps
re-run them per parameter, and the Figure 2 scan re-classifies millions of
domains that have not changed since the last run.  This cache memoizes the
JSON-able output of each shard, keyed by::

    sha256(canonical_json({experiment, params, version}))

so a repeated sweep skips every shard it has already computed.  The
package version participates in the key: upgrading the code invalidates
every prior entry rather than serving stale results.

Entries are plain JSON files under ``~/.cache/repro-greylisting`` (or
``$REPRO_CACHE_DIR``), one directory per experiment — easy to inspect,
easy to delete.  Corrupt or truncated files count as misses, never as
errors.  Writes go through a temp file + :func:`os.replace` so a reader
never observes a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

logger = logging.getLogger(__name__)

_MISS = object()


def _package_version() -> str:
    try:
        from .. import __version__

        return __version__
    except ImportError:  # pragma: no cover - only during partial init
        return "0"


def canonical_params(params: Dict[str, Any]) -> str:
    """Stable JSON encoding of a parameter dict (sorted keys, no spaces)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-greylisting``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-greylisting"


class ResultCache:
    """JSON file cache keyed by experiment name + params + package version.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first write.  Defaults to
        :func:`default_cache_root`.
    version:
        Key component identifying the code that produced the values;
        defaults to the installed package version.
    """

    def __init__(
        self, root: Optional[Path] = None, version: Optional[str] = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version if version is not None else _package_version()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries that failed to parse and were quarantined (``.corrupt``)
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key_for(self, experiment: str, params: Dict[str, Any]) -> str:
        """Content hash identifying one (experiment, params, version) cell."""
        payload = canonical_params(
            {
                "experiment": experiment,
                "params": params,
                "version": self.version,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, experiment: str, params: Dict[str, Any]) -> Path:
        return self.root / experiment / f"{self.key_for(experiment, params)}.json"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(
        self, experiment: str, params: Dict[str, Any], default: Any = None
    ) -> Any:
        """Fetch a cached value, or ``default`` on any kind of miss."""
        value = self._read(self.path_for(experiment, params))
        if value is _MISS:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def put(self, experiment: str, params: Dict[str, Any], value: Any) -> Path:
        """Store a JSON-able value; returns the entry's path."""
        path = self.path_for(experiment, params)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "experiment": experiment,
            "params": params,
            "version": self.version,
            "value": value,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def _read(self, path: Path) -> Any:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return _MISS
        except (OSError, ValueError):
            # Truncated write, disk error, garbage bytes: quarantine the
            # file so the next run does not re-parse (and re-log) it.
            self._quarantine(path, "unreadable or not valid JSON")
            return _MISS
        if not isinstance(document, dict) or "value" not in document:
            self._quarantine(path, "valid JSON but not a cache document")
            return _MISS
        if document.get("version") != self.version:
            # Healthy entry from other code — a miss, not corruption.
            return _MISS
        return document["value"]

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside as ``<name>.corrupt`` and count the event."""
        self.corrupt += 1
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None
        logger.warning(
            "cache_corrupt: %s (%s)%s",
            path,
            reason,
            f"; moved to {quarantined}" if quarantined else "",
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self, experiment: Optional[str] = None) -> int:
        """Delete entries (all, or one experiment's); returns count removed."""
        removed = 0
        targets = (
            [self.root / experiment] if experiment is not None else
            [p for p in self.root.glob("*") if p.is_dir()]
        ) if self.root.exists() else []
        for directory in targets:
            for entry in directory.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, version={self.version!r}, "
            f"hits={self.hits}, misses={self.misses}, corrupt={self.corrupt})"
        )
