"""On-disk result caching for the figure and table reproductions.

:class:`ResultCache` is a JSON cache keyed by a stable hash of the
experiment configuration (:func:`config_hash`), so re-running a benchmark
with unchanged settings is free.

Environment knobs
-----------------
``REPRO_CACHE_DIR``
    Default directory of :class:`ResultCache` instances created without an
    explicit path.
``REPRO_NO_CACHE``
    Set to ``1`` to disable cache reads/writes without touching call sites.

Example
-------
>>> from repro.experiments.cache import ResultCache
>>> cache = ResultCache()
>>> data, hit = cache.get_or_compute("fig2", config, lambda: slow_figure(config))
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.utils.serialization import to_jsonable

__all__ = ["ResultCache", "config_hash"]


def config_hash(*objects: Any) -> str:
    """A stable hex digest of arbitrary configuration objects.

    Objects are converted with :func:`repro.utils.serialization.to_jsonable`
    (dataclasses become field dicts) and serialized with sorted keys, so the
    digest depends only on configuration *values* — not object identity,
    insertion order or process.  Objects whose representation embeds a
    memory address (the default ``object.__repr__``, functions, lambdas and
    bound methods), which would make the digest differ per process, are
    rejected with :class:`ValueError` — pass dataclasses, dicts or other
    JSON-representable values instead.
    """
    canonical = json.dumps(to_jsonable(list(objects)), sort_keys=True)
    if re.search(r" at 0x[0-9a-fA-F]+", canonical):
        raise ValueError(
            "config objects must have a value-based representation "
            "(dataclass, dict, sequence or scalar); got an address-based "
            f"repr in {canonical[:120]!r}"
        )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ResultCache:
    """JSON result cache keyed by experiment name + configuration hash.

    Entries live under ``directory`` as ``<name>-<hash>.json``.  The cache is
    content-addressed: any change to the configuration changes the key, so a
    stale entry can never be returned for new settings.  Set ``REPRO_NO_CACHE=1``
    to turn every lookup into a miss (and every store into a no-op).
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        if directory is None:
            directory = os.environ.get(
                "REPRO_CACHE_DIR",
                os.path.join(os.path.expanduser("~"), ".cache", "repro-experiments"),
            )
        self.directory = Path(directory)

    @property
    def enabled(self) -> bool:
        """False when ``REPRO_NO_CACHE=1`` is set in the environment."""
        return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("1", "true", "yes")

    def path_for(self, name: str, *config: Any) -> Path:
        """The on-disk path for ``name`` under configuration ``config``."""
        return self.directory / f"{name}-{config_hash(*config)}.json"

    def load(self, name: str, *config: Any) -> Optional[Dict]:
        """The cached payload, or ``None`` on a miss/disabled cache."""
        if not self.enabled:
            return None
        path = self.path_for(name, *config)
        if not path.exists():
            return None
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def store(self, name: str, data: Dict, *config: Any) -> Optional[Path]:
        """Persist ``data`` for ``name``/``config``; returns the path written.

        The write is atomic (temp file in the same directory, then
        ``os.replace``): two processes storing the same key, say two
        benchmark runs sharing one cache directory, race harmlessly — a
        reader only ever sees a complete payload, never torn JSON from an
        in-progress write.
        """
        if not self.enabled:
            return None
        path = self.path_for(name, *config)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp_path = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with temp_path.open("w", encoding="utf-8") as handle:
                json.dump(to_jsonable(data), handle, indent=2)
            os.replace(temp_path, path)
        finally:
            if temp_path.exists():
                temp_path.unlink()
        return path

    def get_or_compute(
        self, name: str, config: Any, compute: Callable[[], Dict]
    ) -> Tuple[Dict, bool]:
        """Return ``(payload, was_cache_hit)``, computing and storing on miss."""
        cached = self.load(name, config)
        if cached is not None:
            return cached, True
        data = compute()
        self.store(name, data, config)
        return data, False

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            removed += 1
        return removed
