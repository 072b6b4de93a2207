"""Content-addressed, on-disk cache of simulation runs.

Every headline artifact (Figures 10-13, the scorecard, the ablations)
is a grid of ``benchmark x design x IW`` timing runs.  The in-memory
run store in :mod:`repro.experiments.runner` shares runs *within* a
process; this cache sits behind it and shares them *across* processes
and CI jobs, so a re-run of the FULL grid after an unrelated change
costs file reads, not hours of simulation.  Both are keyed by
:func:`run_key`.

Keys are content hashes over everything that determines a run's output:

* the benchmark profile (every generator-spec field, so re-calibrating
  a workload invalidates only that workload's entries);
* the design name and the *effective* instruction window (0 for
  designs that ignore it);
* the :class:`~repro.experiments.runner.RunScale`;
* the default machine configuration (``GPUConfig()`` field by field);
* :data:`MODEL_FINGERPRINT`.

The key is the sha256 of one canonical JSON text,
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` over
those parts.  :func:`run_key` builds that text piecewise without
changing a byte: the two large parts, the profile spec and the
``GPUConfig``, are frozen values, so each distinct one is encoded once
per process and its text reused; the small parts are formatted on every
call.  Existing cache directories therefore stay warm.

Values are :class:`~repro.gpu.sm.SimulationResult` payloads in the
JSON format of :mod:`repro.kernels.serialize`.  Entries are written
atomically (temp file + rename) so concurrent sweep workers and CI
jobs can share one cache directory.

Simulator *behaviour* the key cannot see (e.g. a timing-model fix)
fails the golden points; regenerating them changes
:data:`MODEL_FINGERPRINT`, so stale entries miss instead of silently
serving old numbers.

The cache is an accelerator, never a point of failure: ``get`` and
``put`` swallow OS-level errors (a full disk, a permission change
mid-sweep) and count them in :class:`CacheStats.io_errors`; after
:attr:`RunCache.error_threshold` such failures the cache self-disables
for the rest of the process with a single
:class:`CacheDegradedWarning`, and the sweep finishes uncached.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..config import GPUConfig
from ..errors import KernelError
from ..kernels.serialize import result_from_dict, result_to_dict
from ..kernels.suites import get_profile
from ..stats.cache import CacheStats

if TYPE_CHECKING:
    from ..gpu.sm import SimulationResult
    from .runner import RunScale

#: The sha256 of the canonical JSON (sorted keys, no whitespace) of the
#: parsed ``tests/data/engine_golden.json``; a test recomputes it.
MODEL_FINGERPRINT = (
    "0b5deab853424487b89baf893e2a485c14301d24d86e8fe702a72f6a05bb114b"
)

#: Environment variable naming the default cache directory.  Unset
#: means no on-disk caching unless a cache is configured explicitly.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: I/O failures tolerated before a cache self-disables (default for
#: :attr:`RunCache.error_threshold`).
DEFAULT_ERROR_THRESHOLD = 8


class CacheDegradedWarning(RuntimeWarning):
    """Emitted once when a :class:`RunCache` self-disables."""


#: Types :func:`_jsonable` passes through unchanged (exact types, so an
#: ``IntEnum`` still reaches the enum branch).
_SCALARS = frozenset((int, float, str, bool, type(None)))


def _jsonable(value):
    """Canonical JSON-compatible form of config/spec values."""
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            item.name: _jsonable(getattr(value, item.name))
            for item in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in sorted(value.items())}
    return value


#: The canonical encoder: sorted keys, no whitespace.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_DEFAULT_CONFIG = GPUConfig()

#: Canonical text of each distinct frozen key part (profile spec or
#: machine config) seen so far, by value and by identity.  An identity
#: entry holds its object, so its id cannot be reused while it lives,
#: and there is one per distinct value: the tables grow with the
#: distinct specs and configs, never with scales or points.  A race
#: between threads at worst encodes one value twice.
_TEXT_BY_VALUE: Dict[object, str] = {}
_TEXT_BY_ID: Dict[int, Tuple[object, str]] = {}


def _frozen_text(value) -> str:
    """Canonical JSON of a frozen key part, encoded once per value.

    The identity lookup neither hashes nor walks ``value``; an equal
    but distinct object costs one hash and no encoding.
    """
    entry = _TEXT_BY_ID.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    text = _TEXT_BY_VALUE.get(value)
    if text is None:
        text = _encode(_jsonable(value))
        _TEXT_BY_VALUE[value] = text
        _TEXT_BY_ID[id(value)] = (value, text)
    return text


def run_key(
    benchmark: str,
    design: str,
    window_size: int,
    scale: "RunScale",
    config: Optional[GPUConfig] = None,
) -> str:
    """Content hash identifying one run of the experiment grid.

    ``window_size`` should be the *effective* window (0 for designs
    that ignore it) so equivalent runs share an entry.  The hashed text
    is byte for byte ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` of the payload ``{"schema", "benchmark",
    "profile", "design", "window", "scale", "gpu"}``, its keys written
    here in sorted order.
    """
    profile = get_profile(benchmark)
    canonical = (
        '{"benchmark":' + _encode(profile.name)
        + ',"design":' + _encode(design)
        + ',"gpu":' + _frozen_text(config or _DEFAULT_CONFIG)
        + ',"profile":' + _frozen_text(profile.spec)
        + ',"scale":' + _encode(_jsonable(scale))
        + ',"schema":' + _encode(MODEL_FINGERPRINT)
        + ',"window":' + _encode(window_size) + "}"
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """The cache directory named by the environment, or a per-user one."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return Path(configured).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(xdg).expanduser() / "repro-bow" / "runs"


def cache_from_env() -> Optional["RunCache"]:
    """A :class:`RunCache` at ``$REPRO_CACHE_DIR``, or ``None`` if unset."""
    if os.environ.get(CACHE_DIR_ENV):
        return RunCache(default_cache_dir())
    return None


class RunCache:
    """A directory of serialized simulation results, addressed by key.

    Layout: ``<root>/<MODEL_FINGERPRINT>/<key[:2]>/<key>.json`` — the
    two-level fan-out keeps directories small on FULL-grid sweeps, and
    the fingerprint root makes a model change a clean miss.

    ``get``/``put`` never propagate :class:`OSError`: each failure is
    counted (``CacheStats.io_errors``), and after ``error_threshold``
    failures the cache self-disables for the rest of the process —
    every later call becomes a silent no-op, so a full disk costs one
    :class:`CacheDegradedWarning` instead of a dead sweep.
    """

    def __init__(self, root: Union[str, Path],
                 error_threshold: int = DEFAULT_ERROR_THRESHOLD):
        self.root = Path(root).expanduser()
        self.stats = CacheStats()
        self.error_threshold = max(1, int(error_threshold))
        self._io_errors = 0
        self._disabled = False

    def _path(self, key: str) -> Path:
        return self.root / MODEL_FINGERPRINT / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    @property
    def disabled(self) -> bool:
        """Whether the cache has self-disabled after repeated I/O errors."""
        return self._disabled

    def reenable(self) -> None:
        """Re-arm a self-disabled cache (e.g. after freeing disk space)."""
        self._disabled = False
        self._io_errors = 0

    def _note_io_error(self, action: str, error: OSError) -> None:
        """Count one swallowed I/O failure; disable at the threshold."""
        self.stats.io_errors += 1
        self._io_errors += 1
        if not self._disabled and self._io_errors >= self.error_threshold:
            self._disabled = True
            self.stats.disables += 1
            warnings.warn(
                f"run cache at {self.root} disabled after "
                f"{self._io_errors} I/O errors (last {action} failed: "
                f"{error}); continuing uncached",
                CacheDegradedWarning,
                stacklevel=3,
            )

    def _read_text(self, path: Path) -> str:
        """Read one entry's payload (fault-injection seam)."""
        return path.read_text(encoding="utf-8")

    def _write_entry(self, path: Path, text: str) -> None:
        """Atomically publish one entry (fault-injection seam)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_name, path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def get(self, key: str) -> Optional["SimulationResult"]:
        """The cached result for ``key``, or ``None`` (counted as a miss).

        A missing file is a plain miss.  An *unreadable* file (EACCES,
        EIO, ...) additionally counts under ``errors``/``io_errors``
        and feeds the self-disable threshold.  Undecodable entries
        (truncated writes, format drift) are deleted and counted under
        ``errors`` as well as ``misses``.  Never raises ``OSError``.
        """
        if self._disabled:
            return None
        path = self._path(key)
        try:
            text = self._read_text(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as error:
            self.stats.misses += 1
            self.stats.errors += 1
            self._note_io_error("read", error)
            return None
        try:
            result = result_from_dict(json.loads(text))
        except (json.JSONDecodeError, KernelError):
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(text)
        return result

    def put(self, key: str, result: "SimulationResult") -> None:
        """Store ``result`` under ``key``, atomically.  Never raises
        ``OSError`` — a failed write is counted and the result simply
        stays uncached."""
        if self._disabled:
            return
        text = json.dumps(result_to_dict(result))
        try:
            self._write_entry(self._path(key), text)
        except OSError as error:
            self._note_io_error("write", error)
            return
        self.stats.stores += 1
        self.stats.bytes_written += len(text)

    def entry_count(self) -> int:
        """Entries currently on disk for the current model."""
        versioned = self.root / MODEL_FINGERPRINT
        if not versioned.is_dir():
            return 0
        return sum(1 for _ in versioned.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry of the current model; returns count.

        Emptied ``<key[:2]>`` fan-out directories are removed as well,
        so a cleared cache leaves no skeleton behind.
        """
        versioned = self.root / MODEL_FINGERPRINT
        removed = 0
        if versioned.is_dir():
            for entry in versioned.glob("*/*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            for subdir in versioned.iterdir():
                if subdir.is_dir():
                    try:
                        subdir.rmdir()
                    except OSError:
                        pass  # not empty (foreign files) or in use
        return removed
