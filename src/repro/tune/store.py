"""Persistent tuned-plan store.

A :class:`TuneStore` maps workload keys to the winning plan configuration
found by the tuner, versioned JSON on disk.  Entries are only valid for
the exact device they were tuned on, so the file carries a **fingerprint**
— a SHA-256 over the canonical JSON form of the full
:class:`~repro.hw.config.DeviceConfig` (core counts, clock, buffer sizes,
every cost constant).  Loading a store against a different config, or a
file with a different schema version, yields an *empty* store (flagged
``invalidated``) rather than silently serving stale configurations.

The store is deliberately dependency-free state: plain dataclasses and
:mod:`json`, no pickle — the file is diffable and safe to commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

from ..errors import ConfigError
from ..hw.config import DeviceConfig

__all__ = ["STORE_VERSION", "TunedEntry", "TuneStore", "config_fingerprint", "store_key_1d"]

#: bump when the on-disk schema changes; older files are discarded
STORE_VERSION = 1


def store_key_1d(n: int, dtype: str, exclusive: bool = False) -> str:
    """The store key of a 1-D workload: ``1d:{n}:{dtype}:{x|i}``."""
    return f"1d:{n}:{dtype}:{'x' if exclusive else 'i'}"


def config_fingerprint(config: DeviceConfig) -> str:
    """SHA-256 over the canonical JSON of the device config.

    Any change to the simulated hardware — a cost constant, a buffer
    size, the core count — changes the fingerprint and therefore
    invalidates every tuned entry, which is exactly right: tuning results
    are measurements of one specific machine.
    """
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class TunedEntry:
    """The winning configuration for one workload, with its evidence."""

    algorithm: str
    s: int
    block_dim: "int | None"
    #: "batched" for the row-parallel kernels, "1d" for per-row plans
    layout: str
    #: measured device ns of the winner (total, all launches)
    tuned_ns: float
    #: measured device ns of the default configuration on this workload
    default_ns: float
    #: candidates actually traced / pruned by the roofline floors
    evaluated: int = 0
    pruned: int = 0

    @property
    def speedup(self) -> float:
        return self.default_ns / self.tuned_ns if self.tuned_ns else 0.0


class TuneStore:
    """In-memory map of workload key → :class:`TunedEntry`, with JSON
    persistence and device fingerprinting.

    Which entry serves a request is
    :func:`~repro.tune.space.resolve_candidate`'s choice; its serving
    lookups count hits and misses, which feed the serve layer's stats.
    """

    def __init__(self, config: DeviceConfig, *, path: "str | None" = None):
        self.config = config
        self.fingerprint = config_fingerprint(config)
        self.path = path
        self.entries: "dict[str, TunedEntry]" = {}
        #: True when a load discarded a stale/foreign file
        self.invalidated = False
        self.lookup_hits = 0
        self.lookup_misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    # -- record / lookup -----------------------------------------------------

    def record(self, store_key: str, entry: TunedEntry) -> None:
        """Insert or improve: an existing entry is only replaced by one
        with a strictly better tuned time."""
        old = self.entries.get(store_key)
        if old is None or entry.tuned_ns < old.tuned_ns:
            self.entries[store_key] = entry

    def lookup_1d(
        self, *, n: int, dtype: str, exclusive: bool = False
    ) -> "TunedEntry | None":
        """The entry for a 1-D workload, counted as a hit or a miss."""
        entry = self.entries.get(store_key_1d(n, dtype, exclusive))
        if entry is None:
            self.lookup_misses += 1
        else:
            self.lookup_hits += 1
        return entry

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "version": STORE_VERSION,
            "device": self.config.name,
            "fingerprint": self.fingerprint,
            "entries": {
                key: dataclasses.asdict(entry)
                for key, entry in sorted(self.entries.items())
            },
        }

    def save(self, path: "str | None" = None) -> str:
        """Write the store atomically (write + rename); returns the path."""
        path = path or self.path
        if path is None:
            raise ConfigError("TuneStore.save() needs a path")
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(self.to_payload(), f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str, config: DeviceConfig) -> "TuneStore":
        """Load a store for ``config``; a missing file, an older schema
        version, or a fingerprint mismatch all yield an empty store (the
        latter two flagged ``invalidated``) — never stale entries."""
        store = cls(config, path=path)
        if not os.path.exists(path):
            return store
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            store.invalidated = True
            return store
        if (
            payload.get("version") != STORE_VERSION
            or payload.get("fingerprint") != store.fingerprint
        ):
            store.invalidated = True
            return store
        for key, raw in payload.get("entries", {}).items():
            store.entries[key] = TunedEntry(**raw)
        return store
