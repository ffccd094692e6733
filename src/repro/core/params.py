"""Per-file semantic parameters (§4 of the paper).

These five knobs are Deceit's thesis: "it is valuable for the user to be
able to adjust system semantics on a per file basis."  Defaults follow the
paper exactly, and the default behaviour is equivalent to NFS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class Availability(Enum):
    """Write availability level: when may a lost write token be regenerated.

    - ``HIGH`` — generate whenever needed; partitions will likely produce
      multiple file versions.
    - ``MEDIUM`` (default) — generate only when a majority of replicas is
      reachable; a token is *disabled* when its holder loses the majority.
      Some replicas may occasionally be read-only, but divergence is rare.
    - ``LOW`` — never generate; no divergence ever, but write access may be
      lost for long periods.
    """

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


@dataclass(frozen=True)
class FileParams:
    """The six user-settable parameters attached to every segment: the
    paper's five (§4) and ``stripe_size``.

    Attributes
    ----------
    min_replicas:
        Minimum replica level — Deceit maintains at least this many
        non-volatile replicas while enough servers are available.
    write_safety:
        Number of replica servers that must reply to an update before the
        write RPC returns.  0 = asynchronous unsafe writes; values at or
        above the replica count give fully synchronous writes.
    stability_notification:
        Whether the stability-notification protocol runs, guaranteeing
        global one-copy serializability and bounded-delay visibility at a
        performance cost (§3.4).
    file_migration:
        Whether a server receiving requests for a file it does not hold
        should create a local non-volatile replica in the background
        (§3.1 method 4).  Off by default (the paper's default for the
        parameter as listed in §4).
    write_availability:
        Token regeneration policy under failure/partition (§3.5).
    stripe_size:
        The sixth knob, post-paper (the §6.2 dispersion scenario at scale):
        when set, a file whose contents exceed this many bytes is split
        into fixed-size stripe segments — each an ordinary replicated
        segment with its own write token, version history, and replica
        set (see :mod:`repro.core.striping`).  ``None`` (the default)
        keeps the file a single blob segment whatever its size.
    """

    min_replicas: int = 1
    write_safety: int = 1
    stability_notification: bool = True
    file_migration: bool = False
    write_availability: Availability = Availability.MEDIUM
    stripe_size: int | None = None

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.write_safety < 0:
            raise ValueError("write_safety must be >= 0")
        if self.stripe_size is not None and self.stripe_size < 1:
            raise ValueError("stripe_size must be >= 1 (or None)")

    def with_updates(self, **changes) -> "FileParams":
        """Copy with some fields changed (segments are updated via setparam)."""
        if "write_availability" in changes and isinstance(changes["write_availability"], str):
            changes["write_availability"] = Availability(changes["write_availability"])
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Serializable form (stored on disk with each replica)."""
        return {
            "min_replicas": self.min_replicas,
            "write_safety": self.write_safety,
            "stability_notification": self.stability_notification,
            "file_migration": self.file_migration,
            "write_availability": self.write_availability.value,
            "stripe_size": self.stripe_size,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FileParams":
        """Inverse of :meth:`to_dict`."""
        return cls(
            min_replicas=raw["min_replicas"],
            write_safety=raw["write_safety"],
            stability_notification=raw["stability_notification"],
            file_migration=raw["file_migration"],
            write_availability=Availability(raw["write_availability"]),
            # .get: records persisted before striping existed have no key
            stripe_size=raw.get("stripe_size"),
        )


#: The paper's defaults (§4): behaves like plain NFS plus one replica.
DEFAULT_PARAMS = FileParams()
