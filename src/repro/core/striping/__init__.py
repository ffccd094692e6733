"""Striped large-file subsystem: stripe maps and parallel range I/O.

``stripe_size`` is one more per-file parameter (§2, §4): files whose
contents exceed it split into fixed-size stripe segments, each an ordinary
replicated segment with its own write token, version history, and replica
set.  See :mod:`repro.core.striping.stripemap` for the map
representation and :mod:`repro.core.striping.striper` for the service the
NFS envelope routes range I/O through.
"""

from repro.core.striping.stripemap import (
    META_KEY,
    StripeMap,
    StripeRange,
    file_length,
    merge_extend,
    split_range,
    wants_stripes,
)
from repro.core.striping.striper import Striper

__all__ = ["META_KEY", "StripeMap", "StripeRange", "Striper",
           "file_length", "merge_extend", "split_range", "wants_stripes"]
