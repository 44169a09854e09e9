"""Memcached on HICAMP (section 4.4) and on the conventional baseline.

:class:`HicampMemcached` implements the key-value cache exactly as the
paper sketches: the KVP map is a sparse array indexed by the
content-unique identity of the key string, reads run against private
snapshots with no locks or IPC, and updates commit by CAS with
merge-update. :class:`ConventionalMemcached` models the classic
implementation — hash table, chained items, and socket-buffer copies —
as an address trace fed to the DineroIV-like cache hierarchy, which is
what the paper's Figure 6 baseline measured through VMware tracing.
"""

from repro.apps.memcached.server import HicampMemcached
from repro.apps.memcached.conventional import ConventionalMemcached
from repro.apps.memcached.compaction import measure_compaction

__all__ = ["HicampMemcached", "ConventionalMemcached",
           "measure_compaction"]
