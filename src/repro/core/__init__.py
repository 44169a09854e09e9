"""Core public API: the HICAMP machine facade, non-blocking atomic-update
transactions, the protected-reference process model, and machine
checkpointing.
"""

from repro.core.machine import Machine, Processor
from repro.core.persistence import load_machine, restore_machine, save_machine
from repro.core.process import Process, ProtectionError
from repro.core.transactions import MultiSegmentCommit, atomic_update

__all__ = [
    "Machine",
    "Processor",
    "MultiSegmentCommit",
    "atomic_update",
    "Process",
    "ProtectionError",
    "save_machine",
    "load_machine",
    "restore_machine",
]
