"""Shared utilities: deterministic hashing, seeding, atomic file
writing and table rendering."""

from .fileio import (
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    fsync_handle,
)
from .hashing import (
    MASK64,
    mix,
    mix_choice,
    mix_to_unit,
    splitmix64,
    stable_string_hash,
)
from .randomness import SeedSpawner
from .tables import format_percent, render_table

__all__ = [
    "MASK64",
    "SeedSpawner",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "format_percent",
    "fsync_handle",
    "mix",
    "mix_choice",
    "mix_to_unit",
    "render_table",
    "splitmix64",
    "stable_string_hash",
]
