"""Deterministic seed derivation shared by every task family.

Lives in :mod:`repro.core` so low-level packages (the network
simulator, the vehicular substrate) can mint collision-free seeds
without importing the experiment drivers; :class:`repro.api.Session`
mints its seed lineage with it.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def derive_seed(base_seed: int, *key) -> int:
    """A stable, collision-resistant seed for one task of a family.

    Hashes ``(base_seed, *key)`` reprs with BLAKE2b, so seeds are
    independent of submission order, worker count, and Python hash
    randomisation -- the same task always simulates the same world.

    >>> derive_seed(0, "office", "mixed", 3) == derive_seed(0, "office", "mixed", 3)
    True
    >>> derive_seed(0, "office", "mixed", 3) != derive_seed(1, "office", "mixed", 3)
    True
    """
    blob = "|".join(repr(part) for part in (base_seed, *key)).encode()
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "little"
    ) >> 1  # keep it positive and well inside numpy's seed range
