"""Counter-based seed derivation.

A single master seed expands into independent per-purpose seeds via
SHA-256 over a tagged tuple of parts. The scheme is platform-independent
and documented in the README so runs can be reproduced exactly.
"""

from __future__ import annotations

import hashlib


def _encode(part: int | str) -> bytes:
    """A part with a type tag and a length prefix, so distinct tuples never share an encoding."""
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    payload = str(part).encode("utf-8")
    return (b"i" if isinstance(part, int) else b"s") + len(payload).to_bytes(4, "big") + payload


def derive_seed(*parts: int | str) -> int:
    """Derive a nonnegative 63-bit seed from a tuple of ints and strings."""
    if not parts:
        raise ValueError("derive_seed requires at least one part")
    return int.from_bytes(hashlib.sha256(b"".join(map(_encode, parts))).digest()[:8], "big") >> 1

