"""The golden correctness gate.

Every operation the benchmark times renders its result as text; the gate
compares a digest of that text with the digest recorded in
``golden.json``.  A key names one output, e.g. ``ball_n1/bs23/elements``;
an output drawn from a pool of seeded variants carries the variant index.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_MIN_EIG = re.compile(r'("min_eigenvalue": )([-+0-9.eE]+)')


def normalize(text: str) -> str:
    """Round the minimum eigenvalue in Gram JSON to 1e-12, absolutely.

    It comes from LAPACK, whose last bits depend on the CPU's kernel
    selection, and sampled elements that share a vertex make it pure
    rounding noise around zero.  Every other byte is compared as is.
    """
    return _MIN_EIG.sub(
        lambda m: m[1] + format(round(float(m[2]), 12) + 0.0, ".12g"), text)


def fingerprint(text: str) -> str:
    return digest(normalize(text))


class Gate:
    """Checks outputs against recorded digests and collects mismatches."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.mismatches = []

    @classmethod
    def load(cls, path: Path = GOLDEN_PATH) -> "Gate":
        with open(path) as fh:
            return cls(json.load(fh)["outputs"])

    def expected(self, key: str, variant=None):
        value = self.recorded.get(key)
        if variant is None or value is None:
            return value
        return value[variant] if variant < len(value) else None

    def check(self, key: str, text: str, variant=None) -> bool:
        want = self.expected(key, variant)
        ok = want is not None and fingerprint(text) == want
        if not ok:
            self.mismatches.append((key, variant, text[:200]))
        return ok


class Recorder:
    """Collects digests in the layout ``Gate`` reads."""

    def __init__(self):
        self.outputs = {}

    def add(self, key: str, text: str, variant=None) -> None:
        if variant is None:
            self.outputs[key] = fingerprint(text)
        else:
            slots = self.outputs.setdefault(key, [])
            if len(slots) != variant:
                raise ValueError(f"{key}: variants must be recorded in order")
            slots.append(fingerprint(text))
