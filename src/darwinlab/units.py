"""Unit systems.

All internal identities are unit-covariant, so the default is natural units
(hbar = c = eps0 = 1).  An SI record is provided for callers that want to
attach physical scales to exported fields; it only changes the conversion
weights between wavefunction blocks and classical field amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Units:
    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0
    label: str = "natural"

    @property
    def mu0(self) -> float:
        # c = 1/sqrt(eps0*mu0)
        return 1.0 / (self.eps0 * self.c**2)

    def to_dict(self) -> dict:
        return {"hbar": self.hbar, "c": self.c, "eps0": self.eps0, "label": self.label}

    @staticmethod
    def from_dict(d: dict) -> "Units":
        return Units(hbar=float(d["hbar"]), c=float(d["c"]), eps0=float(d["eps0"]),
                     label=str(d["label"]))


NATURAL = Units()

SI = Units(
    hbar=1.054571817e-34,
    c=2.99792458e8,
    eps0=8.8541878128e-12,
    label="si",
)
