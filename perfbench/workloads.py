"""The benchmark's workloads: configs drawn from a seed, and the `dpl` commands
of one iteration.

Every workload is a closed loop with one client: the benchmark runs one `dpl`
process at a time and starts the next command only when the previous one has
exited.  `dpl` sees only the generated config and state files, never the seed.

Parameter ranges are chosen so that every drawn config passes all ten suites
at the default tolerances with margin.  oam_formula_gap is the tight check:
at dk = 1 the README's charge-2 annular vortex reaches 0.044 against the 0.05
bound, so vortices here have charge 1.  Over 20 seeds at n=32 and 12 at n=64
the largest gap was 0.56 and 0.58 of the bound.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One `dpl` invocation and what its output must satisfy."""

    command: str                 # build | check | observe | evolve | densities
    args: tuple[str, ...]        # argv after `dpl`
    expect: dict = field(default_factory=dict)


def _unit(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def _scaled(v, s):
    return [round(x * s, 6) for x in v]


def _perpendicular(rng: random.Random, w) -> list[float]:
    """A random unit vector perpendicular to the unit vector w."""
    while True:
        r = _unit(rng)
        c = [w[1] * r[2] - w[2] * r[1], w[2] * r[0] - w[0] * r[2], w[0] * r[1] - w[1] * r[0]]
        norm = math.sqrt(sum(x * x for x in c))
        if norm > 0.1:
            return [round(x / norm, 6) for x in c]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def readme_config(rng: random.Random, n: int) -> dict:
    """Two modes shaped like the README example: a circular gaussian plus an
    annular vortex about the same axis, with the axis direction and the mode
    parameters drawn from the seed."""
    w = _unit(rng)
    return {
        "grid": {"n": n, "dk": 1.0},
        "modes": [
            {"kind": "gaussian", "k0": _scaled(w, _u(rng, 7.0, 9.0)),
             "sigma_k": _u(rng, 1.4, 1.7), "helicity": rng.choice((1, -1))},
            {"kind": "vortex", "k0": _scaled(w, _u(rng, 6.0, 8.0)),
             "sigma_k": _u(rng, 1.4, 1.7), "polarization": _perpendicular(rng, w),
             "vortex_charge": rng.choice((1, -1)), "ring_radius": _u(rng, 6.0, 8.0),
             "amplitude": [_u(rng, 0.3, 0.7), _u(rng, -0.2, 0.2)]},
        ],
    }


def five_mode_config(rng: random.Random, n: int) -> dict:
    """One mode of every kind: a README-like circular gaussian and annular
    vortex about +z, a compact vortex about +x, a linear gaussian about +y
    and a plane wave in the negative octant.

    The layout keeps the modes apart.  Where two envelopes overlap, the
    finite-difference OAM error of the superposition grows well beyond that
    of either mode; and a gaussian tail that reaches the Nyquist planes
    k_i = -n/2 breaks the Hermitian pairing of the classical-field round
    trip.  The compact vortex carries a small amplitude: alone, its OAM error
    is 0.08 to 0.13 of its own OAM, above the 0.05 bound."""
    return {
        "grid": {"n": n, "dk": 1.0},
        "modes": [
            {"kind": "gaussian", "k0": [0.0, 0.0, _u(rng, 7.0, 8.5)],
             "sigma_k": _u(rng, 1.4, 1.6), "helicity": rng.choice((1, -1))},
            {"kind": "vortex", "k0": [0.0, 0.0, _u(rng, 6.5, 7.5)],
             "sigma_k": _u(rng, 1.4, 1.6), "polarization": _perpendicular(rng, (0.0, 0.0, 1.0)),
             "vortex_charge": rng.choice((1, -1)), "ring_radius": _u(rng, 6.0, 7.0),
             "amplitude": [_u(rng, 0.3, 0.6), _u(rng, -0.2, 0.2)]},
            {"kind": "vortex", "k0": [_u(rng, 5.0, 6.0), 0.0, 0.0],
             "sigma_k": _u(rng, 1.6, 1.9), "helicity": rng.choice((1, -1)),
             "vortex_charge": rng.choice((1, -1)), "amplitude": [_u(rng, 0.1, 0.2), 0.0]},
            {"kind": "gaussian", "k0": [0.0, _u(rng, 5.0, 6.0), 0.0],
             "sigma_k": _u(rng, 1.4, 1.6), "helicity": None,
             "polarization": _perpendicular(rng, (0.0, 1.0, 0.0)),
             "amplitude": [_u(rng, 0.5, 0.8), _u(rng, -0.3, 0.3)]},
            {"kind": "plane", "k0": [-rng.randint(4, 7), -rng.randint(2, 5), -rng.randint(2, 5)],
             "helicity": rng.choice((1, -1)), "amplitude": [_u(rng, 0.2, 0.5), 0.0]},
        ],
    }


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


class Workload:
    """A named closed-loop workload.

    ``prepare`` writes the configs for one seed and returns the set-up
    commands that build the input states; ``iteration`` returns the commands
    of iteration ``i``.  Inputs depend only on the seed and ``i``.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def prepare(self) -> list[Op]:
        raise NotImplementedError

    def iteration(self, i: int) -> list[Op]:
        raise NotImplementedError

    def evolve_time(self, i: int) -> float:
        # drawn per iteration, but fixed by (seed, i) so that a traced and an
        # untraced pass over the same iteration do the same work
        return round(random.Random(f"{self.name}:t:{self.seed}:{i}").uniform(0.5, 20.0), 6)


class CheckN64(Workload):
    name = "check-n64"
    why = ("full dpl check on a README-shaped n=64 state: FFT-, cross- and suite-bound, "
           "start-up under 5% of the operation")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = readme_config(self.rng, 64)

    def prepare(self):
        _write_json(self.path("state.json"), self.config)
        return [Op("build", ("--config", self.path("state.json"), "--out", self.path("state.dpst")))]

    def iteration(self, i):
        return [Op("check", (self.path("state.dpst"),))]


class EvolveN64(Workload):
    name = "evolve-n64"
    why = ("dpl evolve to a drawn time then dpl observe at n=64: the only workload that writes "
           "25 MB state files, and the dynamics path without the other suites")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = readme_config(self.rng, 64)

    def prepare(self):
        _write_json(self.path("state.json"), self.config)
        return [Op("build", ("--config", self.path("state.json"), "--out", self.path("state.dpst")))]

    def iteration(self, i):
        t = self.evolve_time(i)
        out = self.path(f"evolved-{i}.dpst")
        return [
            Op("evolve", (self.path("state.dpst"), repr(t), "--out", out), {"time": t, "file": out}),
            Op("observe", (out, "--precision", "17")),
        ]


class SessionN32(Workload):
    name = "session-n32"
    why = ("build, check, observe, evolve and densities on a five-mode n=32 state: "
           "start-up, synthesis, CLI formatting and the algebra suite carry the time")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = five_mode_config(self.rng, 32)

    def prepare(self):
        _write_json(self.path("session.json"), self.config)
        return []

    def iteration(self, i):
        t = self.evolve_time(i)
        state = self.path("session.dpst")
        evolved = self.path(f"session-{i}.dpst")
        slices = self.path(f"slices-{i}")
        return [
            Op("build", ("--config", self.path("session.json"), "--out", state)),
            Op("check", (state,)),
            Op("observe", (state, "--precision", "17")),
            Op("evolve", (state, repr(t), "--out", evolved), {"time": t, "file": evolved}),
            Op("densities", (evolved, "--out", slices), {"dir": slices, "n": self.config["grid"]["n"]}),
        ]


WORKLOADS = {w.name: w for w in (CheckN64, SessionN32, EvolveN64)}
