"""Command-line front end.

Subcommands: ``build`` (config -> state file), ``check`` (state file ->
verification report), ``observe`` (state file -> observable CSV),
``densities`` (state file -> 2D density slices), ``evolve`` (state file ->
state file at a later time).

Exit codes: 0 success, 1 check failure or runtime error, 2 configuration or
usage error, 3 state-file integrity error.

``DPL_THREADS`` (a positive integer, default 1) caps the BLAS/OpenMP thread
pools; a ``*_NUM_THREADS`` variable that is already set wins.  The cap is
applied before the numerical modules load, so this module imports nothing
outside the standard library at module level.  Once numpy has loaded the
pools are sized, so an in-process call of :func:`main` leaves the
environment as it found it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


def _apply_thread_cap() -> None:
    # One thread by default: the largest BLAS operand is a 6x6 matrix, which
    # no pool splits across threads, so a larger pool only costs start-up.
    raw = os.environ.get("DPL_THREADS") or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"DPL_THREADS={raw!r}: must be a positive integer")
    if "numpy" in sys.modules:
        # the pools are sized when numpy loads; set now, the variables would
        # size nothing and only leak into the caller and its subprocesses
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(int(raw)))


class ConfigError(Exception):
    """Configuration rejected; the message carries the offending path."""


_MODE_KEYS = {"kind", "k0", "sigma_k", "helicity", "polarization",
              "vortex_charge", "ring_radius", "amplitude"}
_TOP_KEYS = {"grid", "modes", "checks", "times", "tolerances", "output"}


def _number(value, path) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: must be a number") from None


def _numbers(value, path) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: must be a list of numbers")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(value))


def _parse_amplitude(value, path):
    if isinstance(value, (int, float)):
        return complex(_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(*_numbers(value, path))
    raise ConfigError(f"{path}: amplitude must be a number or [re, im]")


def parse_config(cfg: dict):
    """Validate a run config against the published schema; unknown keys are errors."""
    from .kgrid import KGrid
    from .state import ModeSpec

    if not isinstance(cfg, dict):
        raise ConfigError("$: config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"$: unknown key(s) {sorted(unknown)}")
    for key in ("grid", "modes"):
        if key not in cfg:
            raise ConfigError(f"$.{key}: required")

    grid_cfg = cfg["grid"]
    if not isinstance(grid_cfg, dict) or set(grid_cfg) - {"n", "dk"}:
        raise ConfigError("$.grid: must contain exactly n and dk")
    try:
        grid = KGrid(n=int(grid_cfg["n"]), dk=float(grid_cfg["dk"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"$.grid: {exc}") from exc

    if not isinstance(cfg["modes"], list) or not cfg["modes"]:
        raise ConfigError("$.modes: must be a non-empty list")
    modes = []
    for i, m in enumerate(cfg["modes"]):
        path = f"$.modes[{i}]"
        if not isinstance(m, dict):
            raise ConfigError(f"{path}: must be an object")
        unknown = set(m) - _MODE_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
        kwargs = dict(m)
        if "amplitude" in kwargs:
            kwargs["amplitude"] = _parse_amplitude(kwargs["amplitude"], f"{path}.amplitude")
        if "k0" in kwargs:
            kwargs["k0"] = _numbers(kwargs["k0"], f"{path}.k0")
        if "polarization" in kwargs and kwargs["polarization"] is not None:
            kwargs["polarization"] = _numbers(kwargs["polarization"], f"{path}.polarization")
            kwargs.setdefault("helicity", None)
        if not isinstance(kwargs.get("vortex_charge", 0), int):
            raise ConfigError(f"{path}.vortex_charge: must be an integer")
        try:
            modes.append(ModeSpec(**kwargs))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("$.checks: must be a list of suite names")
    times = _numbers(cfg.get("times", [0.0, 1.0, 10.0]), "$.times")
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("$.tolerances: must be an object")
    tolerances = {str(k): _number(v, f"$.tolerances.{k}") for k, v in tolerances.items()}
    output = cfg.get("output", ".")
    return grid, modes, checks, list(times), tolerances, str(output)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"$: config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def cmd_build(args) -> int:
    from . import stateio
    from .state import synthesize

    cfg = _load_config(args.config)
    grid, modes, _, _, _, _ = parse_config(cfg)
    try:
        state = synthesize(modes, grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    stateio.write_state(args.out, state, metadata={"modes": cfg["modes"]})
    print(f"wrote {args.out}: n={grid.n} dk={grid.dk} norm={state.norm:.12f} "
          f"rqc_residual={state.rqc_residual:.3e}")
    return EXIT_OK


def cmd_check(args) -> int:
    from . import stateio, suites

    state, header = stateio.read_state(args.statefile)

    # config supplies defaults; explicit flags win
    cfg_checks, cfg_times, cfg_tols = [], None, {}
    if args.config:
        _, _, cfg_checks, cfg_times, cfg_tols, _ = parse_config(_load_config(args.config))

    if args.suites:
        names = [n.strip() for n in args.suites.split(",") if n.strip()]
        if not names:
            raise ConfigError(f"--suites {args.suites!r}: names no suite; "
                              f"available: {', '.join(suites.SUITE_NAMES)}")
    elif cfg_checks:
        names = cfg_checks
    else:
        names = list(suites.SUITE_NAMES)
    times = args.times if args.times is not None else (cfg_times or [0.0, 1.0, 10.0])
    flag_tols = dict(args.tolerance or [])
    unknown = ([f"$.tolerances.{key}" for key in cfg_tols if key not in suites.DEFAULT_TOLERANCES]
               + [f"--tolerance {key}" for key in flag_tols if key not in suites.DEFAULT_TOLERANCES])
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown tolerance key; "
                          f"known: {', '.join(suites.DEFAULT_TOLERANCES)}")
    tolerances = {**cfg_tols, **flag_tols}
    try:
        reports = suites.run_suites(names, state, tolerances=tolerances, times=times)
    except suites.UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    payload = {
        "statefile": args.statefile,
        "grid": header["grid"],
        "seed": suites.DEFAULT_SEED,
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "checks": [
                    {
                        "name": c.name,
                        "value": None if c.value != c.value else c.value,
                        "tolerance": c.tolerance,
                        "passed": c.passed,
                        "info": c.info,
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        stateio.write_atomic(args.out, (text + "\n").encode("utf-8"))
    print(text)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def cmd_observe(args) -> int:
    from . import observables, stateio

    state, _ = stateio.read_state(args.statefile)
    rep = observables.observable_report(state)
    p = args.precision
    rows = [("name", "x", "y", "z")]
    for name, vec in rep.spin.items():
        rows.append((f"spin_{name}",) + tuple(_fmt(v, p) for v in vec))
    rows.append(("oam_momentum",) + tuple(_fmt(v, p) for v in rep.oam_momentum))
    rows.append(("oam_position",) + tuple(_fmt(v, p) for v in rep.oam_position))
    rows.append(("total_angular_momentum",) + tuple(_fmt(v, p) for v in rep.total_angular_momentum))
    rows.append(("probability", _fmt(rep.probability_psi, p),
                 _fmt(rep.probability_upper, p), _fmt(rep.probability_lower, p)))
    for pair, gap in rep.spin_discrepancies.items():
        rows.append((f"discrepancy:{pair}", _fmt(gap, p), "", ""))
    rows.append(("discrepancy:probability", _fmt(rep.max_probability_discrepancy, p), "", ""))
    rows.append(("boundary_ratio", _fmt(rep.boundary_ratio, p), "", ""))

    text = "\n".join(",".join(r) for r in rows) + "\n"
    if args.out:
        stateio.write_atomic(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_densities(args) -> int:
    import numpy as np

    from . import observables, stateio

    state, _ = stateio.read_state(args.statefile)
    grid = state.grid
    axis = {"x": 0, "y": 1, "z": 2}[args.axis]
    offsets = grid.x1d
    idx = int(np.argmin(np.abs(offsets - args.offset)))
    if abs(offsets[idx] - args.offset) > grid.dx:
        print(f"error: plane {args.axis}={args.offset} outside the box "
              f"[{offsets.min():.6g}, {offsets.max():.6g}]", file=sys.stderr)
        return EXIT_CONFIG

    if state.norm == 0.0:
        print("warning: state has zero norm; slices will be identically zero",
              file=sys.stderr)

    dc = observables.density_candidates(state)
    comp = {"x": 0, "y": 1, "z": 2}[args.component]
    fields = {
        "prob_psi": dc.prob_density_psi,
        "prob_upper": dc.prob_density_upper,
        "prob_lower": dc.prob_density_lower,
        f"spin_full_{args.component}": dc.spin_density_full[comp],
        f"spin_upper_{args.component}": dc.spin_density_upper[comp],
        f"spin_lower_{args.component}": dc.spin_density_lower[comp],
        f"spin_kernel_{args.component}": dc.spin_density_kernel[comp],
    }

    os.makedirs(args.out, exist_ok=True)
    in_plane = [a for a in range(3) if a != axis]
    coords = grid.x1d
    p = args.precision
    for name, data in fields.items():
        sl = np.take(data, idx, axis=axis)
        path = os.path.join(args.out, f"{name}_{args.axis}{idx}.csv")
        lines = ["x1,x2,value"]
        for i in range(grid.n):
            for j in range(grid.n):
                lines.append(f"{_fmt(coords[i], p)},{_fmt(coords[j], p)},{_fmt(sl[i, j], p)}")
        stateio.write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {len(fields)} slice files to {args.out} "
          f"(plane {args.axis}={offsets[idx]:.6g}, component {args.component})")
    return EXIT_OK


def cmd_evolve(args) -> int:
    from . import dynamics, stateio

    state, header = stateio.read_state(args.statefile)
    result = dynamics.evolve(state, args.t)
    stateio.write_state(args.out, result.state_t, metadata=header.get("metadata", {}))
    print(f"wrote {args.out}: time={result.state_t.time:.6g} "
          f"norm_drift={result.norm_drift:.3e} "
          f"dirac_residual={result.dirac_residual:.3e} "
          f"maxwell_residual={result.maxwell_residual.curl_residual:.3e}")
    return EXIT_OK


def _tolerance_pair(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected KEY=VALUE")
    key, value = text.split("=", 1)
    return key.strip(), float(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpl",
        description="Spectral laboratory for the six-component free-photon wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="synthesize a state from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="run verification suites on a state file")
    p.add_argument("statefile")
    p.add_argument("--suites", default="", help="comma-separated suite names (default: all)")
    p.add_argument("--config", default="", help="take suites/times/tolerances defaults from a config")
    p.add_argument("--out", default="", help="also write the JSON report here")
    p.add_argument("--tolerance", action="append", type=_tolerance_pair, metavar="KEY=VAL")
    p.add_argument("--times", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("observe", help="write observable values as CSV")
    p.add_argument("statefile")
    p.add_argument("--out", default="")
    p.add_argument("--precision", type=int, default=6)
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("densities", help="export 2D density slices as CSV")
    p.add_argument("statefile")
    p.add_argument("--out", required=True)
    p.add_argument("--axis", choices=("x", "y", "z"), default="z")
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--component", choices=("x", "y", "z"), default="z",
                   help="vector component exported for the spin densities")
    p.add_argument("--precision", type=int, default=6)
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("evolve", help="evolve a state file forward in time")
    p.add_argument("statefile")
    p.add_argument("t", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    from .stateio import StateFileError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
