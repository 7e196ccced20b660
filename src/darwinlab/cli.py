"""Command-line front end.

Subcommands: ``build`` (config -> state file), ``check`` (state file ->
verification report), ``observe`` (state file -> observable CSV),
``densities`` (state file -> 2D density slices), ``evolve`` (state file ->
state file at a later time).

Exit codes: 0 success, 1 check failure or runtime error, 2 configuration or
usage error, 3 state-file integrity error.

When it may use two CPUs, a command splits its work with a forked worker
(:func:`_forked`): ``check`` runs its own-transform suite group
(``suites.OWN_TRANSFORM_SUITES``) there and its memo group
(``suites.MEMO_SUITES``) here, and ``observe`` runs the position spin
routes there (``observables.position_spin``) and every other route here.
On one CPU ``check`` makes one serial ``suites.run_suites`` call.  Otherwise, where no worker can run, its part
runs here first; where the worker hands back no complete value, its part
runs here last.  So the output, exit code and error are the same either way.

The BLAS/OpenMP thread pools get one thread unless a ``*_NUM_THREADS``
variable is set.  The cap is applied before the numerical modules load, so
this module imports nothing outside the standard library at module level.
Once numpy has loaded the pools are sized, so an in-process call of
:func:`main` leaves the environment as it found it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import numbers
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


def _apply_thread_cap() -> None:
    # One thread by default: the largest BLAS operand is a 6x6 matrix, which
    # no pool splits across threads, so a larger pool only costs start-up.
    if "numpy" in sys.modules:
        # the pools are sized when numpy loads; set now, the variables would
        # size nothing and only leak into the caller and its subprocesses
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


class ConfigError(Exception):
    """Configuration rejected; the message carries the offending path."""


_MODE_KEYS = {"kind", "k0", "sigma_k", "helicity", "polarization",
              "vortex_charge", "ring_radius", "amplitude"}
_TOP_KEYS = {"grid", "modes", "checks", "times", "tolerances"}


def _finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number")
    return value


def _check_time_range(state, where: str, *times: float) -> None:
    if not all(state.grid.time_in_range(t) for t in times):
        raise ConfigError(f"{where}: out of range: k_max |t| is not finite on this grid "
                          f"(k_max={state.grid.k_max:.6g}, state time {state.time:.6g})")


def _number(value, path) -> float:
    # a JSON string or boolean is not a number, though float() would take it
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be a finite number") from None
    return _finite(number, path)


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
    n = grid_cfg.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError("$.grid.n: must be an integer")
    try:
        grid = KGrid(n=n, dk=_number(grid_cfg.get("dk"), "$.grid.dk"))
    except ValueError as exc:
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
        for key in ("sigma_k", "ring_radius"):
            if key in kwargs:
                kwargs[key] = _number(kwargs[key], f"{path}.{key}")
        if isinstance(kwargs.get("helicity"), bool):
            raise ConfigError(f"{path}.helicity: must be 1, -1 or null")
        if "polarization" in kwargs and kwargs["polarization"] is not None:
            kwargs["polarization"] = _numbers(kwargs["polarization"], f"{path}.polarization")
            kwargs.setdefault("helicity", None)
        charge = kwargs.get("vortex_charge", 0)
        if isinstance(charge, bool) or not isinstance(charge, int):
            raise ConfigError(f"{path}.vortex_charge: must be an integer")
        try:
            modes.append(ModeSpec(**kwargs))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("$.checks: must be a list of suite names")
    times = list(_numbers(cfg["times"], "$.times")) if "times" in cfg else None
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("$.tolerances: must be an object")
    tolerances = {str(k): _number(v, f"$.tolerances.{k}") for k, v in tolerances.items()}
    return grid, modes, checks, times, tolerances


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


def _precision(value: int) -> int:
    # 17 significant digits round-trip every float64, so more would only print noise
    if not 0 <= value <= 17:
        raise ConfigError(f"--precision {value}: must be an integer from 0 to 17")
    return value


def cmd_build(args) -> int:
    from . import stateio
    from .state import ModeOverflow, synthesize

    cfg = _load_config(args.config)
    grid, modes, _, _, _ = parse_config(cfg)
    try:
        state = synthesize(modes, grid)
    except ModeOverflow as exc:
        raise ConfigError(f"$.modes[{exc.mode}].{exc.key}: {exc}") from exc
    except ValueError as exc:  # nothing left after the transverse projection
        raise ConfigError(f"$.modes: {exc}") from exc
    stateio.write_state(args.out, state, metadata={"modes": cfg["modes"]})
    print(f"wrote {args.out}: n={grid.n} dk={grid.dk} norm={state.norm:.12f} "
          f"rqc_residual={state.rqc_residual:.3e}")
    return EXIT_OK


def cmd_check(args) -> int:
    from . import stateio, suites

    state, _ = stateio.read_state(args.statefile)

    # config supplies defaults; explicit flags win
    cfg_checks, cfg_times, cfg_tols = [], None, {}
    if args.config:
        _, _, cfg_checks, cfg_times, cfg_tols = parse_config(_load_config(args.config))

    if args.suites:
        names = [n.strip() for n in args.suites.split(",") if n.strip()]
        if not names:
            raise ConfigError(f"--suites {args.suites!r}: names no suite; "
                              f"available: {', '.join(suites.SUITE_NAMES)}")
    elif cfg_checks:
        names = cfg_checks
    else:
        names = list(suites.SUITE_NAMES)
    if args.times is not None:
        given = [(f"--times {t}", _finite(t, f"--times {t}")) for t in args.times]
    else:
        given = [(f"$.times[{i}]", t) for i, t in enumerate(cfg_times or [])]
    for where, t in given:  # the conservation suite evolves by t - state.time
        _check_time_range(state, where, t, t - state.time)
    times = [t for _, t in given] or suites.DEFAULT_TIMES
    flag_tols = {key: _finite(value, f"--tolerance {key}={value}")
                 for key, value in args.tolerance or []}
    unknown = ([f"$.tolerances.{key}" for key in cfg_tols if key not in suites.DEFAULT_TOLERANCES]
               + [f"--tolerance {key}" for key in flag_tols if key not in suites.DEFAULT_TOLERANCES])
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown tolerance key; "
                          f"known: {', '.join(suites.DEFAULT_TOLERANCES)}")
    tolerances = {**cfg_tols, **flag_tols}
    try:
        suites.check_suite_names(names)
    except ValueError as exc:
        raise ConfigError(f"{'--suites' if args.suites else '$.checks'}: {exc}") from exc
    reports = _run_suite_groups(names, state, tolerances, times)

    payload = {
        "statefile": args.statefile,
        "grid": {"n": state.grid.n, "dk": state.grid.dk},
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


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


@contextlib.contextmanager
def _forked(work):
    """Run ``work()`` in a forked worker while the with-block runs here.

    Yields a function of no arguments that returns work()'s value.  When no
    worker can run (one CPU, no ``os.fork``, or the fork fails), work() is
    computed here at once, before the block, as one process would.
    Otherwise the function waits for the worker's pickle of the value, and
    whenever no complete pickle comes back (work raised there, the worker
    died or its pickle was cut off) it computes work() here, so work that
    raised there raises again here.  If the block raises, the worker is
    killed and the block's error wins.  In every case the worker is reaped,
    so its rusage counts toward this process.
    """
    import pickle
    import signal

    pid = None
    if hasattr(os, "fork") and _cpu_count() >= 2:
        sys.stdout.flush()
        sys.stderr.flush()  # so the worker inherits no unwritten output
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
        if pid == 0:
            # the worker ends in os._exit: no atexit handler runs, no inherited
            # buffer is flushed a second time, no traceback is printed
            try:
                os.close(read_fd)
                data = pickle.dumps(work())
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(0)
        os.close(write_fd)
    if pid is None:
        value = work()
        yield lambda: value
        return

    def result():
        nonlocal pid
        data = pipe.read()
        if pid:
            os.waitpid(pid, 0)
            pid = None
        try:
            return pickle.loads(data)
        except Exception:  # nothing, or a cut-off pickle
            pass
        return work()  # after the handler, so work that raises leaves one traceback

    with os.fdopen(read_fd, "rb") as pipe:
        try:
            yield result
        except BaseException:
            if pid:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            if pid:
                os.waitpid(pid, 0)


def _run_suite_groups(names, state, tolerances, times):
    """The reports of ``suites.run_suites(names, ...)``, from up to two processes.

    When the names hold suites of both ``suites.MEMO_SUITES`` and
    ``suites.OWN_TRANSFORM_SUITES`` and this process may use two CPUs, a
    forked worker (:func:`_forked`) runs the own-transform suites while this
    process runs the memo suites, each with one ``run_suites`` call, and the
    reports are merged back into the requested order; where no worker can
    run, or it hands back no reports, the own-transform suites run here, so
    a suite that raised there raises again here.  Every value is computed as
    the serial run computes it, so the reports are the same.  Otherwise
    (one group, or one CPU) the one serial call runs here.
    """
    from . import suites

    memo = [n for n in names if n in suites.MEMO_SUITES]
    own = [n for n in names if n in suites.OWN_TRANSFORM_SUITES]
    if memo and own:
        # with kmag: both groups read them, so a worker shares this copy; in
        # one process, made among the memo group's arrays, they would keep
        # its freed pages from going back to the system
        state.grid.khat
    if not (memo and own) or _cpu_count() < 2:
        return suites.run_suites(names, state, tolerances=tolerances, times=times)
    with _forked(lambda: suites.run_suites(own, state, tolerances=tolerances, times=times)) as result:
        memo_reports = iter(suites.run_suites(memo, state, tolerances=tolerances, times=times))
        own_reports = iter(result())
    return [next(memo_reports if n in suites.MEMO_SUITES else own_reports) for n in names]


def _observe_report(state):
    """What ``dpl observe`` prints: the seven spin routes of
    ``observables.spin_routes``, the momentum and position OAM, the three
    probabilities and the boundary ratio.

    A forked worker (:func:`_forked`) runs ``observables.position_spin``,
    the one pass over the position spin densities that gives the kernel and
    the two position spin routes and keeps no density, from the transform
    made before the fork.  Meanwhile this process runs the other routes
    that read the transform (the position OAM and the probabilities) and
    then releases it, so the momentum spin and OAM routes' temporaries never
    sit beside it; the worker's routes are collected last.  Where no worker
    can run, the pass runs first, beside the transform made for it.  Either
    way every value is the same.
    """
    from . import observables

    # made before the fork, so the worker inherits it and it is not made twice
    observables.psi_position(state)
    with _forked(functools.partial(observables.position_spin, state)) as position:
        l_pos = observables.oam_position(state)
        probabilities = observables.probability(state)
        observables.drop_position(state)
        l_mom = observables.oam_momentum(state)
        routes = {**observables.momentum_spin_routes(state), **position()[0]}
    return routes, l_mom, l_pos, probabilities, observables.oam_boundary_ratio(state)


def cmd_observe(args) -> int:
    from . import observables, stateio

    p = _precision(args.precision)
    state, _ = stateio.read_state(args.statefile)
    routes, l_mom, l_pos, probabilities, boundary_ratio = _observe_report(state)
    spin = {name: value for name, (value, _) in routes.items()}
    vectors = {**{f"spin_{name}": value for name, value in spin.items()},
               "oam_momentum": l_mom, "oam_position": l_pos,
               "total_angular_momentum": l_mom + spin["canonical"], "probability": probabilities}
    rows = [("name", "x", "y", "z")]
    rows += [(name,) + tuple(_fmt(v, p) for v in vec) for name, vec in vectors.items()]
    rows += [(f"discrepancy:{pair}", _fmt(gap, p), "", "")
             for pair, gap in observables.spin_discrepancies(spin).items()]
    prob_gap = max(abs(x - y) for x in probabilities for y in probabilities)
    rows.append(("discrepancy:probability", _fmt(prob_gap, p), "", ""))
    rows.append(("boundary_ratio", _fmt(boundary_ratio, p), "", ""))

    text = "\n".join(",".join(r) for r in rows) + "\n"
    if args.out:
        stateio.write_atomic(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_densities(args) -> int:
    import numpy as np

    from . import observables, stateio

    p = _precision(args.precision)
    state, _ = stateio.read_state(args.statefile)
    grid = state.grid
    axis = {"x": 0, "y": 1, "z": 2}[args.axis]
    offsets = grid.x1d
    idx = int(np.argmin(np.abs(offsets - args.offset)))
    if not abs(offsets[idx] - args.offset) <= grid.dx:  # also rejects a NaN offset
        print(f"error: plane {args.axis}={args.offset} outside the box "
              f"[{offsets.min():.6g}, {offsets.max():.6g}]", file=sys.stderr)
        return EXIT_CONFIG

    if state.norm == 0.0:
        print("warning: state has zero norm; slices will be identically zero",
              file=sys.stderr)

    comp = {"x": 0, "y": 1, "z": 2}[args.component]
    fields = {name if name.startswith("prob") else f"{name}_{args.component}": plane
              for name, plane in observables.density_planes(state, axis, idx, comp).items()}

    os.makedirs(args.out, exist_ok=True)
    coords = grid.x1d
    for name, sl in fields.items():
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

    t = _finite(args.t, f"t={args.t}")
    state, header = stateio.read_state(args.statefile)
    _check_time_range(state, f"t={args.t}", t, state.time + t)
    norm = state.norm
    evolved = dynamics.evolve(state, t)
    del state  # the evolved norm and the residuals read only the evolved state
    norm_drift = abs(evolved.norm - norm)
    # read before writing, so a state whose certificate overflows leaves no file
    certificate = (f"norm_drift={norm_drift:.3e} "
                   f"dirac_residual={dynamics.dirac_residual(evolved):.3e} "
                   f"maxwell_residual={dynamics.maxwell_curl_residual(evolved):.3e}")
    stateio.write_state(args.out, evolved, metadata=header.get("metadata", {}))
    print(f"wrote {args.out}: time={evolved.time:.6g} {certificate}")
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
    _apply_thread_cap()
    import numpy as np

    from .stateio import StateFileError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # no derived value is scanned for finiteness: one that overflows raises
        with np.errstate(over="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except FloatingPointError:
        source = getattr(args, "statefile", None) or args.config
        print(f"error: {source}: a value derived from the state leaves floating-point range",
              file=sys.stderr)
        return EXIT_INTEGRITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
