"""`dpl observe` in two processes: the position spin routes in a forked
worker, every other route here.  Whatever the split does, the CSV is the one the
serial run writes, and no worker outlives the command."""

import errno
import json
import os
import pickle
import signal
import time

import numpy as np
import pytest

from darwinlab import cli, observables
from darwinlab.cli import main
from darwinlab.state import PhotonState
from make_golden import README_N32
from test_cli import derived_overflow_files  # noqa: F401  (a fixture)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    """The README n=32 state, as built and evolved to t = 7.25."""
    work = tmp_path_factory.mktemp("observe-split")
    config, built, evolved = work / "config.json", work / "built.dpst", work / "evolved.dpst"
    config.write_text(json.dumps(README_N32))
    assert main(["build", "--config", str(config), "--out", str(built)]) == 0
    assert main(["evolve", str(built), "7.25", "--out", str(evolved)]) == 0
    return {"built": built, "evolved": evolved}


def run_observe(monkeypatch, capsys, tmp_path, cpus, path):
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    out = tmp_path / f"observe-{cpus}.csv"
    capsys.readouterr()
    code = main(["observe", str(path), "--precision", "17", "--out", str(out)])
    return code, capsys.readouterr(), out.read_bytes() if out.exists() else None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("which", ["built", "evolved"])
def test_split_csv_is_the_serial_csv(states, monkeypatch, capsys, tmp_path, forks, which):
    split = run_observe(monkeypatch, capsys, tmp_path, 2, states[which])
    assert len(forks) == 1
    serial = run_observe(monkeypatch, capsys, tmp_path, 1, states[which])
    assert len(forks) == 1  # one CPU: no worker
    assert split[0] == 0 and split[1] == serial[1] and split[1].err == ""
    assert split[2] == serial[2] and split[2].startswith(b"name,x,y,z\n")
    assert_no_child_left()


def bits(report):
    """Every value of what `dpl observe` prints, as bytes."""
    routes, *rest = report
    return ({name: (value.tobytes(), residue) for name, (value, residue) in routes.items()},
            [np.asarray(value).tobytes() for value in rest])


def check_path(state):
    """The values of `cli._observe_report` as the check suites compute them,
    on a state of its own."""
    state = PhotonState(state.psi, state.time)
    return (observables.spin_routes(state), observables.oam_momentum(state),
            observables.oam_position(state), observables.probability(state),
            observables.oam_boundary_ratio(state))


@pytest.mark.parametrize("cpus", [1, 2])
def test_observe_keeps_no_kernel_density(monkeypatch, two_direction_state, cpus):
    state = PhotonState(two_direction_state.psi, two_direction_state.time)  # nothing memoized
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    report = cli._observe_report(state)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, dict)):
            for part in value.values() if isinstance(value, dict) else value:
                yield from arrays(part)

    kept = [a.size for a in arrays(vars(state)["_observables_memo"])]
    assert kept and max(kept) < state.grid.n**3  # no density, no transform
    assert bits(report) == bits(check_path(two_direction_state))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_observe_transforms_once_and_releases_before_the_momentum_routes(
        monkeypatch, two_direction_state, cpus):
    # the position routes run first, then the transform is released, so the
    # momentum routes never sit beside it; nothing transforms the payload again
    state = PhotonState(two_direction_state.psi, two_direction_state.time)  # nothing memoized
    transforms, memo_at_momentum, densities = [], [], []
    to_position, momentum_routes = observables.to_position, observables.momentum_spin_routes
    cross_density = observables._cross_density

    def counted_transform(field, **kwargs):
        transforms.append(field is state.psi)
        return to_position(field, **kwargs)

    def spied_momentum_routes(st):
        memo_at_momentum.append(set(vars(st).get("_observables_memo", {})))
        return momentum_routes(st)

    def counted_density(*args, **kwargs):
        densities.append(1)
        return cross_density(*args, **kwargs)

    monkeypatch.setattr(observables, "to_position", counted_transform)
    monkeypatch.setattr(observables, "momentum_spin_routes", spied_momentum_routes)
    monkeypatch.setattr(observables, "_cross_density", counted_density)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    report = cli._observe_report(state)
    # this process: the payload once and the position OAM's three derivative
    # transforms; on two CPUs the kernel route's six run in the worker, and
    # with them the two position-block densities
    assert sum(transforms) == 1
    assert len(transforms) == (4 if cpus == 2 else 10)
    assert memo_at_momentum and all("psi_position" not in memo for memo in memo_at_momentum)
    assert len(densities) == (2 if cpus == 2 else 4)  # the momentum and position blocks
    assert bits(report) == bits(check_path(two_direction_state))
    assert_no_child_left()


def count_kernel_routes_here(monkeypatch, in_worker=lambda: None):
    """Counts the passes of `observables.position_spin` run in the test
    process, which make the kernel route; in the worker the pass first
    calls `in_worker`."""
    parent, real, ran_here = os.getpid(), observables.position_spin, []

    def position_spin(state):
        if os.getpid() == parent:
            ran_here.append(1)
        else:
            in_worker()
        return real(state)

    monkeypatch.setattr(observables, "position_spin", position_spin)
    return ran_here


def no_process():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def test_failed_fork_gives_the_serial_csv(states, monkeypatch, capsys, tmp_path):
    ran_here = count_kernel_routes_here(monkeypatch)
    serial = run_observe(monkeypatch, capsys, tmp_path, 1, states["built"])
    monkeypatch.setattr(os, "fork", no_process)
    split = run_observe(monkeypatch, capsys, tmp_path, 2, states["built"])
    assert len(ran_here) == 2  # once per run: the fork failed, so the route ran here
    assert split == serial and split[1].err == ""


def test_failed_fork_transforms_the_payload_once(states, monkeypatch, capsys, tmp_path):
    # with no worker the kernel route runs before the block, beside the
    # position transform made for it, not after the block has released it:
    # the FFT calls of the one-CPU run
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    monkeypatch.setattr(os, "fork", no_process)
    code, captured, _ = run_observe(monkeypatch, capsys, tmp_path, 2, states["built"])
    assert (code, captured.err, len(calls)) == (0, "", 10)


def test_killed_worker_gives_the_serial_csv(states, monkeypatch, capsys, tmp_path, forks):
    ran_here = count_kernel_routes_here(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    split = run_observe(monkeypatch, capsys, tmp_path, 2, states["evolved"])
    assert (len(forks), len(ran_here)) == (1, 1)  # the worker died; its route ran here
    serial = run_observe(monkeypatch, capsys, tmp_path, 1, states["evolved"])
    assert split == serial and split[1].err == ""
    assert_no_child_left()


def test_cut_off_pickle_gives_the_serial_csv(states, monkeypatch, capsys, tmp_path, forks):
    ran_here = count_kernel_routes_here(monkeypatch)
    whole = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: whole(obj)[:-7])
    split = run_observe(monkeypatch, capsys, tmp_path, 2, states["built"])
    assert (len(forks), len(ran_here)) == (1, 1)  # the pickle was cut off; the route ran here
    serial = run_observe(monkeypatch, capsys, tmp_path, 1, states["built"])
    assert split == serial and split[1].err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dk", ["1e80", "1e50"])
def test_derived_value_out_of_range_exits_3_on_two_cpus(derived_overflow_files, monkeypatch,  # noqa: F811
                                                        capsys, tmp_path, forks, dk):
    # the position OAM route overflows here while the worker runs, and at
    # 1e80 the kernel route overflows in the worker too
    path = derived_overflow_files[dk]
    code, captured, written = run_observe(monkeypatch, capsys, tmp_path, 2, path)
    assert (code, len(forks), written) == (3, 1, None)
    assert captured.out == ""
    assert captured.err == f"error: {path}: a value derived from the state leaves floating-point range\n"
    assert_no_child_left()


@pytest.mark.parametrize("route, worker_sleeps", [
    # the worker is still busy when this process raises: it is killed, not waited for
    pytest.param("oam_position", 60, id="before_the_kernel_route_is_collected"),
    # read at the end of the report, after the worker's value: the worker is reaped
    pytest.param("oam_boundary_ratio", 0, id="after_the_kernel_route_is_collected"),
])
def test_raise_here_leaves_no_child(states, monkeypatch, tmp_path, forks, route, worker_sleeps):
    def boom(state):
        raise RuntimeError(f"{route} failed")

    count_kernel_routes_here(monkeypatch, lambda: time.sleep(worker_sleeps))
    monkeypatch.setattr(observables, route, boom)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"{route} failed"):
        main(["observe", str(states["built"]), "--out", str(tmp_path / "observe.csv")])
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_left()
    assert not (tmp_path / "observe.csv").exists()
