"""`dpl check` in two processes: the memo suites here, the own-transform suites
in a forked worker.  Whatever the split does, the report is the one the
serial run writes."""

import errno
import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

import darwinlab
from darwinlab import cli, suites
from darwinlab.cli import main

README_CONFIG = {
    "grid": {"n": 32, "dk": 1.0},
    "modes": [
        {"kind": "gaussian", "k0": [0, 0, 8], "sigma_k": 1.5, "helicity": 1},
        {"kind": "vortex", "k0": [0, 0, 7], "sigma_k": 1.5, "polarization": [1, 0, 0],
         "vortex_charge": 2, "ring_radius": 7.0, "amplitude": [0.5, 0.0]},
    ],
}

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


@pytest.fixture(scope="module")
def readme_state(tmp_path_factory):
    work = tmp_path_factory.mktemp("split")
    config, state = work / "config.json", work / "state.dpst"
    config.write_text(json.dumps(README_CONFIG))
    assert main(["build", "--config", str(config), "--out", str(state)]) == 0
    return state


def run_check(monkeypatch, capsys, tmp_path, cpus, args):
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    out = tmp_path / f"report-{cpus}.json"
    capsys.readouterr()
    code = main(["check", *args, "--out", str(out)])
    return code, capsys.readouterr(), out.read_bytes() if out.exists() else None


def test_groups_partition_the_suites():
    memo, own = set(suites.MEMO_SUITES), set(suites.OWN_TRANSFORM_SUITES)
    assert not memo & own
    assert memo | own == set(suites.SUITE_NAMES)


@pytest.mark.parametrize("names, forked", [
    pytest.param(None, 1, id="all_ten"),
    pytest.param("oam,probability,densities", 0, id="memo_group_only"),
    pytest.param("maxwell,algebra", 0, id="own_transform_group_only"),
    pytest.param("kernels,conservation,constraint,spin-equalities", 1, id="both_groups"),
    pytest.param(",".join(reversed(suites.SUITE_NAMES)), 1, id="all_ten_reversed"),
])
def test_split_report_is_the_serial_report(readme_state, monkeypatch, capsys, tmp_path, forks,
                                           names, forked):
    args = [str(readme_state)] + ([] if names is None else ["--suites", names])
    code, split, split_file = run_check(monkeypatch, capsys, tmp_path, 2, args)
    assert len(forks) == forked
    code_serial, serial, serial_file = run_check(monkeypatch, capsys, tmp_path, 1, args)
    assert len(forks) == forked
    assert code == code_serial == 0
    assert split.out == serial.out and split.err == serial.err == ""
    assert split_file == serial_file
    requested = list(suites.SUITE_NAMES) if names is None else names.split(",")
    assert [s["suite"] for s in json.loads(split.out)["suites"]] == requested


def test_single_cpu_never_forks(readme_state, monkeypatch, capsys, tmp_path):
    def no_fork():
        raise AssertionError("os.fork called on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    code, captured, _ = run_check(monkeypatch, capsys, tmp_path, 1, [str(readme_state)])
    assert code == 0 and json.loads(captured.out)["passed"] is True


def test_single_cpu_runs_the_memo_group_first(readme_state, monkeypatch, capsys, tmp_path):
    # one serial run_suites call, in its run order, with kmag and khat made
    # before the first suite: made among the memo group's arrays, they kept
    # its freed pages from going back (peak RSS of a full check at n=64
    # 134.5 MB against 127.3)
    ran = []
    for name in suites.SUITE_NAMES:
        attr = f"suite_{name.replace('-', '_')}"

        def recorded(state, times, _name=name, _real=getattr(suites, attr)):
            ran.append((_name, "khat" in vars(state.grid)))
            return _real(state, times)

        monkeypatch.setattr(suites, attr, recorded)
    code, _, _ = run_check(monkeypatch, capsys, tmp_path, 1, [str(readme_state)])
    assert code == 0
    assert ran == [(name, True) for name in suites.MEMO_SUITES + suites.OWN_TRANSFORM_SUITES]


def test_failed_fork_runs_the_suites_here(readme_state, monkeypatch, capsys, tmp_path):
    def no_process():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    args = [str(readme_state), "--suites", "probability,constraint"]
    code, captured, report = run_check(monkeypatch, capsys, tmp_path, 2, args)
    assert (code, captured.err) == (0, "")
    assert [s["suite"] for s in json.loads(report)["suites"]] == ["probability", "constraint"]


def count_kernels_here(monkeypatch, in_worker=lambda: None):
    """Counts the kernels suites run in the test process; in the worker the
    suite first calls `in_worker`."""
    parent, real, ran_here = os.getpid(), suites.suite_kernels, []

    def suite_kernels(*args, **kwargs):
        if os.getpid() == parent:
            ran_here.append(1)
        else:
            in_worker()
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, "suite_kernels", suite_kernels)
    return ran_here


def test_killed_worker_gives_the_serial_report(readme_state, monkeypatch, capsys, tmp_path, forks):
    ran_here = count_kernels_here(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    args = [str(readme_state), "--suites", "probability,kernels"]
    split = run_check(monkeypatch, capsys, tmp_path, 2, args)
    assert (len(forks), len(ran_here)) == (1, 1)  # the worker died; its suites ran here
    serial = run_check(monkeypatch, capsys, tmp_path, 1, args)
    assert split[0] == 0 and split[1].err == ""
    assert split == serial


def test_cut_off_pickle_gives_the_serial_report(readme_state, monkeypatch, capsys, tmp_path, forks):
    ran_here = count_kernels_here(monkeypatch)
    whole = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj: whole(obj)[:-7])
    args = [str(readme_state), "--suites", "kernels,probability,constraint"]
    split = run_check(monkeypatch, capsys, tmp_path, 2, args)
    assert (len(forks), len(ran_here)) == (1, 1)  # the pickle was cut off; its suites ran here
    serial = run_check(monkeypatch, capsys, tmp_path, 1, args)
    assert split[0] == 0 and split[1].err == ""
    assert split == serial


RAISING = """
import sys
from darwinlab import cli, suites

def boom(*args, **kwargs):
    raise RuntimeError("maxwell failed")

suites.suite_maxwell = boom
cli._cpu_count = lambda: int(sys.argv[1])
sys.exit(cli.main(["check", sys.argv[2], "--suites", "probability,maxwell,kernels"]))
"""


def test_suite_raising_in_the_worker_fails_as_in_the_serial_run(readme_state):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(darwinlab.__file__)))
    runs = [subprocess.run([sys.executable, "-c", RAISING, cpus, str(readme_state)],
                           capture_output=True, text=True, env=env, timeout=120)
            for cpus in ("2", "1")]
    split, serial = runs
    assert split.returncode == serial.returncode == 1
    assert split.stdout == serial.stdout == ""
    first_and_last = [(r.stderr.splitlines()[0], r.stderr.splitlines()[-1]) for r in runs]
    assert first_and_last[0] == first_and_last[1] == (
        "Traceback (most recent call last):", "RuntimeError: maxwell failed")
    assert [r.stderr.count("Traceback") for r in runs] == [1, 1]
