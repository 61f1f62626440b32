"""The one process pool of a sweep: one set of workers for every phase, a
dead worker that ends the sweep instead of hanging it, and Ctrl-C.

The patched shards below are module-level functions, so a worker can
unpickle them by name; the pool forks, so each worker sees the patch.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_fold import deadline

from boolminor import cli, verify

SRC = Path(__file__).resolve().parent.parent / "src"

GAP_SHARD = verify._gap_shard
REP_ORACLE_SHARD = verify._rep_oracle_shard
LABELED_SHARD = verify._labeled_shard
PID_DIR = None  # where the recording shards leave one file per process


def dies_on_the_first_job(job):
    if job[1] == 0:
        os._exit(1)
    return GAP_SHARD(job)


def recording_rep_oracle_shard(job):
    (PID_DIR / str(os.getpid())).touch()
    return REP_ORACLE_SHARD(job)


def recording_labeled_shard(job):
    (PID_DIR / str(os.getpid())).touch()
    return LABELED_SHARD(job)


def children():
    """The pids of this process's live or unreaped children."""
    tasks = Path("/proc/self/task")
    return [pid for task in tasks.iterdir() for pid in (task / "children").read_text().split()]


@pytest.fixture
def two_workers(monkeypatch):
    # resolve_workers clamps the count to the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def dying_gap_shard(monkeypatch, two_workers):
    monkeypatch.setattr(verify, "_gap_shard", dies_on_the_first_job)


def test_a_dead_worker_ends_the_sweep(dying_gap_shard):
    with deadline(10), pytest.raises(ChildProcessError, match="worker process died"):
        verify.gap_sweep(3, workers=2)
    assert children() == []


def test_a_dead_worker_ends_the_cli_with_one_line(dying_gap_shard, capsys):
    # repeated, so a traceback from the pool's own thread would show
    for _ in range(20):
        with deadline(10):
            code = cli.main(["verify", "gap", "--max-arity", "3", "--workers", "2"])
        out = capsys.readouterr()
        assert code != 0 and out.out == ""
        assert out.err.splitlines() == ["error: a worker process died before its shard finished"]
        assert children() == []


def test_a_sweep_starts_one_set_of_workers(monkeypatch, tmp_path, two_workers):
    monkeypatch.setattr(sys.modules[__name__], "PID_DIR", tmp_path)
    monkeypatch.setattr(verify, "_rep_oracle_shard", recording_rep_oracle_shard)
    monkeypatch.setattr(verify, "_labeled_shard", recording_labeled_shard)
    verify.graph_sweep(5, workers=2)
    pids = {p.name for p in tmp_path.iterdir()}
    assert pids and len(pids) <= 2 and str(os.getpid()) not in pids, pids


@pytest.mark.parametrize("delay", [0.5, 1.2, 2.0, 3.0, 4.0])
def test_ctrl_c_ends_a_two_worker_sweep(delay):
    """SIGINT to the process group, at delays spread over a run of about
    6 s, reaches the parent and both workers.  The first delay falls after
    the package's imports, which take about 0.2 s."""
    run = subprocess.Popen(
        [sys.executable, "-m", "boolminor.cli", "verify", "graphs", "--max-vertices", "7", "--workers", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        time.sleep(delay)
        assert run.poll() is None, "the sweep ended before the signal"
        sent = time.perf_counter()
        os.killpg(run.pid, signal.SIGINT)
        _, err = run.communicate(timeout=10)
        elapsed = time.perf_counter() - sent
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
    assert run.returncode == 130 and elapsed < 2, (run.returncode, elapsed)
    assert err.splitlines() == ["interrupted"]
    left = subprocess.run(["pgrep", "-s", str(run.pid)], capture_output=True, text=True)
    assert left.stdout == ""
