"""Crash injection: `cvpose train` killed at a file-system call, then resumed.

A child process runs the command with os.fsync and os.replace counted, and
SIGKILLs itself just before the Nth such call. The run is then resumed from
its newest epoch checkpoint, or started again when it has none, and its
directory must come out byte for byte as an uninterrupted run's. Every
child pins OpenBLAS to one thread, since resuming exactly holds on the same
thread count only.
"""

import os
import re
import subprocess
import sys

import cvpose
from cvpose.cli import main

# argv: kill_at (0: never), then the cvpose arguments. Each counted call is
# printed to stderr as "fsync" or "replace <target>" before it is made.
CHILD = """
import os, signal, sys
kill_at, calls = int(sys.argv[1]), 0

def counted(real):
    def call(*args):
        global calls
        calls += 1
        if calls == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        target = os.path.basename(args[1]) if len(args) > 1 else ""
        print(real.__name__, target, file=sys.stderr, flush=True)
        return real(*args)
    return call

os.fsync, os.replace = counted(os.fsync), counted(os.replace)
from cvpose.cli import main
sys.exit(main(sys.argv[2:]))
"""

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1",
           PYTHONPATH=os.path.dirname(os.path.dirname(cvpose.__file__)))


def _start(kill_at, args):
    return subprocess.Popen([sys.executable, "-c", CHILD, str(kill_at), *args],
                            env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _wait(proc):
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def _files(run):
    return {name: (run / name).read_bytes() for name in os.listdir(run)}


def test_train_killed_at_any_write_resumes_to_the_same_files(tmp_path):
    data = tmp_path / "data"
    # Seeds 20 and 120 give a best epoch that a later one does not beat.
    # At seeds 9 and 109 the monitored loss falls at each of the first 12
    # epochs with the optimal triangulation's coarse poses.
    for name, n, seed in ((data, 32, 20), (tmp_path / "val", 16, 120)):
        assert main(["synth", "--out", str(name), "--n-samples", str(n),
                     "--seed", str(seed), "--sigma-px", "5"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 6\nbatch_size = 8\nchannels = 8\n"
                   "checkpoint_every = 1\n")

    def train(run, resume=None):
        return ["train", "--data", str(data / "dataset.jsonl"),
                "--val-data", str(tmp_path / "val" / "dataset.jsonl"),
                "--rig", str(data / "rig_assumed.jsonl"),
                "--config", str(cfg), "--out-dir", str(run), "--quiet",
                *(["--resume", str(run / resume)] if resume else [])]

    code, _, err = _wait(_start(0, train(tmp_path / "full")))
    assert code == 0, err
    want = _files(tmp_path / "full")
    assert {"best.ckpt", "final.ckpt", "train_log.csv", "train.cfg",
            "epoch_0006.ckpt"} <= set(want)
    calls = err.splitlines()
    replaced = {line.split()[1]: n for n, line in enumerate(calls, start=1)
                if line.startswith("replace")}
    last_best = max(n for n, line in enumerate(calls, start=1)
                    if line == "replace best.ckpt")
    # The fifth epoch is the best: its best.ckpt comes before epoch_0005,
    # and the sixth epoch writes none.
    assert replaced["epoch_0004.ckpt"] < last_best < replaced["epoch_0005.ckpt"]
    kill_points = {
        # the first checkpoint's rename: no epoch checkpoint yet
        "before-epoch-1": replaced["epoch_0001.ckpt"],
        # best.ckpt renamed, its directory not yet synced
        "after-last-best": last_best + 1,
        # the temporary's fsync inside a checkpoint write after the best
        # epoch: the resumed run never beats the best it restores
        "past-the-best": replaced["epoch_0006.ckpt"] - 1,
        # final.ckpt written, train.cfg not
        "before-train-cfg": replaced["train.cfg"],
    }
    runs = {name: tmp_path / name for name in kill_points}
    killed = [_start(n, train(runs[name])) for name, n in kill_points.items()]
    codes = [_wait(proc)[0] for proc in killed]
    assert codes == [-9] * len(kill_points), codes

    resumed = []
    for name, run in runs.items():
        epochs = sorted(f for f in os.listdir(run)
                        if re.fullmatch(r"epoch_\d{4}\.ckpt", f))
        resumed.append(_start(0, train(run, epochs[-1] if epochs else None)))
    for name, (code, out, err) in zip(runs, [_wait(p) for p in resumed]):
        assert code == 0, (name, err)
        assert f"  best: {runs[name] / 'best.ckpt'}" in out.splitlines(), name
        assert _files(runs[name]) == want, name
