import json
import math
import os

import numpy as np
import pytest

from cvpose.cli import main
from cvpose.graph import default_topology
from cvpose.network import load_checkpoint
from cvpose.syndata import file_sha256


def run_synth(tmp_path, name="data", n=8, sigma=3.0, seed=0, extra=()):
    out = tmp_path / name
    code = main(["synth", "--out", str(out), "--n-samples", str(n),
                 "--seed", str(seed), "--sigma-px", str(sigma), *extra])
    assert code == 0
    return out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth"])  # missing --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_exits_1(tmp_path, capsys):
    code = main(["triangulate", "--data", str(tmp_path / "nope.jsonl"),
                 "--rig", str(tmp_path / "nope_rig.jsonl")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_input_exits_1(tmp_path, capsys):
    out = run_synth(tmp_path, n=2)
    code = main(["eval", "--data", str(tmp_path),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(tmp_path / "none.ckpt")])
    assert code == 1
    assert "error: Is a directory" in capsys.readouterr().err


def test_eval_garbage_checkpoint_exits_1(tmp_path, capsys):
    out = run_synth(tmp_path, n=2)
    ckpt = tmp_path / "garbage.ckpt"
    ckpt.write_bytes(bytes(range(256)) * 16)
    code = main(["eval", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(ckpt)])
    assert code == 1
    assert "error: line 1: expected header" in capsys.readouterr().err


def test_camera_missing_from_rig_exits_1(tmp_path, capsys):
    data = run_synth(tmp_path, "three", n=4,
                     extra=("--cameras", "3", "--pairs", "cam1:cam3"))
    two = run_synth(tmp_path, "two", n=4)
    rig = two / "rig_assumed.jsonl"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 4\nchannels = 8\n")
    assert main(["train", "--data", str(two / "dataset.jsonl"),
                 "--rig", str(rig), "--out-dir", str(tmp_path / "ok"),
                 "--config", str(cfg), "--quiet"]) == 0
    capsys.readouterr()
    for command in (["triangulate"],
                    ["train", "--out-dir", str(tmp_path / "run"),
                     "--config", str(cfg), "--quiet"],
                    ["eval", "--checkpoint", str(tmp_path / "ok" / "final.ckpt")]):
        code = main([*command, "--data", str(data / "dataset.jsonl"),
                     "--rig", str(rig)])
        assert code == 1, command
        err = capsys.readouterr().err
        assert "s000000" in err and "cam3" in err, command


def test_synth_writes_dataset_and_manifest(tmp_path):
    out = run_synth(tmp_path)
    for fname in ("dataset.jsonl", "rig_true.jsonl", "rig_assumed.jsonl",
                  "topology.jsonl", "manifest.json"):
        assert (out / fname).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_samples"] == 8
    assert set(manifest["sha256"]) == {"dataset", "rig_true", "rig_assumed",
                                       "topology"}


def test_synth_same_seed_same_bytes(tmp_path):
    a = run_synth(tmp_path, "a", seed=5)
    b = run_synth(tmp_path, "b", seed=5)
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    c = run_synth(tmp_path, "c", seed=6)
    assert (a / "dataset.jsonl").read_bytes() != (c / "dataset.jsonl").read_bytes()


def test_bad_pair_spec_exits_1(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--n-samples", "2",
                 "--pairs", "cam1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_pair_with_unknown_camera_exits_1(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--n-samples", "2",
                 "--pairs", "cam1:cam9"])
    assert code == 1
    assert ("error: pair (cam1, cam9) names an unknown camera"
            in capsys.readouterr().err)


def test_pair_naming_one_camera_twice_exits_1(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["synth", "--out", str(out), "--n-samples", "3",
                 "--pairs", "cam1:cam1"])
    assert code == 1
    assert ("error: pair (cam1, cam1) names one camera twice"
            in capsys.readouterr().err)
    assert not out.exists()


def test_triangulate_reports_and_writes(tmp_path, capsys):
    out = run_synth(tmp_path)
    coarse = tmp_path / "coarse.jsonl"
    code = main(["triangulate", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out", str(coarse)])
    assert code == 0
    text = capsys.readouterr().out
    assert "triangulated 8 of 8" in text
    assert "MPJPE" in text
    lines = coarse.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "coarse-v1"
    assert len(lines) == 9
    row = json.loads(lines[1])
    assert set(row["joints_3d"]) == set(row["views"])


def test_train_eval_render_pipeline(tmp_path, capsys):
    out = run_synth(tmp_path, n=12)
    run_dir = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 2\nbatch_size = 8\nchannels = 8\n"
                   "checkpoint_every = 1\n")
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(run_dir), "--config", str(cfg), "--quiet"])
    assert code == 0
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "best.ckpt").exists()
    capsys.readouterr()

    report = tmp_path / "report.json"
    code = main(["eval", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--report", str(report)])
    assert code == 0
    body = json.loads(report.read_text())
    assert body["n_samples"] == 12
    assert body["mpjpe_refined_mm"] > 0
    assert "MPJPE  triangulated" in capsys.readouterr().out

    fig = tmp_path / "fig.svg"
    code = main(["render", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--out", str(fig)])
    assert code == 0
    assert fig.read_text().startswith("<svg")


def test_eval_prints_each_camera_pair_when_there_are_several(tmp_path,
                                                              capsys):
    out = run_synth(tmp_path, n=8, extra=("--cameras", "3", "--pairs",
                                          "cam1:cam2,cam1:cam3"))
    data = ["--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl")]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 8\nchannels = 8\n")
    assert main(["train", *data, "--out-dir", str(tmp_path / "run"),
                 "--config", str(cfg), "--quiet"]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["eval", *data, "--checkpoint",
                 str(tmp_path / "run" / "final.ckpt"),
                 "--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    per_pair = json.loads(report.read_text())["per_pair_mm"]
    assert list(per_pair) == ["cam1+cam2", "cam1+cam3"]
    assert lines[5:7] == [
        f"  {pair}: n {m['n']}  MPJPE tri/refined {m['mpjpe_tri_mm']:.4f}/"
        f"{m['mpjpe_refined_mm']:.4f} mm  P-MPJPE tri/refined "
        f"{m['pmpjpe_tri_mm']:.4f}/{m['pmpjpe_refined_mm']:.4f} mm"
        for pair, m in per_pair.items()]
    assert lines[7] == f"report written to {report}"
    # One pair prints the five summary lines only, as before.
    one = run_synth(tmp_path, "one", n=4)
    capsys.readouterr()
    assert main(["eval", "--data", str(one / "dataset.jsonl"),
                 "--rig", str(one / "rig_assumed.jsonl"), "--checkpoint",
                 str(tmp_path / "run" / "final.ckpt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[0].startswith("samples evaluated: 4")


def test_train_resume_from_checkpoint(tmp_path):
    out = run_synth(tmp_path, n=8)
    first = tmp_path / "first"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 8\nchannels = 8\n"
                   "checkpoint_every = 1\n")
    assert main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(first), "--config", str(cfg),
                 "--quiet"]) == 0
    second = tmp_path / "second"
    cfg.write_text("epochs = 2\nbatch_size = 8\nchannels = 8\n"
                   "checkpoint_every = 1\n")
    assert main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(second), "--config", str(cfg),
                 "--resume", str(first / "final.ckpt"), "--quiet"]) == 0
    assert (second / "final.ckpt").exists()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: a resume without --config trains "
                          "on TrainConfig() defaults, not the run's settings")
def test_resume_without_config_trains_with_the_runs_settings(tmp_path):
    out = run_synth(tmp_path, n=16, sigma=3.0, seed=1)
    data = ["--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl")]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 3\nbatch_size = 8\nchannels = 8\nseed = 4\n"
                   "checkpoint_every = 1\n")
    whole, resumed = tmp_path / "whole", tmp_path / "resumed"
    assert main(["train", *data, "--out-dir", str(whole), "--config",
                 str(cfg), "--quiet"]) == 0
    assert main(["train", *data, "--out-dir", str(resumed), "--resume",
                 str(whole / "epoch_0001.ckpt"), "--epochs", "3",
                 "--quiet"]) == 0
    topo = default_topology()
    expected = load_checkpoint(whole / "final.ckpt", topo).weights
    got = load_checkpoint(resumed / "final.ckpt", topo).weights
    for name, arr in expected.items():
        assert np.array_equal(got[name], arr), name


@pytest.mark.parametrize("extra, code, message", [
    ("\n", 0, ""),
    ("  \n", 0, ""),
    ("x,1.0\n", 1, "error: line 5: a log row must start with its epoch, a "
                   "non-negative integer, got 'x'\n"),
    ("-1,1.0\n", 1, "error: line 5: a log row must start with its epoch, a "
                    "non-negative integer, got '-1'\n"),
], ids=["blank", "spaces", "no-epoch", "negative-epoch"])
def test_train_resume_reads_the_log_line_by_line(tmp_path, capsys, extra,
                                                 code, message):
    # A resume keeps the log rows of the epochs before its checkpoint. A
    # blank line in the old log once crashed it with a ValueError.
    out = run_synth(tmp_path, n=8)
    run = tmp_path / "run"
    args = ["train", "--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl"), "--out-dir", str(run),
            "--epochs", "3", "--batch-size", "8", "--quiet"]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("channels = 8\ncheckpoint_every = 1\n")
    assert main([*args, "--config", str(cfg)]) == 0
    log = run / "train_log.csv"
    finished = log.read_bytes()
    with open(log, "a") as fh:
        fh.write(extra)
    capsys.readouterr()
    assert main([*args, "--resume", str(run / "epoch_0001.ckpt")]) == code
    assert capsys.readouterr().err == message
    assert log.read_bytes() == (finished if code == 0
                                else finished + extra.encode())


def _synth_with_sample_id(tmp_path, sample_id):
    """A synthesized dataset directory whose first sample is `sample_id`."""
    import dataclasses
    from cvpose.syndata import load_dataset, save_dataset
    out = run_synth(tmp_path, n=2)
    samples = load_dataset(out / "dataset.jsonl")
    samples[0] = dataclasses.replace(samples[0], sample_id=sample_id)
    save_dataset(out / "dataset.jsonl", samples)
    return out


def test_render_escapes_ids_in_the_svg(tmp_path):
    import xml.etree.ElementTree as ET
    out = _synth_with_sample_id(tmp_path, "a<b&c")
    fig = tmp_path / "fig.svg"
    assert main(["render", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out", str(fig)]) == 0
    texts = [t.text for t in ET.parse(fig).iter()
             if t.tag.endswith("text")]
    assert "sample a<b&c" in texts


def test_render_writes_utf8_in_the_c_locale(tmp_path):
    # Outputs are UTF-8 whatever the locale; under the C locale's ASCII
    # default the write once failed with a UnicodeEncodeError.
    import subprocess
    import sys
    import cvpose
    out = _synth_with_sample_id(tmp_path, "sé")
    fig = tmp_path / "x.svg"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(cvpose.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cvpose.cli", "render",
         "--data", str(out / "dataset.jsonl"),
         "--rig", str(out / "rig_assumed.jsonl"), "--out", str(fig)],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert "sample sé" in fig.read_bytes().decode("utf-8")


def test_resumed_train_writes_the_trained_networks_config(tmp_path):
    # train.cfg must describe the network in final.ckpt: a resume takes
    # channels and init_seed from the checkpoint, whatever --config says.
    from cvpose.graph import default_topology
    from cvpose.network import load_checkpoint
    from cvpose.training import TrainConfig, load_train_config
    out = run_synth(tmp_path, n=8)
    first = tmp_path / "first"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 8\nchannels = 8\n"
                   "init_seed = 3\n")
    data = ["--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl")]
    assert main(["train", *data, "--out-dir", str(first),
                 "--config", str(cfg), "--quiet"]) == 0
    second = tmp_path / "second"
    assert main(["train", *data, "--out-dir", str(second), "--epochs", "2",
                 "--batch-size", "8", "--resume", str(first / "final.ckpt"),
                 "--quiet"]) == 0
    written = load_train_config(second / "train.cfg")
    net = load_checkpoint(second / "final.ckpt", default_topology()).config
    assert (net.channels, net.init_seed) == (8, 3)
    assert (written.channels, written.init_seed) == (8, 3)
    # The other settings still come from the flags and the defaults.
    assert (written.epochs, written.batch_size) == (2, 8)
    assert written.tri_mode == TrainConfig().tri_mode


def test_train_resume_without_training_state_exits_1(tmp_path, capsys):
    from cvpose.graph import default_topology
    from cvpose.network import CVUGCN, NetworkConfig, save_checkpoint
    out = run_synth(tmp_path, n=4)
    net = NetworkConfig(channels=8)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, default_topology(), net,
                    CVUGCN(default_topology(), net).weights, opt_state={},
                    train_state={})
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                 "--resume", str(ckpt), "--quiet"])
    assert code == 1
    assert "error: optimizer state lacks 'm'" in capsys.readouterr().err
    assert not (tmp_path / "run" / "train_log.csv").exists()


@pytest.mark.parametrize("train_state, message", [
    ("loss_history", "must be a JSON object"),
    ([[1.0]], "must be a JSON object, got [[1.0]]"),
    ({"loss_history": 5}, "'loss_history' must be a list of numbers"),
    ({"loss_history": None}, "'loss_history' must be a list of numbers"),
    ({"loss_history": ["1.0"]}, "'loss_history' must be a"),
    ({"loss_history": [True]}, "'loss_history' must be a"),
    # An int past float64's range, which float() cannot take.
    ({"loss_history": [10 ** 400]}, "'loss_history' must be a"),
    # fit never writes NaN or an infinity, and the best loss a resumed run
    # starts from is the history's least.
    ({"loss_history": [1.0, math.nan]},
     "'loss_history' must be a list of numbers"),
    ({"loss_history": [-math.inf]}, "'loss_history' must be a list of numbers"),
    # ckpt-v3 kept the epoch count and the best loss beside the history;
    # a v4 train object that still holds either is refused by name.
    ({"next_epoch": 1, "loss_history": [1.0]},
     "has unknown key 'next_epoch'"),
    ({"best_val": 1.0, "loss_history": [1.0]}, "has unknown key 'best_val'"),
    ({"loss_history": [1.0], "bestval": 0.5}, "has unknown key 'bestval'"),
])
def test_train_resume_with_malformed_training_state_exits_1(
        tmp_path, capsys, train_state, message):
    from cvpose.graph import default_topology
    from cvpose.network import CVUGCN, NetworkConfig, save_checkpoint
    from cvpose.training import AmsGrad
    out = run_synth(tmp_path, n=4)
    net = NetworkConfig(channels=8)
    weights = CVUGCN(default_topology(), net).weights
    opt = AmsGrad({k: v.shape for k, v in weights.items()})
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, default_topology(), net, weights, opt.state(),
                    train_state)
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(tmp_path / "run"), "--epochs", "2",
                 "--resume", str(ckpt), "--quiet"])
    assert code == 1
    assert f"error: checkpoint training state {message}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "run" / "train_log.csv").exists()


def test_train_that_scores_nothing_exits_1(tmp_path, capsys, monkeypatch):
    from cvpose import training
    from cvpose.errors import NonPositiveDepth

    def behind(*args, **kwargs):
        raise NonPositiveDepth("joint 0 behind the camera", joint=0)

    monkeypatch.setattr(training, "_batch_loss", behind)
    out = run_synth(tmp_path, n=4)
    run_dir = tmp_path / "run"
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(run_dir), "--epochs", "2",
                 "--batch-size", "4", "--quiet"])
    assert code == 1
    assert ("error: epoch 0: no sample scored; 4 dropped behind a camera"
            in capsys.readouterr().err)
    assert not (run_dir / "final.ckpt").exists()


def test_train_rejects_out_of_range_settings(tmp_path, capsys):
    out = run_synth(tmp_path, n=4)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 0\n")
    args = ["train", "--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl"),
            "--out-dir", str(tmp_path / "run"), "--quiet"]
    assert main(args + ["--config", str(cfg)]) == 1
    assert ("error: line 2: batch_size must be at least 1, got 0"
            in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--batch-size", "0"])
    assert exc.value.code == 2
    assert "batch_size must be at least 1" in capsys.readouterr().err


def test_train_rejects_a_config_that_sets_a_key_twice(tmp_path, capsys):
    out = run_synth(tmp_path, n=4)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 5\nbatch_size = 4\nepochs = 7\n")
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(tmp_path / "run"), "--config", str(cfg),
                 "--quiet"])
    assert code == 1
    assert ("error: line 3: epochs repeats line 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "run" / "final.ckpt").exists()


def test_train_config_naming_a_retired_setting_exits_1(tmp_path, capsys):
    # The config is read first, so the data paths need not exist.
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbeta1 = 0.9\n")
    code = main(["train", "--data", str(tmp_path / "d.jsonl"),
                 "--rig", str(tmp_path / "r.jsonl"),
                 "--out-dir", str(tmp_path / "run"), "--config", str(cfg),
                 "--quiet"])
    assert code == 1
    assert ("error: line 2: unknown key 'beta1'"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_train_rejects_negative_epochs(tmp_path, capsys):
    # "finished -3 epochs" after training none; a config file's value is
    # checked in load_train_config, the flag's here.
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(tmp_path / "d.jsonl"),
              "--rig", str(tmp_path / "r.jsonl"),
              "--out-dir", str(tmp_path / "run"), "--epochs", "-3"])
    assert exc.value.code == 2
    assert ("argument --epochs: epochs must not be negative, got -3"
            in capsys.readouterr().err)


def test_eval_without_gt_exits_1(tmp_path, capsys):
    out = run_synth(tmp_path, n=4, extra=("--no-gt",))
    run_dir = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 4\nchannels = 8\n")
    assert main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(run_dir), "--config", str(cfg),
                 "--quiet"]) == 0
    code = main(["eval", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(run_dir / "final.ckpt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_noise_command_table(tmp_path, capsys):
    out = run_synth(tmp_path, n=6)
    run_dir = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 4\nchannels = 8\n")
    assert main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(run_dir), "--config", str(cfg),
                 "--quiet"]) == 0
    table = tmp_path / "noise.json"
    code = main(["noise", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(run_dir / "final.ckpt"),
                 "--sigmas", "5,10", "--out", str(table)])
    assert code == 0
    rows = json.loads(table.read_text())
    assert [r["sigma_mm"] for r in rows] == [5.0, 10.0]
    assert "sigma_mm" in capsys.readouterr().out


@pytest.mark.parametrize("sigmas, message", [
    ("5,abc", "invalid sigmas value: '5,abc'"),
    ("nan", "sigmas must be finite and at least 0, got nan"),
    ("5,inf", "sigmas must be finite and at least 0, got inf"),
    ("-1", "sigmas must be finite and at least 0, got -1.0"),
])
def test_noise_rejects_bad_sigmas_as_usage_error(tmp_path, capsys, sigmas,
                                                 message):
    # Parsed before any file is read, so the paths need not exist.
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--data", str(tmp_path / "d.jsonl"),
              "--rig", str(tmp_path / "r.jsonl"),
              "--checkpoint", str(tmp_path / "c.ckpt"), "--sigmas", sigmas])
    assert exc.value.code == 2
    assert f"argument --sigmas: {message}" in capsys.readouterr().err


def test_ablate_command_writes_rows(tmp_path, capsys):
    train = run_synth(tmp_path, "train", n=8)
    test = run_synth(tmp_path, "test", n=6, seed=1)
    table = tmp_path / "ablate.json"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 8\nchannels = 8\n")
    code = main(["ablate", "--train-data", str(train / "dataset.jsonl"),
                 "--test-data", str(test / "dataset.jsonl"),
                 "--rig", str(train / "rig_assumed.jsonl"),
                 "--config", str(cfg), "--variants", "full,no_refine",
                 "--out", str(table), "--quiet"])
    assert code == 0
    rows = json.loads(table.read_text())
    assert [r["variant"] for r in rows] == ["full", "no_refine"]
    assert "variant" in capsys.readouterr().out


def test_synth_with_one_camera_exits_1(tmp_path, capsys):
    # One camera makes no pair to put the samples in.
    code = main(["synth", "--out", str(tmp_path / "d"), "--n-samples", "4",
                 "--cameras", "1"])
    assert code == 1
    assert "error: no camera pairs" in capsys.readouterr().err


def test_ablate_unknown_variant_exits_1(tmp_path, capsys):
    data = run_synth(tmp_path, n=4)
    code = main(["ablate", "--train-data", str(data / "dataset.jsonl"),
                 "--test-data", str(data / "dataset.jsonl"),
                 "--rig", str(data / "rig_assumed.jsonl"), "--epochs", "1",
                 "--variants", "full,fc", "--quiet"])
    assert code == 1
    assert ("error: unknown variant 'fc'; choose from full, no_refine, "
            "no_spatial, no_crossview" in capsys.readouterr().err)


@pytest.mark.parametrize("variants, test_gt, message", [
    ("full,full", (), "error: variant 'full' is listed twice"),
    ("full", ("--no-gt",), "carries no ground truth"),
])
def test_ablate_refuses_bad_input_before_training(tmp_path, capsys, variants,
                                                  test_gt, message):
    # Once ablate trained the listed variants first: twice for a repeated
    # one, and up to a test set without ground truth it then refused.
    train = run_synth(tmp_path, "train", n=4)
    test = run_synth(tmp_path, "test", n=4, seed=1, extra=test_gt)
    capsys.readouterr()
    code = main(["ablate", "--train-data", str(train / "dataset.jsonl"),
                 "--test-data", str(test / "dataset.jsonl"),
                 "--rig", str(train / "rig_assumed.jsonl"), "--epochs", "2",
                 "--variants", variants])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "epoch" not in captured.out


@pytest.mark.parametrize("setting, message", [
    ("channels = 0", "channels must be at least 1, got 0"),
    ("tri_mode = triple",
     "tri_mode must be one of dual, single, got 'triple'"),
])
def test_train_rejects_settings_that_fail_mid_run(tmp_path, capsys, setting,
                                                  message):
    out = run_synth(tmp_path, n=8)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"epochs = 1\nbatch_size = 8\n{setting}\n")
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(tmp_path / "run"), "--config", str(cfg),
                 "--quiet"])
    assert code == 1
    assert f"error: line 3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "final.ckpt").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("synth", "--seed", "-1", "seed must not be negative, got -1"),
    ("noise", "--seed", "-1", "seed must not be negative, got -1"),
    ("train", "--seed", "-1", "seed must not be negative, got -1"),
    ("synth", "--n-samples", "-3", "n_samples must not be negative, got -3"),
    ("synth", "--sigma-px", "nan",
     "sigma_px must be finite and at least 0, got nan"),
    ("synth", "--perturb-rot-deg", "inf",
     "perturb_rot_deg must be finite and at least 0, got inf"),
    ("synth", "--perturb-trans-mm", "-1",
     "perturb_trans_mm must be finite and at least 0, got -1.0"),
    ("synth", "--separation-deg", "nan",
     "separation_deg must be finite, got nan"),
    ("synth", "--separation-deg", "inf",
     "separation_deg must be finite, got inf"),
])
def test_negative_or_non_finite_flags_are_usage_errors(tmp_path, capsys,
                                                       command, flag, value,
                                                       message):
    # Parsed before any file is read or written, so the paths need not exist.
    paths = {
        "synth": ["--out", str(tmp_path / "out")],
        "noise": ["--data", str(tmp_path / "d.jsonl"),
                  "--rig", str(tmp_path / "r.jsonl"),
                  "--checkpoint", str(tmp_path / "c.ckpt")],
        "train": ["--data", str(tmp_path / "d.jsonl"),
                  "--rig", str(tmp_path / "r.jsonl"),
                  "--out-dir", str(tmp_path / "run")],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *paths[command], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1_0", "+5", "\u0661\u0662"])
@pytest.mark.parametrize("command, flag, key", [
    ("synth", "--n-samples", "n_samples"), ("synth", "--seed", "seed"),
    ("synth", "--cameras", "cameras"), ("noise", "--seed", "seed"),
    ("train", "--seed", "seed"), ("train", "--epochs", "epochs"),
    ("train", "--batch-size", "batch_size"), ("ablate", "--epochs", "epochs"),
    ("render", "--index", "index")])
def test_int_flag_unlike_a_train_cfg_int_is_a_usage_error(
        tmp_path, capsys, command, flag, key, value):
    # int() read `1_0` as 10, `+5` as 5 and Arabic-Indic digits as 12,
    # which a train.cfg refuses (training.VALUE_FORMS).
    paths = {
        "synth": ["--out", str(tmp_path / "out"), "--n-samples=4"],
        "noise": ["--data", str(tmp_path / "d.jsonl"),
                  "--rig", str(tmp_path / "r.jsonl"),
                  "--checkpoint", str(tmp_path / "c.ckpt")],
        "train": ["--data", str(tmp_path / "d.jsonl"),
                  "--rig", str(tmp_path / "r.jsonl"),
                  "--out-dir", str(tmp_path / "out")],
        "ablate": ["--train-data", str(tmp_path / "d.jsonl"),
                   "--test-data", str(tmp_path / "d.jsonl"),
                   "--rig", str(tmp_path / "r.jsonl")],
        "render": ["--data", str(tmp_path / "d.jsonl"),
                   "--rig", str(tmp_path / "r.jsonl"),
                   "--out", str(tmp_path / "out")],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *paths[command], flag, value])
    assert exc.value.code == 2
    assert (f"argument {flag}: invalid {key} value: {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_int_flags_read_the_forms_a_train_cfg_holds():
    from cvpose.cli import build_parser
    args = build_parser().parse_args(
        ["synth", "--out", "o", "--n-samples", "007", "--seed=-0",
         "--cameras", "3"])
    assert (args.n_samples, args.seed, args.cameras) == (7, 0, 3)
    # --cameras and --index keep their ranges: default_rig and the dataset
    # refuse what is out of them, with exit 1.
    args = build_parser().parse_args(
        ["render", "--data", "d", "--rig", "r", "--out", "o", "--index=-1"])
    assert args.index == -1


def test_eval_checkpoint_naming_a_retired_setting_off_its_value_exits_1(
        tmp_path, capsys):
    from cvpose.graph import default_topology
    from cvpose.network import CVUGCN, NetworkConfig, save_checkpoint
    out = run_synth(tmp_path, n=4)
    net = NetworkConfig(channels=8)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, default_topology(), net,
                    CVUGCN(default_topology(), net).weights, opt_state={},
                    train_state={})
    ckpt.write_bytes(ckpt.read_bytes().replace(
        b'config {"channels": 8,',
        b'config {"channels": 8, "mgcn_layers_per_stage": -1,', 1))
    code = main(["eval", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(ckpt)])
    assert code == 1
    assert ("error: line 3: unknown config key 'mgcn_layers_per_stage'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("config, message", [
    (b'config {"channels": 8, "init_seed": 0, "sgcn_layer": 5}',
     "unknown config key 'sgcn_layer'"),
    (b'config {"channels": 8.9, "init_seed": true}',
     "config channels must be an integer, got 8.9"),
    (b'config {"channels": 8, "init_seed": true}',
     "config init_seed must be an integer, got True"),
    (b'config {"channels": 8, "init_seed": 0, "sgcn_layers": 2}',
     "unknown config key 'sgcn_layers'"),
    (b'config {"channels": 8, "init_seed": -7}',
     "init_seed must not be negative, got -7"),
    (b'config {"channels": 8}', "config lacks 'init_seed'"),
])
def test_eval_checkpoint_with_a_bad_config_line_exits_1(tmp_path, capsys,
                                                        config, message):
    from cvpose.graph import default_topology
    from cvpose.network import CVUGCN, NetworkConfig, save_checkpoint
    out = run_synth(tmp_path, n=4)
    net = NetworkConfig(channels=8)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, default_topology(), net,
                    CVUGCN(default_topology(), net).weights, opt_state={},
                    train_state={})
    good = b'config {"channels": 8, "init_seed": 0}'
    assert good in ckpt.read_bytes()
    ckpt.write_bytes(ckpt.read_bytes().replace(good, config, 1))
    code = main(["eval", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--checkpoint", str(ckpt)])
    assert code == 1
    assert f"error: line 3: {message}" in capsys.readouterr().err


def test_rig_with_a_fractional_image_size_exits_1(tmp_path, capsys):
    out = run_synth(tmp_path, n=2)
    rig = out / "rig_assumed.jsonl"
    lines = rig.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["width"] = rec["width"] + 0.9
    lines[1] = json.dumps(rec)
    rig.write_text("\n".join(lines) + "\n")
    code = main(["triangulate", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(rig)])
    assert code == 1
    assert "error: line 2: width must be a JSON integer" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--data", "--rig"])
def test_non_utf8_input_file_exits_1_naming_the_line(tmp_path, capsys, flag):
    out = run_synth(tmp_path, n=2)
    files = {"--data": out / "dataset.jsonl",
             "--rig": out / "rig_assumed.jsonl"}
    header, rest = files[flag].read_bytes().split(b"\n", 1)
    files[flag].write_bytes(header + b"\n\xff" + rest)
    code = main(["triangulate", *(str(a) for kv in files.items() for a in kv)])
    assert code == 1
    assert "error: line 2: not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_exits_1_naming_the_line(tmp_path, capsys):
    out = run_synth(tmp_path, n=2)
    cfg = tmp_path / "train.cfg"
    cfg.write_bytes(b"epochs = 1\n# caf\xe9 (Latin-1)\nchannels = 8\n")
    code = main(["train", "--data", str(out / "dataset.jsonl"),
                 "--rig", str(out / "rig_assumed.jsonl"),
                 "--out-dir", str(tmp_path / "run"), "--config", str(cfg),
                 "--quiet"])
    assert code == 1
    assert "error: line 2: not UTF-8" in capsys.readouterr().err


def test_negative_separation_is_valid(tmp_path):
    # default_rig mirrors the cameras; only a non-finite angle is refused.
    run_synth(tmp_path, n=2, extra=("--separation-deg", "-60"))


def test_report_and_manifest_bytes_are_unchanged(tmp_path):
    # Digests of the files as written when EvalReport.to_json and
    # save_manifest still listed every field by hand; building them from
    # dataclasses.asdict must not change a byte. The report's digest is of
    # the one-pass kernel mixing of the graph conv's forward, which moved
    # refined errors by at most 3.9e-8 mm and left triangulated ones as
    # they were, re-recorded when the head was folded into the last unit,
    # which moved refined errors by at most 1.7e-8 mm and left
    # triangulated ones as they were, and re-recorded when the optimal
    # two-view triangulation replaced the DLT, which moved the triangulated
    # MPJPE from 13.0817 to 13.0616 mm and the refined one from 13.1288 to
    # 13.0422 mm.
    out = run_synth(tmp_path, n=8, seed=3)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 8\nchannels = 8\n")
    data = ["--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl")]
    assert main(["train", *data, "--out-dir", str(tmp_path / "run"),
                 "--config", str(cfg), "--quiet"]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", *data, "--checkpoint",
                 str(tmp_path / "run" / "final.ckpt"),
                 "--report", str(report)]) == 0
    assert file_sha256(out / "manifest.json") == (
        "7a17e5755ca863a7fbef1490e9a4017d8310c3fbc64524f04fb40a7ec29995eb")
    assert file_sha256(report) == (
        "44848cd57151026bf1f1e2cf69763d7700e1942c57a56675254a78e2c1bb9495")


def test_resume_past_the_requested_epochs_exits_1_and_leaves_the_run(
        tmp_path, capsys):
    # A checkpoint 4 epochs in cannot continue a 2-epoch run; once this
    # exited 0 and rewrote final.ckpt and train.cfg as a 2-epoch run.
    out = run_synth(tmp_path, n=16)
    run = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 4\nbatch_size = 8\nchannels = 4\n"
                   "checkpoint_every = 2\n")
    data = ["--data", str(out / "dataset.jsonl"),
            "--rig", str(out / "rig_assumed.jsonl"), "--out-dir", str(run)]
    assert main(["train", *data, "--config", str(cfg), "--quiet"]) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    resume = ["train", *data, "--resume", str(run / "epoch_0004.ckpt"),
              "--batch-size", "8", "--quiet"]
    assert main([*resume, "--epochs", "2"]) == 1
    assert ("error: checkpoint resumes at epoch 4 but the run has only 2 "
            "epochs" in capsys.readouterr().err)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    # Resuming exactly at the last epoch trains nothing and is allowed.
    assert main([*resume, "--epochs", "4"]) == 0


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_outputs_write_non_finite_numbers_as_null(tmp_path):
    # With both cameras in one place nothing triangulates, so every mean is
    # NaN; the report and the rows must still be JSON (RFC 8259).
    from cvpose.graph import default_topology
    from cvpose.network import CVUGCN, NetworkConfig, save_checkpoint
    out = run_synth(tmp_path, n=4)
    rig = out / "rig_assumed.jsonl"
    header, cam1, cam2 = rig.read_text().splitlines()
    twin = dict(json.loads(cam1), id=json.loads(cam2)["id"])
    rig.write_text("\n".join([header, cam1, json.dumps(twin)]) + "\n")
    net = NetworkConfig(channels=8)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, default_topology(), net,
                    CVUGCN(default_topology(), net).weights, opt_state={},
                    train_state={})
    inputs = ["--data", str(out / "dataset.jsonl"), "--rig", str(rig),
              "--checkpoint", str(ckpt)]
    report, rows = tmp_path / "report.json", tmp_path / "rows.json"
    assert main(["eval", *inputs, "--report", str(report)]) == 0
    assert main(["noise", *inputs, "--sigmas", "5,10",
                 "--out", str(rows)]) == 0
    got = _strict_json(report)
    assert got["n_samples"] == 0 and len(got["skipped"]) == 4
    assert got["mpjpe_tri_mm"] is None and got["pmpjpe_refined_mm"] is None
    assert _strict_json(rows) == [
        {"sigma_mm": s, "pmpjpe_coarse_mm": None, "pmpjpe_refined_mm": None}
        for s in (5.0, 10.0)]


def test_an_unseen_camera_pair_is_scored_by_train_and_eval(tmp_path, capsys):
    # Train on cam1+cam2, evaluate on held-out cam1+cam2 and on cam1+cam3,
    # each on the training set's assumed rig, at the sizes of the
    # one-command study this recipe replaced. The values are as the optimal
    # two-view triangulation left them: it lowered the triangulated errors
    # by 0.005 and 0.078 mm, and the one-step C=128 fit turns that into
    # refined errors 3.7 mm lower.
    common = ["--cameras", "3", "--separation-deg", "40", "--sigma-px", "5"]
    sets = {}
    for name, n, seed, pair in (("train", 8, 0, "cam1:cam2"),
                                ("seen", 4, 1, "cam1:cam2"),
                                ("unseen", 4, 2, "cam1:cam3")):
        sets[name] = tmp_path / name
        assert main(["synth", "--out", str(sets[name]), *common,
                     "--n-samples", str(n), "--seed", str(seed),
                     "--pairs", pair]) == 0
    rig = str(sets["train"] / "rig_assumed.jsonl")
    run = tmp_path / "run"
    assert main(["train", "--data", str(sets["train"] / "dataset.jsonl"),
                 "--rig", rig, "--out-dir", str(run), "--seed", "0",
                 "--epochs", "1", "--batch-size", "8", "--quiet"]) == 0
    got = {}
    for name in ("seen", "unseen"):
        report = tmp_path / f"{name}.json"
        assert main(["eval", "--data", str(sets[name] / "dataset.jsonl"),
                     "--rig", rig, "--checkpoint", str(run / "final.ckpt"),
                     "--report", str(report)]) == 0
        body = json.loads(report.read_text())
        got[name] = (list(body["per_pair_mm"]), body["mpjpe_tri_mm"],
                     body["mpjpe_refined_mm"], body["pmpjpe_refined_mm"])
    assert got == {
        "seen": (["cam1+cam2"], 24.57753090181811, 33.28290843999941,
                 23.404649139751193),
        "unseen": (["cam1+cam3"], 19.559953759511103, 27.056750006531246,
                   17.38681747105906)}
    with pytest.raises(SystemExit) as exc:
        main(["unseen"])
    assert exc.value.code == 2
    assert "invalid choice: 'unseen'" in capsys.readouterr().err


# Every long option of every subcommand. A new option has to be added here.
CLI_OPTIONS = {
    "synth": ["--out", "--n-samples", "--seed", "--sigma-px",
              "--perturb-rot-deg", "--perturb-trans-mm", "--cameras",
              "--separation-deg", "--pairs", "--no-gt"],
    "triangulate": ["--data", "--rig", "--mode", "--out"],
    "train": ["--data", "--rig", "--out-dir", "--val-data", "--config",
              "--epochs", "--seed", "--batch-size", "--resume", "--quiet"],
    "eval": ["--data", "--rig", "--checkpoint", "--mode", "--report"],
    "ablate": ["--train-data", "--test-data", "--rig", "--config", "--epochs",
               "--variants", "--out", "--quiet"],
    "noise": ["--data", "--rig", "--checkpoint", "--sigmas", "--seed",
              "--out"],
    "render": ["--data", "--rig", "--out", "--sample-id", "--index",
               "--checkpoint", "--mode"],
}


def test_cli_options_are_the_recorded_inventory():
    import argparse

    from cvpose.cli import build_parser
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    got = {name: [s for a in parser._actions for s in a.option_strings
                  if s.startswith("--") and s != "--help"]
           for name, parser in sub.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(map(len, got.values())) == 50
