"""Every reader of a file cvpose writes loads a mutated copy of it or raises
a CvposeError, with warnings raised as errors: seeded mutation fuzzing in
the manner of AFL, with the standard library's random only.

Each file is mutated MUTANTS times, one to three mutations at a time:
byte flips, deletions, inserted and replaced JSON tokens, truncations and
duplicated or dropped lines. In a checkpoint the mutations go to its text
lines, the header and the array headers, since its float payload takes
any bytes.
"""

import random
import re
import warnings
from pathlib import Path

import pytest

from cvpose import training
from cvpose.errors import CvposeError
from cvpose.geometry import Pose3D, load_rig, save_rig
from cvpose.graph import default_topology
from cvpose.network import CKPT_SCHEMA, CVUGCN, load_checkpoint
from cvpose.syndata import (SyntheticConfig, generate_dataset, load_dataset,
                            save_dataset)

# Mutants per file. With these seeds the rig's mutant 427 sets an entry of R
# to 1e200, which overflowed R^T R, and numpy warned, before load_rig
# refused rotations with an entry outside [-1, 1].
MUTANTS = 500

# What an insertion or a replacement puts in: JSON values of every kind,
# extreme and non-finite numbers, punctuation, and bytes that are not UTF-8.
TOKENS = [b"null", b"true", b"false", b"0", b"-1", b"7", b"2.5", b"-0.0",
          b"1e200", b"-1e200", b"1e400", b"NaN", b"Infinity", b'"x"', b'""',
          b"[]", b"{}", b"[", b"]", b"{", b"}", b",", b":", b'"', b"=", b"#",
          b"\n", b" ", b"\xff", b"\xc3"]
TOKEN = re.compile(rb'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|"[^"\n]*"'
                   rb'|true|false|null|[\[\]{},:=]')


def _text_spans(data, binary):
    """(start, end) byte ranges a mutation may touch: the whole file, or in
    a checkpoint its header lines and array header lines."""
    if not binary:
        return [(0, len(data))]
    spans, at = [], 0
    while at < len(data):
        end = data.index(b"\n", at) + 1
        spans.append((at, end))
        if data.startswith(b"array ", at):
            rows, cols = map(int, data[at:end].split()[2:])
            end += 8 * rows * cols
        at = end
    return spans


def _mutate(rng, data, spans):
    """data with one random mutation at a position inside spans, which an
    earlier mutation may have shifted by a few bytes."""
    start, end = (min(at, len(data)) for at in rng.choice(spans))
    i = rng.randrange(start, end + 1)
    kind = rng.randrange(7)
    if kind == 0 and i < len(data):                 # flip a byte
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]
    if kind == 1:                                   # delete a few bytes
        return data[:i] + data[i + rng.randint(1, 8):]
    if kind == 2:                                   # insert a token
        return data[:i] + rng.choice(TOKENS) + data[i:]
    if kind == 3:                                   # replace a token
        found = list(TOKEN.finditer(data, start, end))
        if found:
            m = rng.choice(found)
            return data[:m.start()] + rng.choice(TOKENS) + data[m.end():]
    if kind == 4:                                   # truncate
        return data[:i]
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    j = rng.randrange(len(lines))
    if kind == 5:                                   # duplicate a line
        lines.insert(j, lines[j])
    else:                                           # drop a line
        del lines[j]
    return b"".join(lines)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """{kind: (path, reader)} of one small file of each kind cvpose reads."""
    d = tmp_path_factory.mktemp("originals")
    topo = default_topology()
    samples, _, rig = generate_dataset(SyntheticConfig(n_samples=4, seed=1,
                                                       sigma_px=3.0))
    save_dataset(d / "dataset.jsonl", samples)
    save_rig(d / "rig.jsonl", rig)
    cfg = training.TrainConfig(epochs=3, batch_size=2, channels=2,
                               checkpoint_every=2)
    training.save_train_config(d / "train.cfg", cfg)
    run = training.fit(samples, [], rig, cfg, out_dir=d / "run")
    coarse, _ = training.precompute_coarse(samples[:1], rig)
    poses = [Pose3D(coarse.poses[0, v], frame_id=cam)
             for v, cam in enumerate(samples[0].pair)]

    def checkpoint(path):
        # All that `cvpose train --resume` and `cvpose eval` make of a
        # checkpoint: the model, the optimizer state, the training state
        # and a refined pose, on a float32 tape.
        ckpt = load_checkpoint(path, topo)
        model = CVUGCN(topo, ckpt.config, weights=ckpt.weights)
        training.AmsGrad({k: v.shape for k, v in model.weights.items()}
                         ).load_state(ckpt.opt_state)
        training._resume_history(ckpt.train_state)
        model.refine(*poses)

    return {
        "dataset": (d / "dataset.jsonl", lambda p: load_dataset(p, topo)),
        "rig": (d / "rig.jsonl", load_rig),
        CKPT_SCHEMA: (Path(run.checkpoints["final"]), checkpoint),
        "train.cfg": (d / "train.cfg", training.load_train_config),
        "train_log": (d / "run" / "train_log.csv",
                      lambda p: training._open_log(p, 2).close()),
    }


@pytest.mark.parametrize("kind", ["dataset", "rig", CKPT_SCHEMA, "train.cfg",
                                  "train_log"])
def test_mutated_file_loads_or_raises_a_cvpose_error(files, kind, tmp_path):
    original, read = files[kind]
    data = original.read_bytes()
    read(original)   # the unmutated file loads
    spans = _text_spans(data, kind == CKPT_SCHEMA)
    rng = random.Random(f"mutate {kind}")
    path = tmp_path / original.name
    escapes = []
    for n in range(MUTANTS):
        blob = data
        for _ in range(rng.randint(1, 3)):
            blob = _mutate(rng, blob, spans)
        path.write_bytes(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                read(path)
        except CvposeError:
            pass
        except Exception as exc:   # noqa: BLE001 - any other is an escape
            escapes.append(f"mutant {n}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes[:5])
