import ast
import errno
import os
import stat
import sys

import pytest

from cvpose import files, training
from cvpose.cli import _print_rows, build_parser
from cvpose.geometry import save_rig
from cvpose.graph import default_topology, save_topology
from cvpose.metrics import EvalReport
from cvpose.network import CVUGCN, NetworkConfig, save_checkpoint
from cvpose.render import render_sample, save_svg
from cvpose.syndata import (SyntheticConfig, generate_dataset, save_dataset,
                            save_manifest)
from cvpose.training import TrainConfig, save_train_config

PREVIOUS = b"previous contents\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Samples and a rig, also saved in a directory of their own for the
    writers that read files."""
    samples, rig, _ = generate_dataset(SyntheticConfig(n_samples=2, seed=0))
    where = tmp_path_factory.mktemp("inputs")
    save_dataset(where / "data.jsonl", samples)
    save_rig(where / "rig.jsonl", rig)
    return samples, rig, where


def _triangulate_out(path, inputs):
    _, _, where = inputs
    args = build_parser().parse_args([
        "triangulate", "--data", str(where / "data.jsonl"),
        "--rig", str(where / "rig.jsonl"), "--out", str(path)])
    args.func(args)


# Every file cvpose writes, each written to `path` from `inputs`.
WRITERS = {
    "save_checkpoint": lambda path, inputs: save_checkpoint(
        path, default_topology(), NetworkConfig(channels=8),
        CVUGCN(default_topology(), NetworkConfig(channels=8)).weights,
        opt_state={}, train_state={"loss_history": []}),
    "train_log": lambda path, inputs: training._open_log(path, 0).close(),
    "save_dataset": lambda path, inputs: save_dataset(path, inputs[0]),
    "save_rig": lambda path, inputs: save_rig(path, inputs[1]),
    "save_topology": lambda path, inputs: save_topology(
        path, default_topology()),
    "save_train_config": lambda path, inputs: save_train_config(
        path, TrainConfig()),
    "save_manifest": lambda path, inputs: save_manifest(
        path, SyntheticConfig(), {"dataset": "0" * 64}, 2),
    "EvalReport.save": lambda path, inputs: EvalReport(
        n_samples=1, mpjpe_tri_mm=2.0, mpjpe_refined_mm=1.0,
        pmpjpe_tri_mm=1.5, pmpjpe_refined_mm=0.5).save(path),
    "save_svg": lambda path, inputs: save_svg(
        path, render_sample(inputs[0][0], inputs[1], default_topology())),
    "study_rows": lambda path, inputs: _print_rows([{"variant": "full"}],
                                                   path),
    "triangulate_out": _triangulate_out,
}


class _DiskFillsMidway:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fail_midway(monkeypatch):
    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _DiskFillsMidway(fh) if "w" in mode else fh
    monkeypatch.setattr(files, "open", failing_open, raising=False)


def _fail_fsync(monkeypatch):
    def failing_fsync(fd):
        raise OSError(errno.EIO, "Input/output error")
    monkeypatch.setattr(os, "fsync", failing_fsync)


@pytest.mark.parametrize("fault", [_fail_midway, _fail_fsync],
                         ids=["write", "fsync"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, inputs,
                                              writer, fault):
    path = tmp_path / "target"
    path.write_bytes(PREVIOUS)
    with monkeypatch.context() as patch:
        fault(patch)
        with pytest.raises(OSError):
            WRITERS[writer](path, inputs)
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["target"]


@pytest.mark.parametrize("writer", list(WRITERS))
def test_write_syncs_the_file_then_its_directory(tmp_path, monkeypatch,
                                                inputs, writer):
    # The rename is durable only once the directory holding it is synced.
    path = tmp_path / "target"
    path.write_bytes(PREVIOUS)
    real_fsync, real_replace = os.fsync, os.replace
    events = []

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    WRITERS[writer](path, inputs)
    monkeypatch.undo()
    assert path.read_bytes() != PREVIOUS
    assert [e[:2] for e in events] == [("fsync", False),
                                       ("replace", os.fspath(path)),
                                       ("fsync", True)]
    assert events[0][2] == os.stat(path).st_ino
    assert events[2][2] == os.stat(tmp_path).st_ino


# Where a call may write, rename or sync a file: (module, function) -> the
# calls allowed there. Anything else outside files.atomic_write is a second
# write path.
ALLOWED = {("files.py", "atomic_write"): {"open:w", "open:wb", "os.open",
                                          "os.fsync", "os.replace"},
           ("training.py", "_open_log"): {"open:a"}}
OS_CALLS = {"open", "fsync", "replace", "rename"}


def _file_calls(tree):
    """(enclosing function, call kind) of each call that writes, renames or
    syncs a file; kind is "open:<mode>", "os.<name>" or "path.<name>"."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                kind = _kind(child)
                if kind is not None:
                    yield fn, kind
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                yield from walk(child, fn)
    yield from walk(tree, None)


def _kind(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return f"os.{func.attr}" if func.attr in OS_CALLS else None
        if func.attr in ("write_text", "write_bytes"):
            return f"path.{func.attr}"
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return None
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return None
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return "open:<not a literal>"
    return None if set(mode.value) <= set("rbt") else f"open:{mode.value}"


def test_only_atomic_write_writes_files():
    src = os.path.dirname(files.__file__)
    seen = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            for fn, kind in _file_calls(tree):
                seen.setdefault((name, fn), set()).add(kind)
    stray = {where: kinds - ALLOWED.get(where, set())
             for where, kinds in seen.items()}
    assert {where: kinds for where, kinds in stray.items() if kinds} == {}
    assert seen == ALLOWED


def test_json_text_writes_non_finite_numbers_as_null():
    import json
    import math

    import numpy as np
    obj = {"a": [1.5, math.nan, (math.inf, -math.inf)],
           "b": {"c": np.float64("nan"), "d": np.float64(0.1)}, "e": "NaN"}
    text = files.json_text(obj, sort_keys=True)
    assert json.loads(text) == {"a": [1.5, None, [None, None]],
                                "b": {"c": None, "d": 0.1}, "e": "NaN"}
    finite = {"x": [0.1, 2e-300, -3.0], "y": 7}
    assert files.json_text(finite, indent=2) == json.dumps(finite, indent=2)


def _imported_packages(tree):
    """The top-level package of each import in a module; a relative import
    is cvpose's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "cvpose" if node.level else node.module.partition(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "cvpose"}
    src = os.path.dirname(files.__file__)
    seen = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            seen[name] = set(_imported_packages(tree))
    assert {name: packages - allowed for name, packages in seen.items()
            if packages - allowed} == {}
    assert "numpy" in seen["autodiff.py"] and "cvpose" in seen["cli.py"]



# Definitions in src/cvpose that neither the package nor the benchmark
# names, kept on purpose, each with its reason.
UNNAMED_ON_PURPOSE = {
    "geometry.project": "the tests' reference projection: one camera-frame "
                        "pose through K, which they build pixels with",
}


def _definitions(tree):
    """(qualified name, name) of a module's top-level functions and classes
    and of its classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def _names(tree):
    """Every name a module uses: identifiers, attributes, imported names
    and their aliases, and string constants shaped like an identifier (the
    benchmark wraps functions by attribute name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def _definitions_and_names(src, benchmarks):
    """{module.qualified name: name} of every definition in the package at
    src, and the set of names its modules and benchmarks' non-test modules
    use."""
    defined, named = {}, set()
    modules = [os.path.join(src, n) for n in sorted(os.listdir(src))]
    modules += [os.path.join(benchmarks, n)
                for n in sorted(os.listdir(benchmarks))
                if not n.startswith("test_")]
    for path in modules:
        if not path.endswith(".py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        named.update(_names(tree))
        if os.path.dirname(path) == src:
            module = os.path.basename(path)[:-3]
            defined.update((f"{module}.{qual}", name)
                           for qual, name in _definitions(tree))
    return defined, named


def test_the_package_holds_only_what_runs():
    """Every top-level function, class and method in src/cvpose is named
    somewhere in the package or in the benchmark's non-test modules, so
    code only the tests use lives under tests/. Dunder methods are exempt,
    and so is each UNNAMED_ON_PURPOSE entry, which must name a definition
    that exists and is still unnamed, or the list would go stale.

    The check works on names only: a use counts whatever object the name
    means where it appears. So a method named like an ndarray or dict
    method (copy, items) passes it even when nothing calls it.
    """
    src = os.path.dirname(files.__file__)
    benchmarks = os.path.join(os.path.dirname(os.path.dirname(src)),
                              "benchmarks")
    defined, named = _definitions_and_names(src, benchmarks)
    unnamed = {qual for qual, name in defined.items()
               if name not in named
               and not (name.startswith("__") and name.endswith("__"))}
    stale = {entry: "now named" if entry in defined else "not defined"
             for entry in UNNAMED_ON_PURPOSE if entry not in unnamed}
    assert stale == {}
    assert sorted(unnamed - set(UNNAMED_ON_PURPOSE)) == []
