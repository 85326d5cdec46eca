"""Every command runs numpy's BLAS on one thread (facetrec.blas)."""

from __future__ import annotations

import hashlib
import logging
import subprocess
import sys

import pytest
import yaml

from facetrec import blas, cli
from facetrec.errors import ValidationError

needs_setter = pytest.mark.skipif(
    blas.thread_control() is None, reason="numpy's BLAS exposes no OpenBLAS thread setter"
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("blas-bundle")
    assert cli.main(["synth", "--out", str(out), "--seed", "99", "--authors", "40", "--tokens", "40"]) == 0
    return out


@needs_setter
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_pin_lasts_exactly_as_long_as_the_command(monkeypatch, fails):
    get, set_ = blas.thread_control()
    before = get()
    set_(2)
    outside = get()  # 2, unless this OpenBLAS allows fewer threads
    seen = []

    def command(args):
        seen.append(get())
        if fails:
            raise ValidationError("boom")
        return 0

    monkeypatch.setattr(cli, "cmd_report", command)
    try:
        assert cli.main(["report", "--csv", "unused.csv"]) == int(fails)
        assert seen == [1] and get() == outside
    finally:
        set_(before)


def test_manifest_records_the_blas_outside_the_digest(bundle, tmp_path, monkeypatch, caplog, capsys):
    pinned_threads = 1 if blas.thread_control() else "unpinned"

    def run(out):
        assert cli.main(["run", "--config", str(bundle / "config.yaml"), "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "manifest.yaml").read_text(encoding="utf-8").replace(str(tmp_path / out), "OUT")

    pinned = [run("a"), run("b")]
    # Without a thread setter the command runs unpinned and says so.
    monkeypatch.setattr(blas, "thread_control", lambda: None)
    with caplog.at_level(logging.INFO, logger="facetrec.blas"):
        unpinned = yaml.safe_load(run("c"))
    assert [r.getMessage() for r in caplog.records if r.name == "facetrec.blas"] == [
        "BLAS threads unpinned: no OpenBLAS thread setter found"
    ]
    assert pinned[0] == pinned[1]
    manifest = yaml.safe_load(pinned[0])
    env = manifest.pop("environment")
    assert env["blas_threads"] == pinned_threads and unpinned.pop("environment")["blas_threads"] == "unpinned"
    assert set(env["blas"]) == {"name", "version"} and all(env["blas"].values())
    # The unpinned run may round differently, but it has the same digest.
    assert set(manifest) == set(unpinned) and manifest["config_digest"] == unpinned["config_digest"]


def test_report_does_not_depend_on_openblas_num_threads(weak_bundle, tmp_path, child_env):
    # A weak-signal corpus where OpenBLAS's 1- and 2-thread products round
    # differently enough to move LR fold scores, unless the run pins the
    # thread count.
    config = yaml.safe_load((weak_bundle / "config.yaml").read_text(encoding="utf-8"))
    config["corpus"] = str(weak_bundle / "corpus.jsonl")
    config["systems"] = [
        {"name": "bow-lr", "model": "logistic_regression", "features": {"kind": "bow", "vocab_size": 3000}}
    ]
    (tmp_path / "lr.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    digests = []
    # Unset, OpenBLAS loads with the package's default of one thread.
    for threads in (None, "1", "2"):
        out = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "facetrec", "run", "--config", "lr.yaml", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256((out / "report.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_import_loads_openblas_on_one_thread_unless_set(child_env, threads, expected):
    code = (
        "import os, facetrec\n"
        "from facetrec import blas\n"
        "control = blas.thread_control()\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], control[0]() if control else 'unpinned')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=threads)
    )
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.split()
    assert value == expected
    # The count OpenBLAS started with; a user's value may be capped at the core count.
    if threads is None:
        assert loaded in ("1", "unpinned")
