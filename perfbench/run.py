"""Pipeline benchmark: `facetrec run` on seeded `facetrec synth` corpora.

    python3 perfbench/run.py --workload demo --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload, untraced

Run from the root of a checkout. For one workload it generates the corpus
with `facetrec synth`, writes the experiment config, then repeats
`perfbench/rep.py` (one `facetrec run` in a fresh interpreter, which also
gives one setup_s sample) for --seconds seconds and checks every report
it writes. --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics instead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

CHILD_TIMEOUT_S = 150

SYSTEMS = {
    "baseline": {"model": "majority", "features": {"kind": "bow", "vocab_size": 3000}},
    "bow-nb": {"model": "naive_bayes", "features": {"kind": "bow", "vocab_size": 3000}},
    "bow-lr": {"model": "logistic_regression", "features": {"kind": "bow", "vocab_size": 3000}},
    "skip-lr": {
        "model": "logistic_regression",
        "features": {"kind": "embeddings", "path": "embeddings-skip.vec", "flavor": "skip"},
    },
    "cbow-lr": {
        "model": "logistic_regression",
        "features": {"kind": "embeddings", "path": "embeddings-cbow.vec", "flavor": "cbow"},
    },
}


@dataclass(frozen=True)
class Workload:
    authors: int
    tokens: int
    pos_rate: float
    systems: tuple[str, ...]
    folds: int = 10
    # Only where the step is provably below 2/L (averaged unit vectors).
    check_lr_descent: bool = False


WORKLOADS = {
    "demo": Workload(60, 60, 0.5, ("baseline", "bow-nb", "skip-lr", "cbow-lr"), check_lr_descent=True),
    "smote-nb": Workload(600, 400, 0.2, ("baseline", "bow-nb")),
    "bow-lr": Workload(300, 400, 0.2, ("baseline", "bow-lr")),
}

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in (*tracing.TIME_METRICS, *tracing.SELF_METRICS)}
    units.update({m: "count" for m in (*tracing.CALL_METRICS, *tracing.HOOK_METRICS)})
    units.update({"models.lr_flops": "flop", "models.lr_bytes": "B", "trace.overhead_s": "s"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_corpus(w: Workload, seed: int, work: Path) -> Path:
    """Write the seeded corpus with `facetrec synth` and this workload's config."""
    subprocess.run(
        [sys.executable, "-m", "facetrec", "synth", "--out", str(work), "--seed", str(seed),
         "--authors", str(w.authors), "--tokens", str(w.tokens), "--pos-rate", str(w.pos_rate)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    lines = [
        "corpus: corpus.jsonl",
        f"seed: {seed}",
        f"folds: {w.folds}",
        "jobs: 1",
        "out: results",
        "smote: {k_neighbors: 5, target_ratio: 1.0}",
        "systems:",
    ]
    for name in w.systems:
        lines.append(f"- {json.dumps({'name': name, **SYSTEMS[name]})}")
    config = work / "bench.yaml"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def repetition(config: Path, work: Path, traced: bool, check_lr: bool):
    """One `facetrec run` in a fresh interpreter; None when it failed."""
    out = work / "results"
    result = work / "rep.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--config", str(config),
           "--out", str(out), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(work / "spans.jsonl")]
        if check_lr:
            cmd.append("--check-lr")
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"repetition failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    rep = json.loads(result.read_text(encoding="utf-8"))
    rep["setup_s"] = rep["imported_at"] - spawned
    rep["report"] = (out / "report.csv").read_text(encoding="utf-8")
    return rep


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        config = make_corpus(w, seed, work)
        print(f"{name}: corpus sha256 {sha256((work / 'corpus.jsonl').read_bytes())} (seed {seed})")

        plain, traced, failed, attempted = [], [], 0, 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for is_traced in (False, True) if trace else (False,):
                rep = repetition(config, work, is_traced, w.check_lr_descent)
                attempted += 1
                if rep is None:
                    failed += 1
                else:
                    print(f"{name}: repetition {attempted}{' (traced)' if is_traced else ''}: "
                          f"setup_s {rep['setup_s']:.4f}, run_s {rep['run_s']:.4f}, "
                          f"cpu_s {rep['cpu_s']:.4f}, peak_rss_mb {rep['peak_rss_mb']:.1f}")
                    (traced if is_traced else plain).append(rep)
            # Whole rounds only: stop when one more round like the last one
            # would run past the window.
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        if trace and traced:
            shutil.copyfile(work / "spans.jsonl", WORK / f"spans-{name}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    reports = {rep["report"] for rep in plain + traced}
    if len(reports) > 1:
        problems.append(f"report.csv differs between repetitions ({len(reports)} versions)")
    for text in reports:
        problems += checks.check_report(text, w.systems, w.folds, w.pos_rate)
    for rep in traced:
        problems += rep["problems"]
    for text in reports:
        print(f"{name}: report.csv sha256 {sha256(text.encode('utf-8'))}")
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)

    values, units = {}, END_TO_END
    if not trace and plain:
        values = {m: statistics.median(rep[m] for rep in plain) for m in END_TO_END}
    elif trace and plain and traced:
        values = {m: statistics.median(rep["layers"][m] for rep in traced) for m in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(rep["run_s"] for rep in traced)
                                      - statistics.median(rep["run_s"] for rep in plain))
        units = per_layer_units()
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    for m, v in metrics.items():
        print(f"{name}: {m} = {v['value']:.6g} {v['unit']}")
    print(f"{name}: {attempted} attempted, {failed} failed")
    return {"correct": not problems and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Pipeline benchmark for facetrec run.")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "facetrec" / "cli.py").is_file():
        print(f"perfbench: no facetrec sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
