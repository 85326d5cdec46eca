"""Paired end-to-end timings of `facetrec run` on two checkouts, as JSON.

    python3 benchmarks/bench_pipeline.py --parent ../parent --change . --pairs 10 --repeat 5 --out BENCH.json

--parent and --change are checkout roots; each side runs the `facetrec`
under its own `src`, and both default to this checkout. For each workload
the change side's `facetrec synth` writes the corpus once. Then --pairs
pairs follow, the parent first in even pairs and the change first in odd
ones. In a pair each side runs `facetrec run` --repeat times, each run in a
fresh interpreter, and the pair takes the median of each metric over
them, as one perfbench window does over its repetitions. Both sides write
to the same output directory, so their manifests are comparable byte for
byte.

A run is timed as perfbench/rep.py times one: setup_s from spawning the
interpreter to the end of `import facetrec.cli`, then run_s (wall) and
cpu_s (user + system) and minor_faults (minor page faults, ru_minflt) of
`cli.main(["run", ...])`, and peak_rss_mb, the process's peak resident
set. minor_faults shows how much memory a run touches afresh, so a
memory change shows its churn as well as its peak. It also moves with the
length of the checkout's path, which shifts the heap (the same tree read
859 faults on `demo` from one directory and 551 from another), so a fault
comparison needs both checkouts at paths of equal length; the JSON
records each side's. The workloads are perfbench's three shapes
(perfbench/run.py: `demo`, `smote-nb`, `bow-lr`) and `weak`, a 600-author
corpus with a weak planted signal on which the LR fit is most of the run
and a wrong answer shows in the scores.

The JSON file holds each side's commit and the length of its path, the
environment (python, numpy, the manifest's
`environment` mapping with the BLAS numpy was built with and its thread
count in `run`, the CPU count and whether PYTHONDONTWRITEBYTECODE is set).
Per workload and side it holds the median and quartiles of each metric
over the pairs and the sha256 of every distinct report.csv and
manifest.yaml, and per metric how many pairs the change won (lower wins,
ties count for neither side). The exit code is 1 if a run failed or the
two sides wrote different reports or manifests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("run_s", "cpu_s", "setup_s", "peak_rss_mb", "minor_faults")
CHILD_TIMEOUT_S = 300

FEATURES = {
    "bow": {"kind": "bow", "vocab_size": 3000},
    "skip": {"kind": "embeddings", "path": "embeddings-skip.vec", "flavor": "skip"},
    "cbow": {"kind": "embeddings", "path": "embeddings-cbow.vec", "flavor": "cbow"},
}
SYSTEMS = {
    "baseline": ("majority", "bow"),
    "bow-nb": ("naive_bayes", "bow"),
    "bow-lr": ("logistic_regression", "bow"),
    "skip-lr": ("logistic_regression", "skip"),
    "cbow-lr": ("logistic_regression", "cbow"),
}
# name -> (synth arguments besides --out and --seed, systems)
WORKLOADS = {
    "demo": (["--authors", "60", "--tokens", "60", "--pos-rate", "0.5"],
             ("baseline", "bow-nb", "skip-lr", "cbow-lr")),
    "smote-nb": (["--authors", "600", "--tokens", "400", "--pos-rate", "0.2"], ("baseline", "bow-nb")),
    "bow-lr": (["--authors", "300", "--tokens", "400", "--pos-rate", "0.2"], ("baseline", "bow-lr")),
    "weak": (["--authors", "600", "--tokens", "400", "--pos-rate", "0.2", "--signal", "0.05"],
             ("baseline", "bow-nb", "bow-lr")),
}

# One repetition in a fresh interpreter: argv is the config and the output
# directory; the last line of standard output is the result as JSON.
CHILD = """\
import time
import facetrec.cli as cli
imported_at = time.perf_counter()
import json, os, resource, sys
from contextlib import redirect_stdout

def usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_minflt

(cpu0, flt0), t0 = usage(), time.perf_counter()
with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
    rc = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
t1, (cpu1, flt1) = time.perf_counter(), usage()
print(json.dumps({"rc": rc, "imported_at": imported_at, "run_s": t1 - t0, "cpu_s": cpu1 - cpu0,
                  "minor_faults": flt1 - flt0,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def env_for(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def describe(checkout: Path) -> str:
    """The checkout's commit (with -dirty for uncommitted edits), or its
    directory name when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True)
    except OSError:  # no git
        return checkout.name
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def make_corpus(name: str, seed: int, checkout: Path, work: Path) -> None:
    synth_args, systems = WORKLOADS[name]
    subprocess.run([sys.executable, "-m", "facetrec", "synth", "--out", str(work), "--seed", str(seed), *synth_args],
                   env=env_for(checkout), check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    lines = ["corpus: corpus.jsonl", f"seed: {seed}", "folds: 10", "out: results",
             "smote: {k_neighbors: 5, target_ratio: 1.0}", "systems:"]
    for system in systems:
        model, features = SYSTEMS[system]
        lines.append(f"- {json.dumps({'name': system, 'model': model, 'features': FEATURES[features]})}")
    (work / "bench.yaml").write_text("\n".join(lines) + "\n", encoding="utf-8")


def repetition(checkout: Path, work: Path):
    """One timed `facetrec run` of ``checkout`` in ``work``; None when it
    failed. Paths are relative to ``work``, so the manifest names no
    directory of this machine."""
    out = work / "results"
    shutil.rmtree(out, ignore_errors=True)
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, "bench.yaml", "results"], cwd=work,
                          env=env_for(checkout), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    rep = json.loads(proc.stdout.splitlines()[-1])
    if rep["rc"] != 0:
        return None
    rep["setup_s"] = rep["imported_at"] - spawned
    rep["report"] = sha256(out / "report.csv")
    rep["manifest"] = sha256(out / "manifest.yaml")
    return rep


def summary(pair_values: list[dict], reps: list[dict]) -> dict:
    """Median and quartiles over the pairs of each metric's pair value,
    and every distinct digest of the runs."""
    side = {}
    for m in METRICS:
        values = sorted(v[m] for v in pair_values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        side[m] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    side["report_sha256"] = sorted({rep["report"] for rep in reps})
    side["manifest_sha256"] = sorted({rep["manifest"] for rep in reps})
    return side


def measure(name: str, seed: int, pairs: int, repeat: int, sides: dict[str, Path]) -> dict:
    work = Path(tempfile.mkdtemp(prefix=f"bench-{name}-"))
    try:
        make_corpus(name, seed, sides["change"], work)
        corpus_sha = sha256(work / "corpus.jsonl")
        reps = {side: [] for side in sides}
        pair_values = {side: [] for side in sides}
        failed = dict.fromkeys(sides, 0)
        won = dict.fromkeys(METRICS, 0)
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                ran = [rep for rep in (repetition(sides[side], work) for _ in range(repeat)) if rep]
                failed[side] += repeat - len(ran)
                reps[side] += ran
                if ran:
                    pair[side] = {m: statistics.median(rep[m] for rep in ran) for m in METRICS}
                    pair_values[side].append(pair[side])
            if len(pair) == 2:
                for m in METRICS:
                    won[m] += pair["change"][m] < pair["parent"][m]
                print(f"{name}: pair {i + 1}/{pairs}: run_s parent {pair['parent']['run_s']:.4f}, "
                      f"change {pair['change']['run_s']:.4f}", file=sys.stderr)
        manifest = work / "results" / "manifest.yaml"
        environment = yaml.safe_load(manifest.read_text(encoding="utf-8"))["environment"] if manifest.is_file() else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    synth_args, systems = WORKLOADS[name]
    result = {"synth": ["--seed", str(seed), *synth_args], "systems": list(systems),
              "corpus_sha256": corpus_sha, "environment": environment,
              "pairs": pairs, "repeat": repeat, "failed": failed}
    result.update({side: summary(pair_values[side], reps[side]) for side in sides if reps[side]})
    result["change_won"] = won
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, default=ROOT, help="parent checkout root (default: this one)")
    p.add_argument("--change", type=Path, default=ROOT, help="changed checkout root (default: this one)")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--repeat", type=int, default=5, help="runs per side in each pair; the pair takes their median")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "src" / "facetrec" / "cli.py").is_file():
            p.error(f"--{side}: no facetrec sources under {checkout / 'src'}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.pairs, args.repeat, sides) for name in names}
    # The manifests' mapping: the BLAS numpy was built with and the thread
    # count `run` ran it on; the same for every workload.
    blas_env = [r.pop("environment") for r in results.values()][-1]
    bench = {
        "sides": {side: describe(checkout) for side, checkout in sides.items()},
        "path_lengths": {side: len(str(checkout)) for side, checkout in sides.items()},
        "seed": args.seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "manifest_environment": blas_env,
            "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "workloads": results,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    bad = False
    print(f"{'workload':<9} {'metric':<12} {'parent':>22} {'change':>22} {'won':>6}")
    for name, r in results.items():
        for m in METRICS:
            f = ".0f" if m == "minor_faults" else ".4f"
            cols = [f"{r[s][m]['median']:{f}} [{r[s][m]['q1']:{f}}, {r[s][m]['q3']:{f}}]" if s in r else "-"
                    for s in sides]
            print(f"{name:<9} {m:<12} {cols[0]:>22} {cols[1]:>22} {r['change_won'][m]:>3}/{r['pairs']}")
        reports, manifests = ({d for s in sides if s in r for d in r[s][f"{f}_sha256"]} for f in ("report", "manifest"))
        print(f"{name:<9} report.csv {' '.join(d[:8] for d in sorted(reports))}, "
              f"manifest.yaml {' '.join(d[:8] for d in sorted(manifests))}; failed {r['failed']}")
        bad |= len(reports) != 1 or len(manifests) != 1 or any(r["failed"].values())
    print(f"wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
