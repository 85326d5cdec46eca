"""End-to-end exercises of the command line through cli.main."""

from __future__ import annotations

import csv
import json
import logging
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from loop_oracles import assert_near_newton_oracle, logreg_newton_numpy, train_materialized

from facetrec import cli, features, kernels, resample
from facetrec.cli import build_parser, main, parse_experiment_config
from facetrec.corpus import (
    assign_labels,
    build_documents,
    default_normalization_table,
    load_corpus,
    load_normalization_table,
)
from facetrec.errors import ConfigError
from facetrec.eval import make_folds, plan_cells
from facetrec.features import BowSpec, EmbeddingSpec, Vocabulary, bow_matrix, load_embeddings, write_embeddings
from facetrec.inventory import FACET_NAMES, default_scoring_key, score_inventory
from facetrec.models import LRHyperparams, ModelSpec, load_model, predict, save_model, train
from facetrec.resample import ResampleConfig
from facetrec.seeding import STREAM_SMOTE, derive_seed


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-bundle")
    rc = main(["synth", "--out", str(out), "--seed", "99", "--authors", "40", "--tokens", "40"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(bundle):
    rc = main(["run", "--config", str(bundle / "config.yaml")])
    assert rc == 0
    return bundle / "results"


def _degenerate_corpus(path: Path, n: int = 4) -> Path:
    rows = [
        {"author_id": f"u{i}", "posts": [f"hello world number {i}"], "bfi44": [3] * 44}
        for i in range(n)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def test_synth_writes_bundle(bundle, capsys):
    for name in ("corpus.jsonl", "embeddings-skip.vec", "embeddings-cbow.vec", "config.yaml"):
        assert (bundle / name).is_file()


def test_validate_reports_ok(bundle, capsys):
    rc = main(["validate", "--corpus", str(bundle / "corpus.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "authors: 40" in out
    assert "documents: 40 (0 authors excluded)" in out
    for facet in FACET_NAMES:
        assert f"facet {facet}:" in out
    assert out.rstrip().endswith("ok")
    assert "[degenerate]" not in out


def test_score_writes_csv(bundle, capsys, tmp_path):
    rc = main(["score", "--corpus", str(bundle / "corpus.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.rstrip("\n").split("\n")
    header = lines[0].split(",")
    assert header[0] == "author_id"
    assert header[-10:] == list(FACET_NAMES)
    assert len(header) == 1 + 5 + 10
    assert len(lines) == 41
    for cell in lines[1].split(",")[1:]:
        float(cell)

    dest = tmp_path / "scores.csv"
    rc = main(["score", "--corpus", str(bundle / "corpus.jsonl"), "--out", str(dest)])
    assert rc == 0
    assert dest.read_text(encoding="utf-8") == out


def test_score_and_predict_quote_csv_fields(bundle, tmp_path, capsys):
    odd = 'smith, "j"'
    rows = [json.loads(line) for line in (bundle / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[0]["author_id"] = odd
    corpus = tmp_path / "odd.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    model = tmp_path / "m.json"
    common = ["--corpus", str(corpus)]
    assert main(["score", *common, "--out", str(tmp_path / "scores.csv")]) == 0
    assert main(["train", *common, "--facet", "Anxiety", "--model", "majority", "--seed", "1", "--out", str(model)]) == 0
    assert main(["predict", *common, "--model", str(model), "--out", str(tmp_path / "pred.csv")]) == 0
    for name, width in (("scores.csv", 1 + 5 + 10), ("pred.csv", 3)):
        with open(tmp_path / name, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert len(table) == 41
        assert {len(row) for row in table} == {width}
        assert table[1][0] == odd


def test_run_writes_reports(bundle, run_dir, capsys):
    capsys.readouterr()
    for name in ("report.txt", "report.csv", "manifest.yaml"):
        assert (run_dir / name).is_file()
    manifest = yaml.safe_load((run_dir / "manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 99
    assert manifest["config"]["folds"] == 10
    assert len(manifest["config_digest"]) == 64
    assert manifest["corpus"]["authors"] == 40
    assert manifest["corpus"]["degenerate_facets"] == []
    assert [s["name"] for s in manifest["systems"]] == ["baseline", "bow-nb", "skip-lr", "cbow-lr"]
    assert set(manifest["results"]["overall"]) == {"baseline", "bow-nb", "skip-lr", "cbow-lr"}
    assert sum(manifest["results"]["wins"].values()) >= 10

    text = (run_dir / "report.txt").read_text(encoding="utf-8")
    assert text.splitlines()[0].split()[:3] == ["system", "overall", "wins"]
    csv_text = (run_dir / "report.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "section,model,facet,fold,f1"


def test_run_realizes_each_feature_space_once(bundle, tmp_path, monkeypatch, capsys):
    # The demo config's baseline and bow-nb share one bag-of-words spec;
    # skip-lr and cbow-lr each read their own embedding file.
    real = features.realize_features
    specs = []

    def counting(spec, corpus):
        specs.append(spec)
        return real(spec, corpus)

    for name, module in list(sys.modules.items()):
        if name.startswith("facetrec") and getattr(module, "realize_features", None) is real:
            monkeypatch.setattr(module, "realize_features", counting)
    assert main(["run", "--config", str(bundle / "config.yaml"), "--folds", "3", "--out", str(tmp_path)]) == 0
    assert len(specs) == 3 and len(set(specs)) == 3


def test_manifest_gives_each_system_its_own_features_mapping(run_dir):
    text = (run_dir / "manifest.yaml").read_text(encoding="utf-8")
    assert "&id" not in text and "*id" not in text
    systems = {s["name"]: s for s in yaml.safe_load(text)["systems"]}
    keys = {"kind", "vocab_size", "binary", "actual_size", "vocab_sha256"}
    for name in ("baseline", "bow-nb"):
        assert set(systems[name]["features"]) == keys
    assert systems["baseline"]["features"] == systems["bow-nb"]["features"]


def test_run_flag_overrides_config(bundle, tmp_path, capsys):
    out = tmp_path / "five-folds"
    rc = main(
        ["run", "--config", str(bundle / "config.yaml"), "--folds", "5", "--out", str(out)]
    )
    assert rc == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["config"]["folds"] == 5
    assert manifest["config"]["out"] == str(out)
    folds = {
        int(line.split(",")[3])
        for line in (out / "report.csv").read_text(encoding="utf-8").splitlines()
        if line.startswith("fold,")
    }
    assert folds == set(range(5))


def test_rerun_is_byte_identical(bundle, run_dir, tmp_path, capsys):
    out = tmp_path / "again"
    rc = main(["run", "--config", str(bundle / "config.yaml"), "--out", str(out)])
    assert rc == 0
    for name in ("report.csv", "report.txt"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


def _smote_rows(source: Path) -> int:
    # The rows SMOTE adds to one system's cells on a bundle, from its labels
    # and fold plan alone: the cells `run` plans, over a matrix of zeros, as
    # the count does not depend on the rows.
    config = yaml.safe_load((source / "config.yaml").read_text(encoding="utf-8"))
    records = load_corpus(source / "corpus.jsonl")
    scores = {r.author_id: score_inventory(r.inventory, default_scoring_key()) for r in records}
    corpus = assign_labels(build_documents(records, default_normalization_table()), scores)
    labels = {f: corpus.labels(f) for f in corpus.active_facets}
    plan = make_folds(labels, n_folds=config["folds"], seed=config["seed"])
    cfg = ResampleConfig(k_neighbors=config["smote"]["k_neighbors"], target_ratio=config["smote"]["target_ratio"])
    cells = plan_cells(corpus, np.zeros((len(corpus.documents), 1)), cfg, plan).cells
    return sum(len(cell.seeds) for facet in cells for cell in facet)


def test_verbose_run_logs_lr_convergence_without_touching_artifacts(bundle, tmp_path, caplog, capsys):
    # Each naive Bayes or LR system sums up SMOTE's rows in one info line,
    # and each LR system its cells' Newton fits in another; each LR cell
    # that stops at max_epochs without converging logs a warning naming
    # its facet and fold. -v shows the info lines, and report.csv and
    # manifest.yaml do not change. The module's bundle has balanced folds;
    # on the second input, at 20% positives, SMOTE draws. The third caps
    # LR at one Newton iteration, so no cell converges.
    imbalanced = tmp_path / "imbalanced"
    synth = ["synth", "--out", str(imbalanced), "--seed", "99", "--authors", "40", "--tokens", "40"]
    assert main([*synth, "--pos-rate", "0.2"]) == 0
    capped = yaml.safe_load((imbalanced / "config.yaml").read_text(encoding="utf-8"))
    for system in capped["systems"]:
        if system["model"] == "logistic_regression":
            system["model"] = {"kind": "logistic_regression", "max_epochs": 1}
    (imbalanced / "capped.yaml").write_text(yaml.safe_dump(capped), encoding="utf-8")
    caplog.set_level(logging.INFO, logger="facetrec")
    for source, config, cap in ((bundle, "config.yaml", 500), (imbalanced, "config.yaml", 500), (imbalanced, "capped.yaml", 1)):
        args = ["run", "--config", str(source / config), "--out", str(tmp_path / "out")]
        assert main(args) == 0
        quiet = {name: (tmp_path / "out" / name).read_bytes() for name in ("report.csv", "manifest.yaml")}
        caplog.clear()
        assert main(["-v", *args]) == 0
        lines = [r.getMessage() for r in caplog.records if "LR converged" in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == ["skip-lr", "cbow-lr"]
        for line in lines:
            converged, cells, low, high = map(int, re.fullmatch(
                r"[\w-]+: LR converged in (\d+)/(\d+) cells \(iterations (\d+)-(\d+)\)", line).groups())
            assert cells == 100 and converged == (100 if cap > 1 else 0) and 1 <= low <= high <= cap
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        stopped = {re.fullmatch(rf"([\w-]+): facet (\w+), fold (\d): LR stopped after {cap} Newton iterations "
                                r"without converging", line).groups() for line in warnings}
        assert len(stopped) == len(warnings) == (0 if cap > 1 else 200)
        lines = [r.getMessage() for r in caplog.records if "SMOTE added" in r.getMessage()]
        rows = _smote_rows(source)
        assert lines == [f"{name}: SMOTE added {rows} rows to 100 cells" for name in ("bow-nb", "skip-lr", "cbow-lr")]
        assert (rows > 0) == (source == imbalanced)
        for name, data in quiet.items():
            assert (tmp_path / "out" / name).read_bytes() == data


def test_systems_on_one_space_train_from_one_cell_plan(tmp_path, monkeypatch, capsys):
    # `run` plans a feature space's cells once, and every system on it
    # trains from them: the baseline, naive Bayes and LR on one BoW space
    # sort the neighbour orders naive Bayes alone sorts, and no more.
    assert main(["synth", "--out", str(tmp_path), "--seed", "5", "--authors", "40", "--tokens", "30",
                 "--pos-rate", "0.2"]) == 0
    sorted_rows, runs = [], []
    real = kernels.neighbour_order
    monkeypatch.setattr(kernels, "neighbour_order", lambda M: sorted_rows.append(len(M)) or real(M))
    config = yaml.safe_load((tmp_path / "config.yaml").read_text(encoding="utf-8"))
    for kinds in (["naive_bayes"], ["majority", "naive_bayes", "logistic_regression"]):
        config["systems"] = [{"name": kind, "model": kind, "features": {"kind": "bow"}} for kind in kinds]
        (tmp_path / "one.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "one.yaml"), "--out", str(tmp_path / "out")]) == 0
        runs.append(sorted_rows[:])
        sorted_rows.clear()
    assert runs[0] and runs[1] == runs[0]


@pytest.mark.parametrize("pos_rate", ["0.5", "0.2"], ids=["balanced", "smote"])
def test_lr_reports_do_not_depend_on_the_process(tmp_path, child_env, pos_rate):
    # The README demo's LR systems, run twice, each time in a fresh
    # interpreter with its own hash seed: report.csv must come out byte for
    # byte the same, so no LR result depends on process state. At 20%
    # positives SMOTE draws rows in every cell (3,240 per system).
    args = ["--seed", "7", "--authors", "60", "--tokens", "60", "--pos-rate", pos_rate]
    assert main(["synth", "--out", str(tmp_path), *args]) == 0
    config = yaml.safe_load((tmp_path / "config.yaml").read_text(encoding="utf-8"))
    config["systems"] = [s for s in config["systems"] if s["model"] == "logistic_regression"]
    (tmp_path / "lr.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    reports = []
    for i, hash_seed in enumerate(("0", "4242")):
        proc = subprocess.run(
            [sys.executable, "-m", "facetrec", "run", "--config", "lr.yaml", "--out", f"out{i}"],
            capture_output=True, text=True, cwd=tmp_path, env=child_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((tmp_path / f"out{i}" / "report.csv").read_bytes())
    assert reports[0] == reports[1] and reports[0].count(b"\nfold,") == 2 * 10 * 10


def _digest(out: Path) -> str:
    return yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))["config_digest"]


def test_config_digest_ignores_cwd_out_and_jobs(bundle, tmp_path, monkeypatch, capsys):
    # The first run reaches every file by a path relative to the bundle; the
    # others by absolute paths, the last through a config that also carries
    # the legacy key `jobs: 1`.
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["corpus"] = str(bundle / "corpus.jsonl")
    for system in data["systems"]:
        if "path" in system["features"]:
            system["features"]["path"] = str(bundle / system["features"]["path"])
    legacy = tmp_path / "legacy.yaml"
    legacy.write_text(yaml.safe_dump(dict(data, jobs=1)), encoding="utf-8")
    runs = [(bundle, "config.yaml"), (tmp_path, str(bundle / "config.yaml")), (tmp_path, str(legacy))]
    digests = []
    for i, (cwd, config) in enumerate(runs):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"run{i}"
        assert main(["run", "--config", config, "--folds", "3", "--out", str(out)]) == 0
        digests.append(_digest(out))
    assert (tmp_path / "run0" / "report.csv").read_bytes() == (tmp_path / "run2" / "report.csv").read_bytes()
    assert len(digests[0]) == 64 and digests[0] == digests[1] == digests[2]


def test_config_digest_covers_the_system_list(bundle, tmp_path, capsys):
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    baseline, bow_nb = data["systems"][:2]
    smoothed = dict(bow_nb, model={"kind": "naive_bayes", "alpha": 0.5})
    # Only the system list changes between the runs, not even `out`.
    out = tmp_path / "run"
    args = ["--corpus", str(bundle / "corpus.jsonl"), "--folds", "3", "--out", str(out)]
    digests = set()
    for systems in ([baseline], [baseline, bow_nb], [baseline, smoothed]):
        cfg = tmp_path / "systems.yaml"
        cfg.write_text(yaml.safe_dump(dict(data, systems=systems)), encoding="utf-8")
        assert main(["run", "--config", str(cfg), *args]) == 0
        digests.add(_digest(out))
    assert len(digests) == 3


def test_config_digest_covers_every_smote_setting(bundle, tmp_path, capsys):
    # The manifest records SMOTE's config as the dataclass holds it, so a
    # setting added to ResampleConfig is recorded and digested too. Its
    # seed is the run's.
    changed = {"k_neighbors": 3, "target_ratio": 0.5}
    assert set(changed) == {f.name for f in fields(ResampleConfig)} - {"seed"}
    defaults = {key: getattr(ResampleConfig(), key) for key in changed}
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["systems"] = data["systems"][:1]
    out = tmp_path / "run"
    args = ["--corpus", str(bundle / "corpus.jsonl"), "--folds", "3", "--out", str(out)]
    digests = set()
    for smote in ({}, *({key: value} for key, value in changed.items())):
        cfg = tmp_path / "smote.yaml"
        cfg.write_text(yaml.safe_dump(dict(data, smote=smote)), encoding="utf-8")
        assert main(["run", "--config", str(cfg), *args]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
        assert manifest["config"]["smote"] == {**defaults, **smote}
        digests.add(manifest["config_digest"])
    assert len(digests) == 1 + len(changed)


# Expected fold rows of report.csv, in report.csv's own format. A change
# that moves one must say why in CHANGES.md. Only fold rows are pinned: the
# other sections are computed from them.
PINS = Path(__file__).resolve().parent / "pins"


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """The README quick start: synth --seed 7, 60 authors of 60 tokens, run
    with the systems of synth's config."""
    out = tmp_path_factory.mktemp("demo")
    assert main(["synth", "--out", str(out), "--seed", "7", "--authors", "60", "--tokens", "60"]) == 0
    assert main(["run", "--config", str(out / "config.yaml")]) == 0
    return out / "results"


def _moved_fold_rows(report: Path, pin: str) -> list[str]:
    """Each fold row that differs between ``report`` and ``PINS / pin``,
    including rows only one of them has."""

    def rows(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return {tuple(ln.split(",")[1:4]): ln.split(",")[4] for ln in lines if ln.startswith("fold,")}

    want, got = rows(PINS / pin), rows(report)
    return [
        f"{','.join(key)}: pinned {want.get(key, 'nothing')}, got {got.get(key, 'nothing')}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]


@pytest.mark.parametrize("results, pin", [("demo_run", "demo.csv"), ("run_dir", "bundle.csv")])
def test_fold_rows_match_their_pins(request, results, pin):
    moved = _moved_fold_rows(request.getfixturevalue(results) / "report.csv", pin)
    assert not moved, f"{len(moved)} fold rows differ from tests/pins/{pin}:\n" + "\n".join(moved)


def test_report_rerenders_both_formats(run_dir, capsys):
    rc = main(["report", "--csv", str(run_dir / "report.csv")])
    assert rc == 0
    assert capsys.readouterr().out == (run_dir / "report.txt").read_text(encoding="utf-8")

    rc = main(["report", "--csv", str(run_dir / "report.csv"), "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out == (run_dir / "report.csv").read_text(encoding="utf-8")


def test_missing_config_is_a_config_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.yaml")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("facetrec: ConfigError: cannot read config")


def test_corrupt_corpus_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"author_id": "a"\n', encoding="utf-8")
    rc = main(["validate", "--corpus", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("facetrec: ValidationError:")
    assert ":1: invalid JSON" in err


@pytest.mark.parametrize("pattern", [r"(?a)\bha\b", "a{99999999999}"])
def test_validate_names_a_rule_the_engine_rejects(bundle, tmp_path, capsys, pattern):
    norm = tmp_path / "norm.yaml"
    norm.write_text(f"rules:\n  - pattern: '{pattern}'\n    token: $X$\n", encoding="utf-8")
    rc = main(["validate", "--corpus", str(bundle / "corpus.jsonl"), "--normalization", str(norm)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"facetrec: ConfigError: {norm}: rule 0: invalid pattern {pattern!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["score", "run"])
def test_bad_responses_name_their_author_or_line_and_item(bundle, tmp_path, capsys, command):
    lines = (bundle / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[3])
    obj["bfi44"][6] = 9
    lines[3] = json.dumps(obj)
    out_of_scale = tmp_path / "out-of-scale.jsonl"
    out_of_scale.write_text("\n".join(lines) + "\n", encoding="utf-8")
    obj["bfi44"][6] = 3.5
    lines[3] = json.dumps(obj)
    non_integer = tmp_path / "non-integer.jsonl"
    non_integer.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for corpus, message in (
        (out_of_scale, f"author {obj['author_id']}: item 7: response 9 outside scale 1..5"),
        (non_integer, f"{non_integer}:4: item 7: response 3.5 is not an integer"),
    ):
        if command == "score":
            argv = ["score", "--corpus", str(corpus), "--out", str(tmp_path / "scores.csv")]
        else:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(
                yaml.safe_dump({"corpus": str(corpus), "seed": 7, "out": str(tmp_path / "r"),
                                "systems": [{"name": "baseline", "model": "majority",
                                             "features": {"kind": "bow", "vocab_size": 50}}]}),
                encoding="utf-8",
            )
            argv = ["run", "--config", str(cfg)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err


def test_cli_import_leaves_synth_unloaded(child_env):
    # Only `facetrec synth` generates data, so no other command compiles and
    # imports the generator.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, facetrec.cli; print('facetrec.synth' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_config_requires_a_seed(bundle, tmp_path, capsys):
    cfg = tmp_path / "no-seed.yaml"
    cfg.write_text(
        yaml.safe_dump({"corpus": str(bundle / "corpus.jsonl"), "out": str(tmp_path / "r")}),
        encoding="utf-8",
    )
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "facetrec: ConfigError:" in err
    assert "seed is required" in err


@pytest.mark.parametrize(
    "key, value",
    [("systems", None), ("vocab_size", 3000), ("embeddings", "embeddings-skip.vec"), ("flavor", "cbow")],
)
def test_config_has_no_implicit_system_list(bundle, tmp_path, capsys, key, value):
    # Systems are always listed; no top-level key builds a default list.
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    if value is None:
        del data[key]
    else:
        data[key] = value
    cfg = tmp_path / "implicit.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main(["run", "--config", str(cfg), "--folds", "3", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("facetrec: ConfigError:") and key in err


def test_every_run_flag_reaches_the_config(tmp_path):
    # cmd_run lays vars(args) over the config, so a flag the parser does not
    # read would be ignored without a word. Each value is valid for its flag
    # and differs from every default; flag paths stay as given.
    system = {"model": "majority", "features": {"kind": "bow"}}
    data = {"corpus": "c.jsonl", "seed": 7, "out": "results", "systems": [system]}
    base = parse_experiment_config(data, tmp_path / "c.yaml")
    args = vars(build_parser().parse_args(["run", "--config", "c.yaml"]))
    flags = set(args) - {"command", "config", "func", "verbose"}
    assert flags
    for dest in flags:
        value = 0.5 if dest == "smote_ratio" else 2
        assert parse_experiment_config(data, tmp_path / "c.yaml", {dest: value}) != base, dest


def test_readme_configuration_block_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    cfg = parse_experiment_config(yaml.safe_load(block), tmp_path / "config.yaml")
    assert cfg.corpus == str(tmp_path / "corpus.jsonl") and cfg.seed == 7
    assert [s.name for s in cfg.systems] == ["baseline", "bow-nb", "skip-lr"]
    assert cfg.systems[2].feature_spec.path == str(tmp_path / "embeddings-skip.vec")


def test_config_rejects_unknown_keys(bundle, tmp_path, capsys):
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["sneed"] = 1
    cfg = tmp_path / "extra.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown config" in err and "sneed" in err


def test_config_rejects_duplicate_system_names(bundle, tmp_path, capsys):
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["systems"] = [data["systems"][0], dict(data["systems"][0])]
    cfg = tmp_path / "dup.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "duplicate name" in err


@pytest.mark.parametrize("name", ["bow-nb\n", "bow nb", "-bow"], ids=["trailing-newline", "space", "leading-dash"])
def test_config_rejects_a_system_name_outside_the_pattern(bundle, tmp_path, capsys, name):
    # A name is a report.csv field; a trailing newline would split its fold rows.
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["systems"][0]["name"] = name
    cfg = tmp_path / "name.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"invalid name {name!r}" in err


def test_config_rejects_an_empty_system_list(bundle, tmp_path, capsys):
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    data["systems"] = []
    cfg = tmp_path / "none.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "ConfigError" in err and "non-empty list" in err


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("model", "learning_rate", 0.1, "unknown model options: learning_rate"),
        ("model", "l2", "fast", "l2 must be a number, got 'fast'"),
        ("model", "tol", "fast", "tol must be a number, got 'fast'"),
        ("model", "tol", "1e-8", "tol must be a number, got '1e-8', a string to YAML: write 1.0e-8, not 1e-8"),
        ("model", "alpha", "fast", "alpha must be a number, got 'fast'"),
        ("smote", "target_ratio", "fast", "smote.target_ratio must be a number, got 'fast'"),
        ("features", "binary", "false", "binary must be true or false, got 'false'"),
        # NaN fails every comparison, so each bound is also an upper one: a
        # NaN l2 would stop LR with a non-finite loss, a NaN tol would run
        # every cell to max_epochs, and an infinite alpha would score naive
        # Bayes from NaN likelihoods.
        ("model", "l2", float("nan"), "l2 must be finite and nonnegative, got nan"),
        ("model", "l2", float("inf"), "l2 must be finite and nonnegative, got inf"),
        ("model", "tol", float("nan"), "tol must be finite and nonnegative, got nan"),
        ("model", "alpha", float("inf"), "alpha must be finite and positive, got inf"),
    ],
    ids=["learning_rate", "l2", "tol", "tol-exponent", "alpha", "smote.target_ratio", "binary",
         "l2-nan", "l2-inf", "tol-nan", "alpha-inf"],
)
def test_config_values_of_the_wrong_type_name_their_key(bundle, tmp_path, capsys, section, key, value, message):
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    kind = "naive_bayes" if key == "alpha" else "logistic_regression"
    system = {"name": "s", "model": {"kind": kind}, "features": {"kind": "bow"}}
    if section == "smote":
        data["smote"] = {key: value}
    else:
        system[section][key] = value
    data["systems"] = [system]
    cfg = tmp_path / "typed.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("facetrec: ConfigError:")
    assert message in err


_LATE = {"name": "late", "model": "majority", "features": {"kind": "bow"}}


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("run", {"smote": {"k_neighbors": 0}}, "k_neighbors must be at least 1, got 0"),
        ("run", {"smote": {"target_ratio": 2.0}}, "target_ratio must be in (0, 1], got 2.0"),
        ("run", {"folds": 1}, "folds must be an integer of at least 2, got 1"),
        ("run", dict(_LATE, features={"kind": "bow", "vocab_size": 0}), "vocab_size must be a positive integer, got 0"),
        ("run", dict(_LATE, features={"kind": "embeddings", "path": "embeddings-skip.vec", "flavor": "glove"}),
         "embedding flavor must be one of skip, cbow, got 'glove'"),
        ("run", dict(_LATE, model={"kind": "logistic_regression", "l2": float("nan")}),
         "l2 must be finite and nonnegative, got nan"),
        ("train", ["--smote-k", "0"], "k_neighbors must be at least 1, got 0"),
        ("train", ["--no-smote", "--smote-k", "0"], "k_neighbors must be at least 1, got 0"),
        ("train", ["--smote-ratio", "2.0"], "target_ratio must be in (0, 1], got 2.0"),
        ("train", ["--vocab-size", "0"], "vocab_size must be a positive integer, got 0"),
        ("train", ["--model", "logistic_regression", "--l2", "nan"], "l2 must be finite and nonnegative, got nan"),
    ],
    ids=["run-k", "run-ratio", "run-folds", "run-vocab", "run-flavor", "run-l2",
         "train-k", "train-no-smote-k", "train-ratio", "train-vocab", "train-l2"],
)
def test_bad_values_fail_before_the_corpus_is_read(bundle, tmp_path, monkeypatch, capsys, command, change, message):
    # Every value is checked as the config or the flags are parsed, so a
    # bad one, even in the last system, costs no loading, scoring or
    # training of the systems before it.
    def no_corpus(path):
        raise AssertionError("the corpus was read before a bad value was rejected")

    monkeypatch.setattr(cli, "load_corpus", no_corpus)
    if command == "run":
        data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
        if "name" in change:
            data["systems"].append(change)
        else:
            data.update(change)
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        argv = ["run", "--config", str(config), "--out", str(tmp_path)]
    else:
        argv = ["train", "--corpus", str(bundle / "corpus.jsonl"), "--facet", "Anxiety", "--model", "naive_bayes",
                "--seed", "1", "--out", str(tmp_path / "m.json"), *change]
    assert main(argv) == 1
    # An error inside a system names the config file and the system's index.
    where = f"{config}: system {len(data['systems']) - 1}: " if command == "run" and "name" in change else ""
    assert capsys.readouterr().err == f"facetrec: ConfigError: {where}{message}\n"


@pytest.mark.parametrize(
    "model, message",
    [
        ({"kind": "naive_bayes", "l2": 0.5}, "unknown model options: l2; naive_bayes takes alpha"),
        ({"kind": "majority", "alpha": 2}, "unknown model options: alpha; majority takes none"),
        ({"kind": "logistic_regression", "alpha": 2, "l2": 0.5},
         "unknown model options: alpha; logistic_regression takes l2, max_epochs, tol"),
    ],
    ids=["nb-l2", "majority-alpha", "lr-alpha"],
)
def test_config_rejects_the_options_of_another_model_kind(tmp_path, model, message):
    # Such an option would be accepted and ignored.
    path = tmp_path / "c.yaml"
    data = {"corpus": "c.jsonl", "seed": 7, "out": "o", "systems": [{"model": model, "features": {"kind": "bow"}}]}
    with pytest.raises(ConfigError) as err:
        parse_experiment_config(data, path)
    assert str(err.value) == f"{path}: system 0: {message}"


def test_train_flag_defaults_are_the_dataclass_defaults():
    args = build_parser().parse_args(
        ["train", "--corpus", "c", "--facet", "Anxiety", "--model", "majority", "--seed", "1", "--out", "m"]
    )
    smote, lr = ResampleConfig(), LRHyperparams()
    assert (args.smote_k, args.smote_ratio) == (smote.k_neighbors, smote.target_ratio)
    assert (args.l2, args.max_epochs, args.tol) == (lr.l2, lr.max_epochs, lr.tol)
    assert args.alpha == ModelSpec(kind="majority").alpha
    assert args.flavor == EmbeddingSpec(path="v").flavor
    assert args.vocab_size == BowSpec().vocab_size


def test_train_then_predict_round_trip(bundle, tmp_path, capsys):
    model_path = tmp_path / "anxiety-nb.json"
    rc = main(
        [
            "train",
            "--corpus", str(bundle / "corpus.jsonl"),
            "--facet", "Anxiety",
            "--model", "naive_bayes",
            "--seed", "3",
            "--out", str(model_path),
        ]
    )
    assert rc == 0
    assert model_path.is_file()
    capsys.readouterr()

    rc = main(["predict", "--model", str(model_path), "--corpus", str(bundle / "corpus.jsonl")])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "author_id,Anxiety,score"
    assert len(lines) == 41
    for line in lines[1:]:
        aid, label, score = line.split(",")
        assert label in {"0", "1"}
        float(score)


def test_predict_rejects_a_tampered_embedding_file(bundle, tmp_path, capsys):
    vec = tmp_path / "vectors.vec"
    vec.write_bytes((bundle / "embeddings-skip.vec").read_bytes())
    model_path = tmp_path / "anxiety-lr.json"
    rc = main(
        [
            "train",
            "--corpus", str(bundle / "corpus.jsonl"),
            "--facet", "Anxiety",
            "--model", "logistic_regression",
            "--features", "embeddings",
            "--embeddings", str(vec),
            "--seed", "4",
            "--out", str(model_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()

    rc = main(["predict", "--model", str(model_path), "--corpus", str(bundle / "corpus.jsonl")])
    assert rc == 0
    capsys.readouterr()

    store = load_embeddings(vec, "skip")
    vectors = dict(store.vectors)
    vectors["$LAUGH$"] = -vectors["$LAUGH$"]
    write_embeddings(replace(store, vectors=vectors), vec)
    rc = main(["predict", "--model", str(model_path), "--corpus", str(bundle / "corpus.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "changed since training" in err


def test_predict_reads_no_inventories(bundle, tmp_path, capsys):
    # Text without an inventory, as a model trained elsewhere meets it.
    full = bundle / "corpus.jsonl"
    rows = [json.loads(line) for line in full.read_text(encoding="utf-8").splitlines()]
    text = tmp_path / "text.jsonl"
    text.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "bfi44"}) + "\n" for r in rows),
                    encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--corpus", str(full), "--facet", "Anxiety", "--model", "naive_bayes", "--seed", "3",
                 "--out", str(model)]) == 0
    for corpus in (full, text):
        assert main(["predict", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(tmp_path / f"{corpus.stem}.csv")]) == 0
    assert (tmp_path / "corpus.csv").read_bytes() == (tmp_path / "text.csv").read_bytes()
    # Every other command that reads a corpus scores its inventories.
    train_args = ["--facet", "Anxiety", "--model", "majority", "--seed", "1", "--out", str(model)]
    for argv in (["validate"], ["score"], ["train", *train_args],
                 ["run", "--config", str(bundle / "config.yaml"), "--out", str(tmp_path / "r")]):
        capsys.readouterr()
        assert main([*argv, "--corpus", str(text)]) == 1
        assert capsys.readouterr().err == f"facetrec: ValidationError: {text}:1: missing field 'bfi44'\n"


def test_predict_normalizes_by_the_table_of_training(bundle, tmp_path, capsys):
    # Four-letter words become a placeholder that the built-in table never
    # makes, so the model's vocabulary holds it, and only the model file can
    # tell predict to make it again.
    table = tmp_path / "four.yaml"
    table.write_text(yaml.safe_dump({"rules": [{"pattern": r"\b[a-z]{4}\b", "token": "$FOUR$"}]}), encoding="utf-8")
    corpus, model_path = bundle / "corpus.jsonl", tmp_path / "m.json"
    assert main(["train", "--corpus", str(corpus), "--normalization", str(table), "--facet", "Anxiety",
                 "--model", "naive_bayes", "--seed", "3", "--out", str(model_path)]) == 0
    model = load_model(model_path)
    assert model.feature_ref["normalization"] == yaml.safe_load(table.read_text(encoding="utf-8"))
    vocab = Vocabulary(entries=tuple(map(tuple, model.feature_ref["vocab"])))
    assert "$FOUR$" in vocab.index
    records = load_corpus(corpus)

    def expected(norm):
        docs = build_documents(records, norm)
        labels, scores = predict(model, bow_matrix([tokens for _, tokens in docs], vocab))
        return "author_id,Anxiety,score\n" + "".join(
            f"{aid},{label},{score!r}\n" for (aid, _), label, score in zip(docs, labels, scores.tolist())
        )

    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert out == expected(load_normalization_table(table)) != expected(default_normalization_table())
    # The table is the model's: predict takes no other.
    with pytest.raises(SystemExit):
        main(["predict", "--model", str(model_path), "--corpus", str(corpus), "--normalization", str(table)])


def test_train_refuses_a_degenerate_facet(tmp_path, capsys):
    corpus = _degenerate_corpus(tmp_path / "flat.jsonl")
    rc = main(
        [
            "train",
            "--corpus", str(corpus),
            "--facet", "Anxiety",
            "--model", "majority",
            "--seed", "1",
            "--out", str(tmp_path / "m.json"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "facetrec: ValidationError:" in err
    assert "degenerate" in err


def test_train_errors_name_their_facet(tmp_path, capsys):
    # One author scores above the mean on Anxiety, too few for SMOTE.
    corpus = _degenerate_corpus(tmp_path / "one.jsonl")
    rows = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    for idx, reverse in default_scoring_key().facets["Anxiety"]:
        rows[0]["bfi44"][idx] = 1 if reverse else 5
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    args = ["train", "--corpus", str(corpus), "--facet", "Anxiety", "--model", "naive_bayes"]
    rc = main([*args, "--seed", "3", "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "facetrec: ValidationError: facet Anxiety: minority class needs at least 2" in err


@pytest.fixture(scope="module", params=["0.2", "0.8"], ids=["minority-1", "minority-0"])
def imbalanced_bundle(request, tmp_path_factory):
    # 60 authors at 20% or 80% positives: SMOTE adds rows of class 1 or 0
    # to every facet, and at 80% it turns the baseline's majority label
    # from 1 to the tie's 0.
    out = tmp_path_factory.mktemp("imbalanced-bundle")
    args = ["--seed", "5", "--authors", "60", "--tokens", "60", "--pos-rate", request.param]
    assert main(["synth", "--out", str(out), *args]) == 0
    return out


def _train(bundle, out, kind, facet, smote):
    args = ["train", "--corpus", str(bundle / "corpus.jsonl"), "--facet", facet, "--model", kind,
            "--seed", "3", "--out", str(out), "--smote" if smote else "--no-smote"]
    assert main(args) == 0
    return load_model(out)


@pytest.mark.parametrize("smote", [True, False], ids=["smote", "no-smote"])
@pytest.mark.parametrize("kind", ["majority", "naive_bayes", "logistic_regression"])
def test_train_matches_the_materialized_path(imbalanced_bundle, tmp_path, capsys, kind, smote):
    # `train` fits one planned cell of all rows, with SMOTE's rows as
    # triples. The reference materializes those rows with resample.smote
    # and trains on them. Labels agree; naive Bayes sums the fractional
    # rows in another order, and LR is held to the dense Newton oracle.
    facet = "Anxiety"
    model = _train(imbalanced_bundle, tmp_path / "m.json", kind, facet, smote)
    records = load_corpus(imbalanced_bundle / "corpus.jsonl")
    scores = {r.author_id: score_inventory(r.inventory, default_scoring_key()) for r in records}
    corpus = assign_labels(build_documents(records, default_normalization_table()), scores)
    X, _, _ = features.realize_features(features.BowSpec(vocab_size=model.feature_ref["vocab_size"]), corpus)
    y = corpus.labels(facet)
    cfg = ResampleConfig(seed=derive_seed(3, STREAM_SMOTE, FACET_NAMES.index(facet))) if smote else None
    oracle, X_aug, y_aug = train_materialized(ModelSpec(kind=kind), X, y, cfg)
    assert (len(y_aug) > len(y)) == smote
    assert np.array_equal(predict(model, X)[0], predict(oracle, X)[0])
    if kind == "majority":
        assert model.params.label == (0 if smote else int(2 * y.sum() > len(y)))
    if kind == "naive_bayes":
        assert np.array_equal(model.params.log_priors, oracle.params.log_priors)
        assert np.allclose(model.params.log_likelihoods, oracle.params.log_likelihoods, rtol=1e-12, atol=0)
    if kind == "logistic_regression":
        p, hyper = model.params, model.params.hyper
        assert p.converged
        newton = logreg_newton_numpy(X_aug, y_aug, hyper.l2, hyper.max_epochs, hyper.tol)
        assert_near_newton_oracle(X_aug, y_aug, hyper.l2, p.weights, p.bias, p.loss_history, newton)


@pytest.mark.parametrize("kind", ["majority", "naive_bayes", "logistic_regression"])
def test_train_builds_no_smote_row_and_one_distance_matrix(imbalanced_bundle, tmp_path, monkeypatch, capsys, kind):
    # No model materializes SMOTE's rows. Every kind trains from the same
    # planned cell, so each builds one distance matrix, over the minority
    # rows.
    def no_rows(*args):
        raise AssertionError("train materialized SMOTE rows")

    monkeypatch.setattr(resample, "smote", no_rows)
    monkeypatch.setattr(kernels, "interpolate_rows", no_rows)
    built = []
    real = kernels.sq_distances
    monkeypatch.setattr(kernels, "sq_distances", lambda M: built.append(len(M)) or real(M))
    _train(imbalanced_bundle, tmp_path / "m.json", kind, "Anxiety", smote=True)
    assert len(built) == 1


def test_train_rejects_an_unknown_facet(bundle, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--corpus", str(bundle / "corpus.jsonl"),
            "--facet", "Wit",
            "--model", "majority",
            "--seed", "1",
            "--out", str(tmp_path / "m.json"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown facet" in err


def test_predict_needs_a_feature_reference(bundle, tmp_path, capsys):
    model = train(ModelSpec(kind="majority"), np.zeros((4, 2)), np.array([0, 0, 1, 1]))
    path = tmp_path / "bare.json"
    save_model(model, path)
    rc = main(["predict", "--model", str(path), "--corpus", str(bundle / "corpus.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "lacks a feature reference" in err


@pytest.mark.parametrize(
    "features, key", [("bow", "vocab"), ("embeddings", "path"), ("embeddings", "flavor")]
)
def test_predict_names_a_missing_feature_reference_field(bundle, tmp_path, capsys, features, key):
    model_path = tmp_path / "m.json"
    rc = main(
        [
            "train",
            "--corpus", str(bundle / "corpus.jsonl"),
            "--facet", "Anxiety",
            "--model", "majority",
            "--features", features,
            "--embeddings", str(bundle / "embeddings-skip.vec"),
            "--seed", "1",
            "--out", str(model_path),
        ]
    )
    assert rc == 0
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    del payload["feature_ref"][key]
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model_path), "--corpus", str(bundle / "corpus.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    where = f"{model_path}: model file's {features} feature reference"
    assert err.startswith(f"facetrec: ConfigError: {where} lacks '{key}'")


# Whole feature references that are sound but for the one field each case
# below changes.
_TABLE = {"rules": []}
_BOW_REF = {"kind": "bow", "vocab_size": 3000, "binary": False, "actual_size": 1,
            "vocab_sha256": Vocabulary(entries=(("a", 1),)).fingerprint(), "vocab": [["a", 1]], "normalization": _TABLE}
_EMBEDDINGS_REF = {"kind": "embeddings", "path": "v.vec", "flavor": "skip", "dim": 2, "file_sha256": "0" * 64,
                   "normalization": _TABLE}


@pytest.mark.parametrize(
    "ref, message",
    [
        (5, "model file's feature reference is not a mapping with 'kind': 5"),
        (dict(_BOW_REF, vocab=5),
         "model file's bow feature reference: vocabulary must be a list of [token, count] pairs, got 5"),
        (dict(_BOW_REF, vocab=[["a", "many"]]),
         "model file's bow feature reference: vocabulary entry ['a', 'many'] is not a [token, count] pair"),
        (dict(_EMBEDDINGS_REF, path=5), "model file's embeddings feature reference: path must be a string, got 5"),
        ({"kind": "sparse"}, "unknown feature kind 'sparse' in model file"),
        (dict(_BOW_REF, normalization=None), "model file's normalization table: the table must be a mapping, got None"),
        (dict(_BOW_REF, normalization={"rules": [{"pattern": "a*", "token": "x"}]}),
         "model file's normalization table: rule 0: pattern 'a*' can match the empty string"),
    ],
    ids=["not-a-mapping", "vocab-not-a-list", "count-not-a-number", "path-not-a-string", "unknown-kind",
         "no-table", "empty-matching-rule"],
)
def test_predict_rejects_a_malformed_feature_reference(bundle, tmp_path, capsys, ref, message):
    # A model file is outside input: a path of 5 must not open file
    # descriptor 5.
    model = train(ModelSpec(kind="majority"), np.zeros((4, 2)), np.array([0, 0, 1, 1]))
    path = tmp_path / "m.json"
    save_model(replace(model, feature_ref=ref), path)
    rc = main(["predict", "--model", str(path), "--corpus", str(bundle / "corpus.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == f"facetrec: ConfigError: {path}: {message}\n"


@pytest.fixture(scope="module")
def trained_models(bundle, tmp_path_factory):
    """Bag-of-words model files that `train` wrote on the bundle, by model kind."""
    out = tmp_path_factory.mktemp("trained")
    paths = {}
    for kind in ("naive_bayes", "logistic_regression"):
        paths[kind] = out / f"{kind}.json"
        assert main(["train", "--corpus", str(bundle / "corpus.jsonl"), "--facet", "Anxiety", "--model", kind,
                     "--seed", "3", "--out", str(paths[kind])]) == 0
    return paths


def _set(*path_and_value):
    # An edit of a model file's payload that sets the field at a key path.
    *path, value = path_and_value

    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value(payload[last]) if callable(value) else value

    return edit


# One field each, and the name the error gives it.
_TAMPERED = {
    "binary": ("naive_bayes", _set("feature_ref", "binary", "false"), "binary"),
    "bias-string": ("logistic_regression", _set("params", "bias", "0.5"), "bias"),
    "weight-nan": ("logistic_regression", _set("params", "weights", 0, float("nan")), "weights"),
    "bias-inf": ("logistic_regression", _set("params", "bias", float("inf")), "bias"),
    "priors-far": ("naive_bayes", _set("params", "log_priors", [-50.0, 0.0]), "log_priors"),
    "priors-zero": ("naive_bayes", _set("params", "log_priors", [0.0, 0.0]), "log_priors"),
    "converged-string": ("logistic_regression", _set("params", "converged", "false"), "converged"),
    "max-epochs-float": ("logistic_regression", _set("params", "hyper", "max_epochs", 3.7), "max_epochs"),
    "alpha-bool": ("naive_bayes", _set("params", "alpha", True), "alpha"),
    "loss-history-string": ("logistic_regression", _set("params", "loss_history", "123"), "loss_history"),
    "vocab-count-string": ("naive_bayes", _set("feature_ref", "vocab", 0, 1, "7"), "vocabulary"),
    "unknown-params-key": ("naive_bayes", _set("params", "learning_rate", 0.1), "learning_rate"),
    "vocab-reversed": ("naive_bayes", _set("feature_ref", "vocab", lambda v: v[::-1]), "vocab_sha256"),
}


@pytest.mark.parametrize("kind, edit, field", _TAMPERED.values(), ids=_TAMPERED)
def test_predict_rejects_each_tampered_model_field(bundle, trained_models, tmp_path, capsys, kind, edit, field):
    # Each edit once loaded with exit 0, and some moved predict's CSV. Now
    # each is a ConfigError that names the model file and the field.
    payload = json.loads(trained_models[kind].read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--corpus", str(bundle / "corpus.jsonl")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"facetrec: ConfigError: {path}: ")
    assert field in captured.err


@pytest.mark.parametrize("features", ["bow", "embeddings"])
@pytest.mark.parametrize("kind", ["naive_bayes", "logistic_regression"])
def test_a_loaded_model_saves_to_the_bytes_train_wrote(bundle, tmp_path, kind, features):
    # Model format version 3: load_model reads back every field save_model
    # writes, as it was written. Naive Bayes needs nonnegative features, so
    # the vectors are the bundle's absolute values.
    written, saved, vec = tmp_path / "written.json", tmp_path / "saved.json", tmp_path / "abs.vec"
    store = load_embeddings(bundle / "embeddings-skip.vec")
    write_embeddings(replace(store, vectors={t: np.abs(v) for t, v in store.vectors.items()}), vec)
    assert main(["train", "--corpus", str(bundle / "corpus.jsonl"), "--facet", "Anxiety", "--model", kind,
                 "--features", features, "--embeddings", str(vec), "--seed", "3", "--out", str(written)]) == 0
    save_model(load_model(written), saved)
    assert saved.read_bytes() == written.read_bytes()


@pytest.mark.parametrize("command", ["score", "train", "predict", "run"])
def test_an_output_that_cannot_be_written_is_a_config_error(bundle, tmp_path, monkeypatch, capsys, command):
    # score, train and predict write into a directory that does not exist;
    # run's output directory is an existing file, which run makes before it
    # reads the corpus.
    corpus = ["--corpus", str(bundle / "corpus.jsonl")]
    model = tmp_path / "m.json"
    train_args = ["train", *corpus, "--facet", "Anxiety", "--model", "majority", "--seed", "1"]
    assert main([*train_args, "--out", str(model)]) == 0
    if command == "run":
        def no_corpus(path):
            raise AssertionError("the corpus was read before the output directory was made")

        monkeypatch.setattr(cli, "load_corpus", no_corpus)
    missing = tmp_path / "missing" / "out"
    blocked = tmp_path / "a-file"
    blocked.write_text("", encoding="utf-8")
    argv = {
        "score": ["score", *corpus, "--out", str(missing)],
        "train": [*train_args, "--out", str(missing)],
        "predict": ["predict", *corpus, "--model", str(model), "--out", str(missing)],
        "run": ["run", "--config", str(bundle / "config.yaml"), "--folds", "3", "--out", str(blocked)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("facetrec: ConfigError: cannot write output: ")
    assert str(blocked if command == "run" else missing) in err and "Traceback" not in err


def test_bad_flag_choices_exit_2(run_dir):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--csv", str(run_dir / "report.csv"), "--format", "xml"])
    assert exc.value.code == 2


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_help(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "facetrec", "--help"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0
    for word in ("facetrec", "synth", "run", "train", "predict"):
        assert word in proc.stdout


def test_cli_import_loads_only_numpy_and_pyyaml(bundle, tmp_path, child_env):
    # Feature matrices are dense numpy arrays, so the CLI needs no other
    # installed package; each one it imported would add its start-up time
    # and memory to every command. A whole run imports no more: `numpy.ma`,
    # which np.unique pulls in on numpy 2, would add about 1 MiB to its
    # peak RSS (numpy 1 imports it with numpy itself). A run is one
    # process, so neither `multiprocessing` nor `concurrent.futures` loads.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import facetrec.cli\n"
        "assert facetrec.cli.main(['run', '--config', sys.argv[1], '--out', 'out']) == 0\n"
        "files = {m: getattr(sys.modules[m], '__file__', None) or '' for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted({m.split('.')[0] for m, f in files.items() if 'packages' in f})))\n"
        "import numpy\n"
        "print(json.dumps('numpy.ma' in sys.modules and not numpy.__version__.startswith('1.')))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(bundle / "config.yaml")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    packages, masked, pool = map(json.loads, proc.stdout.splitlines()[-3:])
    assert set(packages) <= {"facetrec", "numpy", "yaml"} and not masked and pool == []
