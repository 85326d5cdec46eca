"""End-to-end exercises of the command line through cli.main."""

from __future__ import annotations

import csv
import json
import logging
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from facetrec import features
from facetrec.cli import build_parser, main, parse_experiment_config
from facetrec.corpus import assign_labels, build_documents, default_normalization_table, load_corpus
from facetrec.eval import make_folds
from facetrec.features import load_embeddings, write_embeddings
from facetrec.inventory import FACET_NAMES, default_scoring_key, score_inventory
from facetrec.models import ModelSpec, save_model, train
from facetrec.resample import ResampleConfig, resampled_labels


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
    # and fold plan alone.
    config = yaml.safe_load((source / "config.yaml").read_text(encoding="utf-8"))
    records = load_corpus(source / "corpus.jsonl")
    scores = {r.author_id: score_inventory(r.inventory, default_scoring_key()) for r in records}
    corpus = assign_labels(build_documents(records, default_normalization_table()), scores)
    labels = {f: corpus.labels(f) for f in corpus.active_facets}
    plan = make_folds(labels, n_folds=config["folds"], seed=config["seed"])
    cfg = ResampleConfig(k_neighbors=config["smote"]["k_neighbors"], target_ratio=config["smote"]["target_ratio"])
    return sum(len(resampled_labels(y[plan.assignment[f] != k], cfg)) - int(np.sum(plan.assignment[f] != k))
               for f, y in labels.items() for k in range(plan.n_folds))


def test_verbose_run_logs_lr_convergence_without_touching_artifacts(bundle, tmp_path, caplog, capsys):
    # Each naive Bayes or LR system sums up SMOTE's rows in one info line,
    # and each LR system its cells' descent in another; -v shows them, and
    # report.csv and manifest.yaml do not change. The module's bundle has
    # balanced folds; on the second input, at 20% positives, SMOTE draws.
    imbalanced = tmp_path / "imbalanced"
    synth = ["synth", "--out", str(imbalanced), "--seed", "99", "--authors", "40", "--tokens", "40"]
    assert main([*synth, "--pos-rate", "0.2"]) == 0
    caplog.set_level(logging.INFO, logger="facetrec")
    for source in (bundle, imbalanced):
        args = ["run", "--config", str(source / "config.yaml"), "--out", str(tmp_path / "out")]
        assert main(args) == 0
        quiet = {name: (tmp_path / "out" / name).read_bytes() for name in ("report.csv", "manifest.yaml")}
        caplog.clear()
        assert main(["-v", *args]) == 0
        lines = [r.getMessage() for r in caplog.records if "LR converged" in r.getMessage()]
        assert [line.split(":")[0] for line in lines] == ["skip-lr", "cbow-lr"]
        for line in lines:
            converged, cells, low, high = map(int, re.fullmatch(
                r"[\w-]+: LR converged in (\d+)/(\d+) cells \(epochs (\d+)-(\d+)\)", line).groups())
            assert cells == 100 and converged <= cells and 0 <= low <= high <= 500
        lines = [r.getMessage() for r in caplog.records if "SMOTE added" in r.getMessage()]
        rows = _smote_rows(source)
        assert lines == [f"{name}: SMOTE added {rows} rows to 100 cells" for name in ("bow-nb", "skip-lr", "cbow-lr")]
        assert (rows > 0) == (source == imbalanced)
        for name, data in quiet.items():
            assert (tmp_path / "out" / name).read_bytes() == data


def _digest(out: Path) -> str:
    return yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))["config_digest"]


def test_config_digest_ignores_cwd_out_and_jobs(bundle, tmp_path, monkeypatch, capsys):
    # The first run reaches every file by a path relative to the bundle; the
    # others by absolute paths, the last in two worker processes.
    runs = [(bundle, "config.yaml", "1"), (tmp_path, str(bundle / "config.yaml"), "1")]
    runs.append((tmp_path, str(bundle / "config.yaml"), "2"))
    digests = []
    for i, (cwd, config, jobs) in enumerate(runs):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"run{i}"
        assert main(["run", "--config", config, "--folds", "3", "--jobs", jobs, "--out", str(out)]) == 0
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
    # read would be ignored without a word. 2 is a valid value for each
    # numeric flag and differs from every default; flag paths stay as given.
    system = {"model": "majority", "features": {"kind": "bow"}}
    data = {"corpus": "c.jsonl", "seed": 7, "out": "results", "systems": [system]}
    base = parse_experiment_config(data, tmp_path)
    args = vars(build_parser().parse_args(["run", "--config", "c.yaml"]))
    flags = set(args) - {"command", "config", "func", "verbose"}
    assert flags
    for dest in flags:
        assert parse_experiment_config(data, tmp_path, {dest: 2}) != base, dest


def test_readme_configuration_block_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    cfg = parse_experiment_config(yaml.safe_load(block), tmp_path)
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
        ("model", "learning_rate", "fast", "learning_rate must be a number, got 'fast'"),
        ("model", "l2", "fast", "l2 must be a number, got 'fast'"),
        ("model", "tol", "fast", "tol must be a number, got 'fast'"),
        ("model", "alpha", "fast", "alpha must be a number, got 'fast'"),
        ("smote", "target_ratio", "fast", "smote.target_ratio must be a number, got 'fast'"),
        ("features", "binary", "false", "binary must be true or false, got 'false'"),
    ],
    ids=["learning_rate", "l2", "tol", "alpha", "smote.target_ratio", "binary"],
)
def test_config_values_of_the_wrong_type_name_their_key(bundle, tmp_path, capsys, section, key, value, message):
    data = yaml.safe_load((bundle / "config.yaml").read_text(encoding="utf-8"))
    system = {"name": "s", "model": {"kind": "logistic_regression"}, "features": {"kind": "bow"}}
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
    assert err.startswith(f"facetrec: ConfigError: model file's {features} feature reference lacks '{key}'")


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
    # peak RSS (numpy 1 imports it with numpy itself).
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import facetrec.cli\n"
        "assert facetrec.cli.main(['run', '--config', sys.argv[1], '--out', 'out']) == 0\n"
        "files = {m: getattr(sys.modules[m], '__file__', None) or '' for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted({m.split('.')[0] for m, f in files.items() if 'packages' in f})))\n"
        "import numpy\n"
        "print(json.dumps('numpy.ma' in sys.modules and not numpy.__version__.startswith('1.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(bundle / "config.yaml")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    packages, masked = map(json.loads, proc.stdout.splitlines()[-2:])
    assert set(packages) <= {"facetrec", "numpy", "yaml"} and not masked
