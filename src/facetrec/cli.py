"""Command-line workbench: validate, score, synth, run, report, train, predict.

Experiment runs are driven by one YAML config (documented in the README)
plus optional flag overrides; flags win. All randomness flows from the
single config seed through named substreams, and identical config plus seed
reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from .corpus import (
    assign_labels,
    build_documents,
    default_normalization_table,
    load_corpus,
    load_normalization_table,
)
from .errors import ConfigError, FacetrecError, ValidationError
from .eval import (
    EvaluationReport,
    SystemResult,
    make_folds,
    parse_report_csv,
    render_report,
    run_experiment,
)
from .features import (
    DEFAULT_VOCAB_SIZE,
    BowSpec,
    EmbeddingSpec,
    Vocabulary,
    bow_matrix,
    embedding_matrix,
    load_embeddings,
    realize_features,
)
from .inventory import FACET_NAMES, default_scoring_key, load_scoring_key, score_inventory
from .models import (
    LRHyperparams,
    ModelSpec,
    load_model,
    predict,
    save_model,
    train,
)
from .resample import ResampleConfig, smote
from .seeding import STREAM_SMOTE, check_seed, derive_seed
from .synth import SynthSpec, write_bundle

log = logging.getLogger(__name__)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

_CONFIG_KEYS = {
    "corpus",
    "scoring_key",
    "normalization",
    "seed",
    "folds",
    "jobs",
    "out",
    "smote",
    "systems",
}
_PATH_KEYS = {"corpus", "scoring_key", "normalization", "out"}


@dataclass(frozen=True)
class SystemConfig:
    name: str
    feature_spec: object  # BowSpec | EmbeddingSpec
    model_spec: ModelSpec


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str
    scoring_key: str | None
    normalization: str | None
    seed: int
    folds: int
    jobs: int
    smote_k: int
    smote_ratio: float
    out: str
    systems: tuple[SystemConfig, ...]


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _require_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _parse_model(raw) -> ModelSpec:
    if isinstance(raw, str):
        return ModelSpec(kind=raw)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"model must be a kind name or a mapping with 'kind', got {raw!r}")
    kind = raw["kind"]
    alpha = _require_number(raw.get("alpha", 1.0), "alpha")
    default = LRHyperparams()
    lr = LRHyperparams(
        learning_rate=_require_number(raw.get("learning_rate", default.learning_rate), "learning_rate"),
        l2=_require_number(raw.get("l2", default.l2), "l2"),
        max_epochs=_require_int(raw.get("max_epochs", default.max_epochs), "max_epochs"),
        tol=_require_number(raw.get("tol", default.tol), "tol"),
    )
    unknown = set(raw) - {"kind", "alpha", "learning_rate", "l2", "max_epochs", "tol"}
    if unknown:
        raise ConfigError(f"unknown model options: {', '.join(sorted(unknown))}")
    return ModelSpec(kind=kind, alpha=alpha, lr=lr)


def _parse_features(raw, base_dir: Path):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"features must be a mapping with 'kind', got {raw!r}")
    kind = raw["kind"]
    if kind == "bow":
        unknown = set(raw) - {"kind", "vocab_size", "binary"}
        if unknown:
            raise ConfigError(f"unknown bow options: {', '.join(sorted(unknown))}")
        binary = raw.get("binary", False)
        if not isinstance(binary, bool):
            raise ConfigError(f"binary must be true or false, got {binary!r}")
        return BowSpec(
            vocab_size=_require_int(raw.get("vocab_size", DEFAULT_VOCAB_SIZE), "vocab_size"),
            binary=binary,
        )
    if kind == "embeddings":
        unknown = set(raw) - {"kind", "path", "flavor"}
        if unknown:
            raise ConfigError(f"unknown embeddings options: {', '.join(sorted(unknown))}")
        if "path" not in raw:
            raise ConfigError("embeddings features need a 'path'")
        return EmbeddingSpec(
            path=str(base_dir / str(raw["path"])),
            flavor=str(raw.get("flavor", "skip")),
        )
    raise ConfigError(f"feature kind must be 'bow' or 'embeddings', got {kind!r}")


def parse_experiment_config(data: dict, base_dir: Path, flags: dict | None = None) -> ExperimentConfig:
    """Lay flag values over a config mapping (flags win) and check the result.

    Paths in the mapping resolve relative to ``base_dir``, the config
    file's directory; flag paths stay as given. Flags whose value is None
    were not set. ``smote_k`` and ``smote_ratio`` override the ``smote``
    mapping's ``k_neighbors`` and ``target_ratio``.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {
        k: str(base_dir / str(v)) if k in _PATH_KEYS else v
        for k, v in data.items()
        if v is not None
    }
    cfg.update((k, v) for k, v in (flags or {}).items() if v is not None)

    if "corpus" not in cfg:
        raise ConfigError("a corpus path is required (config 'corpus' or --corpus)")
    if "seed" not in cfg:
        raise ConfigError("a seed is required (config 'seed' or --seed); there is no default")
    check_seed(cfg["seed"])
    if "out" not in cfg:
        raise ConfigError("an output directory is required (config 'out' or --out)")

    smote_raw = cfg.get("smote") or {}
    if not isinstance(smote_raw, dict):
        raise ConfigError("smote config must be a mapping")
    unknown = set(smote_raw) - {"k_neighbors", "target_ratio"}
    if unknown:
        raise ConfigError(f"unknown smote options: {', '.join(sorted(unknown))}")

    raw_systems = cfg.get("systems")
    if not isinstance(raw_systems, list) or not raw_systems:
        raise ConfigError("systems must be a non-empty list")
    systems = []
    names = set()
    for i, raw in enumerate(raw_systems):
        if not isinstance(raw, dict):
            raise ConfigError(f"system {i}: expected a mapping")
        unknown = set(raw) - {"name", "model", "features"}
        if unknown:
            raise ConfigError(f"system {i}: unknown keys: {', '.join(sorted(unknown))}")
        if "model" not in raw or "features" not in raw:
            raise ConfigError(f"system {i}: needs 'model' and 'features'")
        model_spec = _parse_model(raw["model"])
        name = str(raw.get("name") or model_spec.kind)
        if not _NAME_RE.match(name):
            raise ConfigError(f"system {i}: invalid name {name!r}")
        if name in names:
            raise ConfigError(f"system {i}: duplicate name {name!r}")
        names.add(name)
        feature_spec = _parse_features(raw["features"], base_dir)
        systems.append(SystemConfig(name=name, feature_spec=feature_spec, model_spec=model_spec))

    return ExperimentConfig(
        corpus=cfg["corpus"],
        scoring_key=cfg.get("scoring_key"),
        normalization=cfg.get("normalization"),
        seed=cfg["seed"],
        folds=_require_int(cfg.get("folds", 10), "folds"),
        jobs=_require_int(cfg.get("jobs", 1), "jobs"),
        smote_k=_require_int(cfg.get("smote_k", smote_raw.get("k_neighbors", 5)), "smote_k"),
        smote_ratio=_require_number(
            cfg.get("smote_ratio", smote_raw.get("target_ratio", 1.0)), "smote.target_ratio"
        ),
        out=cfg["out"],
        systems=tuple(systems),
    )


def _load_key(path: str | None):
    return load_scoring_key(path) if path else default_scoring_key()


def _load_table(path: str | None):
    return load_normalization_table(path) if path else default_normalization_table()


def _labeled_corpus(corpus_path: str, key, table):
    records = load_corpus(corpus_path)
    scores = {}
    for rec in records:
        try:
            scores[rec.author_id] = score_inventory(rec.inventory, key)
        except ValidationError as e:
            raise ValidationError(f"author {rec.author_id}: {e}") from e
    docs = build_documents(records, table)
    return records, assign_labels(docs, scores)


def _model_desc(spec: ModelSpec) -> dict:
    desc = {"kind": spec.kind}
    if spec.kind == "naive_bayes":
        desc["alpha"] = spec.alpha
    elif spec.kind == "logistic_regression":
        desc.update(asdict(spec.lr))
    return desc


def _file_sha256(path: str | None) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if path else "builtin-default"


def _config_digest(cfg: ExperimentConfig, systems: list[dict]) -> str:
    """sha256 over what determines a run's results.

    Files enter by content, so the working directory and the paths used to
    reach them do not matter, and neither do ``out`` and ``jobs``.
    """
    determinants = {
        "corpus": _file_sha256(cfg.corpus),
        "scoring_key": _file_sha256(cfg.scoring_key),
        "normalization": _file_sha256(cfg.normalization),
        "seed": cfg.seed,
        "folds": cfg.folds,
        "smote": {"k_neighbors": cfg.smote_k, "target_ratio": cfg.smote_ratio},
        "systems": [
            dict(s, features={k: v for k, v in s["features"].items() if k != "path"})
            for s in systems
        ],
    }
    return hashlib.sha256(json.dumps(determinants, sort_keys=True).encode("utf-8")).hexdigest()


def cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        with open(config_path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{config_path}: invalid YAML: {e}") from e
    cfg = parse_experiment_config(data or {}, config_path.parent, vars(args))

    key = _load_key(cfg.scoring_key)
    table = _load_table(cfg.normalization)
    records, corpus = _labeled_corpus(cfg.corpus, key, table)
    plan = make_folds(
        {facet: corpus.labels(facet) for facet in corpus.active_facets},
        n_folds=cfg.folds,
        seed=cfg.seed,
    )
    rcfg = ResampleConfig(k_neighbors=cfg.smote_k, target_ratio=cfg.smote_ratio, seed=cfg.seed)

    spaces = {}  # feature spec -> (X, ref), realized when a system first needs it
    results = []
    systems = []
    for system in cfg.systems:
        log.info("evaluating system %s", system.name)
        if system.feature_spec not in spaces:
            spaces[system.feature_spec] = realize_features(system.feature_spec, corpus)[:2]
        X, ref = spaces[system.feature_spec]
        fold_f1 = run_experiment(corpus, X, system.model_spec, rcfg, plan, cfg.jobs, system.name)
        results.append(SystemResult(name=system.name, fold_f1=fold_f1))
        # Each entry gets its own mapping: a shared one would be written as
        # a YAML anchor and alias.
        systems.append(
            {"name": system.name, "model": _model_desc(system.model_spec), "features": dict(ref)}
        )
    report = EvaluationReport(
        facets=corpus.active_facets, n_folds=plan.n_folds, systems=tuple(results)
    )

    config_section = {
        "corpus": cfg.corpus,
        "scoring_key": cfg.scoring_key or "builtin-default",
        "normalization": cfg.normalization or "builtin-default",
        "seed": cfg.seed,
        "folds": cfg.folds,
        "jobs": cfg.jobs,
        "smote": {"k_neighbors": cfg.smote_k, "target_ratio": cfg.smote_ratio},
        "out": cfg.out,
    }
    digest = _config_digest(cfg, systems)

    wins = report.wins()
    manifest = {
        "config": config_section,
        "config_digest": digest,
        "corpus": {
            "authors": len(records),
            "documents": len(corpus.documents),
            "degenerate_facets": list(corpus.degenerate),
            "label_thresholds": {k: float(v) for k, v in corpus.label_thresholds.items()},
        },
        "systems": systems,
        "results": {
            "overall": {s.name: report.overall(s) for s in report.systems},
            "wins": {name: int(n) for name, n in wins.items()},
        },
    }

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = render_report(report, "text")
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.csv").write_text(render_report(report, "csv"), encoding="utf-8")
    with open(out_dir / "manifest.yaml", "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)

    sys.stdout.write(text)
    print(f"wrote {out_dir / 'report.txt'}")
    print(f"wrote {out_dir / 'report.csv'}")
    print(f"wrote {out_dir / 'manifest.yaml'}")
    return 0


def _write_csv(rows: list[list], out: str | None) -> None:
    """Write rows as CSV to the file ``out``, or to stdout when it is None."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    if out:
        Path(out).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(buf.getvalue())


def cmd_validate(args) -> int:
    key = _load_key(args.key)
    table = _load_table(args.normalization)
    records, corpus = _labeled_corpus(args.corpus, key, table)
    n_posts = sum(len(rec.posts) for rec in records)
    print(f"authors: {len(records)}")
    print(f"posts: {n_posts}")
    excluded = len(records) - len(corpus.documents)
    print(f"documents: {len(corpus.documents)} ({excluded} authors excluded)")
    for facet in FACET_NAMES:
        positives = int(sum(doc.labels[facet] for doc in corpus.documents))
        share = positives / len(corpus.documents)
        marker = "  [degenerate]" if facet in corpus.degenerate else ""
        print(
            f"facet {facet}: threshold {corpus.label_thresholds[facet]:.4f}, "
            f"positives {positives}/{len(corpus.documents)} ({share:.1%}){marker}"
        )
    if corpus.degenerate:
        print("degenerate facets: " + ", ".join(corpus.degenerate))
    print("ok")
    return 0


def cmd_score(args) -> int:
    key = _load_key(args.key)
    records = load_corpus(args.corpus)
    domains = list(key.domains)
    rows = [["author_id", *domains, *FACET_NAMES]]
    for rec in records:
        try:
            sc = score_inventory(rec.inventory, key)
        except ValidationError as e:
            raise ValidationError(f"author {rec.author_id}: {e}") from e
        cells = [repr(sc.domains[d]) for d in domains]
        cells += [repr(sc.facets[f]) for f in FACET_NAMES]
        rows.append([rec.author_id, *cells])
    _write_csv(rows, args.out)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        seed=args.seed,
        authors=args.authors,
        signal=args.signal,
        pos_rate=args.pos_rate,
        dim=args.dim,
        tokens_per_author=args.tokens,
    )
    paths = write_bundle(args.out, spec)
    for name in ("corpus", "skip", "cbow", "config"):
        print(f"wrote {paths[name]}")
    return 0


def cmd_report(args) -> int:
    try:
        text = Path(args.csv).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read report CSV: {e}") from e
    report = parse_report_csv(text)
    sys.stdout.write(render_report(report, args.format))
    return 0


def cmd_train(args) -> int:
    if args.facet not in FACET_NAMES:
        raise ConfigError(f"unknown facet {args.facet!r}; expected one of {', '.join(FACET_NAMES)}")
    check_seed(args.seed)
    key = _load_key(args.key)
    table = _load_table(args.normalization)
    _, corpus = _labeled_corpus(args.corpus, key, table)
    if args.facet in corpus.degenerate:
        raise ValidationError(f"facet {args.facet} is degenerate in this corpus")

    if args.features == "bow":
        features = {"kind": "bow", "vocab_size": args.vocab_size}
    else:
        if not args.embeddings:
            raise ConfigError("--embeddings is required with --features embeddings")
        path = str(Path(args.embeddings).resolve())
        features = {"kind": "embeddings", "path": path, "flavor": args.flavor}
    feature_spec = _parse_features(features, Path("."))
    hyper = ("alpha", "learning_rate", "l2", "max_epochs", "tol")
    model_spec = _parse_model({"kind": args.model, **{k: getattr(args, k) for k in hyper}})

    X, ref, space = realize_features(feature_spec, corpus)
    if isinstance(feature_spec, BowSpec):
        ref = {**ref, "vocab": [[t, f] for t, f in space.entries]}
    ref["facet"] = args.facet
    y = corpus.labels(args.facet)
    try:
        if args.smote:
            rcfg = ResampleConfig(
                k_neighbors=args.smote_k,
                target_ratio=args.smote_ratio,
                seed=derive_seed(args.seed, STREAM_SMOTE, FACET_NAMES.index(args.facet)),
            )
            X, y = smote(X, y, rcfg)
        model = train(model_spec, X, y)
    except FacetrecError as e:
        raise type(e)(f"facet {args.facet}: {e}") from e
    model = replace(model, feature_ref=ref)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ref = model.feature_ref
    if not ref or "kind" not in ref:
        raise ConfigError("model file lacks a feature reference; cannot vectorize input")
    table = _load_table(args.normalization)
    records = load_corpus(args.corpus)
    docs = build_documents(records, table)
    token_seqs = [tokens for _, tokens in docs]

    def ref_field(key):
        if key not in ref:
            raise ConfigError(f"model file's {ref['kind']} feature reference lacks {key!r}")
        return ref[key]

    if ref["kind"] == "bow":
        vocab = Vocabulary(entries=tuple((str(t), int(f)) for t, f in ref_field("vocab")))
        X = bow_matrix(token_seqs, vocab, binary=bool(ref.get("binary", False)))
    elif ref["kind"] == "embeddings":
        store = load_embeddings(ref_field("path"), ref_field("flavor"))
        if store.fingerprint != ref.get("file_sha256"):
            raise ConfigError(
                f"embedding file {ref['path']} changed since training "
                f"(checksum mismatch)"
            )
        X = embedding_matrix(token_seqs, store)
    else:
        raise ConfigError(f"unknown feature kind {ref['kind']!r} in model file")

    labels, scores = predict(model, X)
    rows = [["author_id", ref.get("facet", "label"), "score"]]
    for (aid, _), lab, sc in zip(docs, labels, scores):
        rows.append([aid, int(lab), repr(float(sc))])
    _write_csv(rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetrec",
        description="Personality-facet recognition workbench: score inventories, "
        "label corpora, train classifiers and report cross-validated F1.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="-v for info, -vv for debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus and report label statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--key", help="scoring key file (default: builtin)")
    p.add_argument("--normalization", help="substitution table file (default: builtin)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="write per-author domain and facet scores as CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--key", help="scoring key file (default: builtin)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a synthetic corpus, embeddings and config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--authors", type=int, default=500)
    p.add_argument("--signal", type=float, default=0.5, help="planted signal rate in [0, 1)")
    p.add_argument("--pos-rate", type=float, default=0.5, dest="pos_rate")
    p.add_argument("--dim", type=int, default=50, help="embedding dimension")
    p.add_argument("--tokens", type=int, default=80, help="tokens per author")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run the configured experiment and write reports")
    p.add_argument("--config", required=True, help="experiment config YAML")
    p.add_argument("--corpus")
    p.add_argument("--key", dest="scoring_key")
    p.add_argument("--normalization")
    p.add_argument("--seed", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--smote-k", type=int, dest="smote_k")
    p.add_argument("--smote-ratio", type=float, dest="smote_ratio")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-render a report.csv")
    p.add_argument("--csv", required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("train", help="train one model for one facet on a whole corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--key")
    p.add_argument("--normalization")
    p.add_argument("--facet", required=True)
    p.add_argument(
        "--model",
        required=True,
        choices=["majority", "naive_bayes", "logistic_regression"],
    )
    p.add_argument("--features", choices=["bow", "embeddings"], default="bow")
    p.add_argument("--vocab-size", type=int, default=DEFAULT_VOCAB_SIZE, dest="vocab_size")
    p.add_argument("--embeddings")
    p.add_argument("--flavor", choices=["skip", "cbow"], default="skip")
    p.add_argument("--alpha", type=float, default=1.0)
    lr = LRHyperparams()
    p.add_argument("--learning-rate", type=float, default=lr.learning_rate, dest="learning_rate")
    p.add_argument("--l2", type=float, default=lr.l2)
    p.add_argument("--max-epochs", type=int, default=lr.max_epochs, dest="max_epochs")
    p.add_argument("--tol", type=float, default=lr.tol)
    p.add_argument("--smote", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--smote-k", type=int, default=5, dest="smote_k")
    p.add_argument("--smote-ratio", type=float, default=1.0, dest="smote_ratio")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--normalization")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="facetrec: %(levelname)s: %(message)s")
    try:
        return args.func(args)
    except FacetrecError as e:
        print(f"facetrec: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
