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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import blas, yamlio
from .corpus import (
    assign_labels,
    build_documents,
    default_normalization_table,
    load_corpus,
    load_normalization_table,
)
from .errors import ConfigError, FacetrecError, ValidationError, config_fields, read_config
from .eval import (
    DEFAULT_FOLDS,
    EvaluationReport,
    SystemResult,
    make_folds,
    parse_report_csv,
    plan_cells,
    render_report,
    run_experiment,
)
from .features import EMBEDDING_FLAVORS, FEATURE_SPECS, BowSpec, EmbeddingSpec, featurize, model_ref, realize_features
from .inventory import FACET_NAMES, default_scoring_key, load_scoring_key, score_inventories
from .models import (
    MODEL_KINDS,
    LRHyperparams,
    ModelSpec,
    fit_cells,
    load_model,
    predict,
    save_model,
)
from .resample import ResampleConfig, plan_cell, smote_neighbours
from .seeding import STREAM_SMOTE, check_seed, derive_seed

log = logging.getLogger(__name__)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

_FILE_KEYS = {"corpus", "scoring_key", "normalization"}  # files that determine the results
_PATH_KEYS = _FILE_KEYS | {"out"}


@dataclass(frozen=True)
class SystemConfig:
    name: str
    feature_spec: object  # BowSpec | EmbeddingSpec
    model_spec: ModelSpec


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str
    seed: int
    smote: ResampleConfig  # seeded with the run's seed
    out: str
    systems: tuple[SystemConfig, ...]
    scoring_key: str | None = None
    normalization: str | None = None
    folds: int = DEFAULT_FOLDS

    def __post_init__(self):
        if type(self.folds) is not int or self.folds < 2:
            raise ConfigError(f"folds must be an integer of at least 2, got {self.folds!r}")


def _parse_model(raw) -> ModelSpec:
    if isinstance(raw, str):
        return ModelSpec(kind=raw)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"model must be a kind name or a mapping with 'kind', got {raw!r}")
    spec = ModelSpec(kind=raw["kind"])
    options = {k: v for k, v in raw.items() if k != "kind"}
    return spec.with_options(**read_config(options, spec.options(), "model options", spec.kind))


def _parse_features(raw, base_dir: Path):
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in FEATURE_SPECS:
        raise ConfigError(f"features must be a mapping whose 'kind' is 'bow' or 'embeddings', got {raw!r}")
    cls = FEATURE_SPECS[kind]
    options = {k: v for k, v in raw.items() if k != "kind"}
    spec = cls(**read_config(options, config_fields(cls), f"{kind} options", kind))
    return replace(spec, path=str(base_dir / spec.path)) if kind == "embeddings" else spec


def _parse_system(raw, base_dir: Path, names) -> SystemConfig:
    raw = read_config(raw, {"name": None, "model": MISSING, "features": MISSING}, "system keys", "a system")
    model_spec = _parse_model(raw["model"])
    name = str(raw.get("name") or model_spec.kind)
    if not _NAME_RE.fullmatch(name):
        raise ConfigError(f"invalid name {name!r}")
    if name in names:
        raise ConfigError(f"duplicate name {name!r}")
    return SystemConfig(name=name, feature_spec=_parse_features(raw["features"], base_dir), model_spec=model_spec)


def parse_experiment_config(data: dict, path: Path, flags: dict | None = None) -> ExperimentConfig:
    """Lay flag values over a config mapping, read from the file ``path``
    (flags win), and check the result.

    Paths in the mapping resolve relative to the config file's directory;
    flag paths stay as given. Flags whose value is None were not set.
    ``smote_k`` and ``smote_ratio`` override the ``smote`` mapping's
    ``k_neighbors`` and ``target_ratio``. Each section's keys and defaults
    are its dataclass's fields (``ExperimentConfig``'s, plus the legacy
    ``jobs``, at the top), and every value is checked here, by the type
    that holds it, so that a bad one fails before a run reads its corpus.
    An error inside a system names the file and the system's index.
    """
    # Every key may be left out here: a flag may set it.
    data = read_config(data, dict.fromkeys([*config_fields(ExperimentConfig), "jobs"]), "config keys", "a config")
    base_dir = Path(path).parent
    cfg = {k: str(base_dir / str(v)) if k in _PATH_KEYS else v for k, v in data.items() if v is not None}
    cfg.update((k, v) for k, v in (flags or {}).items() if v is not None)

    if "corpus" not in cfg:
        raise ConfigError("a corpus path is required (config 'corpus' or --corpus)")
    if "seed" not in cfg:
        raise ConfigError("a seed is required (config 'seed' or --seed); there is no default")
    check_seed(cfg["seed"])
    if "out" not in cfg:
        raise ConfigError("an output directory is required (config 'out' or --out)")
    # Runs are single-process. Older configs set the worker count of a
    # process pool, so "jobs: 1" is still accepted.
    jobs = cfg.get("jobs", 1)
    if type(jobs) is not int or jobs != 1:
        raise ConfigError(f"jobs must be 1 if set, got {jobs!r}: runs are single-process")

    section = cfg.get("smote") or {}
    flagged = {"k_neighbors": cfg.get("smote_k"), "target_ratio": cfg.get("smote_ratio")}
    if isinstance(section, dict):  # else read_config rejects it
        section = {**section, **{k: v for k, v in flagged.items() if v is not None}}
    # the seed is the run's, not a key of the section
    options = read_config(section, config_fields(ResampleConfig, "seed"), "smote options", "smote", "smote.")
    smote = ResampleConfig(**options, seed=cfg["seed"])

    raw_systems = cfg.get("systems")
    if not isinstance(raw_systems, list) or not raw_systems:
        raise ConfigError("systems must be a non-empty list")
    systems = []
    for i, raw in enumerate(raw_systems):
        try:
            systems.append(_parse_system(raw, base_dir, {system.name for system in systems}))
        except ConfigError as e:
            raise ConfigError(f"{path}: system {i}: {e}") from e

    return ExperimentConfig(**{
        **{f.name: cfg[f.name] for f in fields(ExperimentConfig) if f.name in cfg},
        "smote": smote,
        "systems": tuple(systems),
    })


def _load_key(path: str | None):
    return load_scoring_key(path) if path else default_scoring_key()


def _load_table(path: str | None):
    return load_normalization_table(path) if path else default_normalization_table()


def _labeled_corpus(corpus_path: str, key, table):
    """(authors, posts, labeled corpus) of a corpus file; the records
    themselves are not kept."""
    records = load_corpus(corpus_path)
    authors = [rec.author_id for rec in records]
    scores = dict(zip(authors, score_inventories([rec.inventory for rec in records], key, authors)))
    docs = build_documents(records, table)
    return len(records), sum(len(rec.posts) for rec in records), assign_labels(docs, scores)


def _file_sha256(path: str | None) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if path else "builtin-default"


def _config_digest(config: dict, systems: list[dict]) -> str:
    """sha256 over what determines a run's results: the settings ``config``
    (the manifest's config section, with None for a built-in file) and the
    systems.

    Files enter by content, so the working directory and the paths used to
    reach them do not matter, and neither does ``out``.
    """
    determinants = {k: _file_sha256(v) if k in _FILE_KEYS else v for k, v in config.items() if k != "out"}
    determinants["systems"] = [
        dict(s, features={k: v for k, v in s["features"].items() if k != "path"}) for s in systems
    ]
    return hashlib.sha256(json.dumps(determinants, sort_keys=True).encode("utf-8")).hexdigest()


def cmd_run(args) -> int:
    config_path = Path(args.config)
    data = yamlio.load_file(config_path, "config")
    cfg = parse_experiment_config(data or {}, config_path, vars(args))
    # Made first, so that an output that cannot be written costs no work.
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    key = _load_key(cfg.scoring_key)
    table = _load_table(cfg.normalization)
    n_authors, _, corpus = _labeled_corpus(cfg.corpus, key, table)
    plan = make_folds(
        {facet: corpus.labels(facet) for facet in corpus.active_facets},
        n_folds=cfg.folds,
        seed=cfg.seed,
    )

    # feature spec -> (X, ref, cells), realized and planned when a system
    # first needs it and dropped after the last system that uses it
    spaces = {}
    last = {system.feature_spec: i for i, system in enumerate(cfg.systems)}
    results = []
    systems = []
    for i, system in enumerate(cfg.systems):
        log.info("evaluating system %s", system.name)
        spec = system.feature_spec
        if spec not in spaces:
            X, ref = realize_features(spec, corpus)[:2]
            spaces[spec] = X, ref, plan_cells(corpus, X, cfg.smote, plan)
        X, ref, cells = spaces.pop(spec) if last[spec] == i else spaces[spec]
        fold_f1 = run_experiment(X, system.model_spec, cells, system.name)
        del X, cells  # so that a dropped space is freed before the next is realized
        results.append(SystemResult(name=system.name, fold_f1=fold_f1))
        # Each entry gets its own mapping: a shared one would be written as
        # a YAML anchor and alias.
        model = {"kind": system.model_spec.kind, **system.model_spec.options()}
        systems.append({"name": system.name, "model": model, "features": dict(ref)})
    report = EvaluationReport(
        facets=corpus.active_facets, n_folds=plan.n_folds, systems=tuple(results)
    )

    # The run's settings, None for a built-in file: the manifest's config
    # section and what its digest covers besides the systems. SMOTE's seed
    # is the run's.
    config = asdict(cfg)
    del config["systems"], config["smote"]["seed"]
    wins = report.wins()
    manifest = {
        "config": {k: (v or "builtin-default") if k in _FILE_KEYS else v for k, v in config.items()},
        "config_digest": _config_digest(config, systems),
        "corpus": {
            "authors": n_authors,
            "documents": len(corpus.documents),
            "degenerate_facets": list(corpus.degenerate),
            "label_thresholds": {k: float(v) for k, v in corpus.label_thresholds.items()},
        },
        "systems": systems,
        # Not in config_digest: which BLAS ran, and on how many threads.
        "environment": blas.environment(),
        "results": {
            "overall": {s.name: report.overall(s) for s in report.systems},
            "wins": {name: int(n) for name, n in wins.items()},
        },
    }

    text = render_report(report, "text")
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    (out_dir / "report.csv").write_text(render_report(report, "csv"), encoding="utf-8")
    with open(out_dir / "manifest.yaml", "w", encoding="utf-8", newline="\n") as fh:
        yamlio.dump(manifest, fh)

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
    n_authors, n_posts, corpus = _labeled_corpus(args.corpus, key, table)
    print(f"authors: {n_authors}")
    print(f"posts: {n_posts}")
    excluded = n_authors - len(corpus.documents)
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
    authors = [rec.author_id for rec in records]
    for author, sc in zip(authors, score_inventories([rec.inventory for rec in records], key, authors)):
        cells = [repr(sc.domains[d]) for d in domains]
        cells += [repr(sc.facets[f]) for f in FACET_NAMES]
        rows.append([author, *cells])
    _write_csv(rows, args.out)
    return 0


def cmd_synth(args) -> int:
    from .synth import SynthSpec, write_bundle  # only this command needs it

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
    if args.features == "bow":
        feature_spec = BowSpec(vocab_size=args.vocab_size)
    elif args.embeddings:
        feature_spec = EmbeddingSpec(path=str(Path(args.embeddings).resolve()), flavor=args.flavor)
    else:
        raise ConfigError("--embeddings is required with --features embeddings")
    lr = LRHyperparams(l2=args.l2, max_epochs=args.max_epochs, tol=args.tol)
    model_spec = ModelSpec(kind=args.model, alpha=args.alpha, lr=lr)
    seed = derive_seed(args.seed, STREAM_SMOTE, FACET_NAMES.index(args.facet))
    smote = ResampleConfig(k_neighbors=args.smote_k, target_ratio=args.smote_ratio, seed=seed)

    key = _load_key(args.key)
    table = _load_table(args.normalization)
    corpus = _labeled_corpus(args.corpus, key, table)[2]
    if args.facet in corpus.degenerate:
        raise ValidationError(f"facet {args.facet} is degenerate in this corpus")
    X, ref, space = realize_features(feature_spec, corpus)
    ref = model_ref(ref, space, table)
    ref["facet"] = args.facet
    y = corpus.labels(args.facet)
    # One cell of all rows, planned and fitted as `run` plans and fits its
    # facet x fold cells.
    try:
        cell = plan_cell(y, np.arange(len(y)), smote if args.smote else None, smote_neighbours(X, y))
        [model] = fit_cells(X, model_spec, [[cell]], f"facet {args.facet}")
    except FacetrecError as e:
        raise type(e)(f"facet {args.facet}: {e}") from e
    model = replace(model, feature_ref=ref)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    records = load_corpus(args.corpus, inventories=False)
    try:
        authors, X = featurize(model.feature_ref, records)
    except ConfigError as e:  # the reference, or a file it names, is at fault
        raise ConfigError(f"{args.model}: {e}") from e
    labels, scores = predict(model, X)
    rows = [["author_id", model.feature_ref.get("facet", "label"), "score"]]
    for aid, lab, sc in zip(authors, labels, scores):
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
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--features", choices=["bow", "embeddings"], default="bow")
    # Each default is the one the dataclass that holds the value declares.
    p.add_argument("--vocab-size", type=int, default=BowSpec.vocab_size, dest="vocab_size")
    p.add_argument("--embeddings")
    p.add_argument("--flavor", choices=EMBEDDING_FLAVORS, default=EmbeddingSpec.flavor)
    p.add_argument("--alpha", type=float, default=ModelSpec.alpha)
    p.add_argument("--l2", type=float, default=LRHyperparams.l2)
    p.add_argument("--max-epochs", type=int, default=LRHyperparams.max_epochs, dest="max_epochs",
                   help="cap on logistic regression's Newton iterations")
    p.add_argument("--tol", type=float, default=LRHyperparams.tol)
    p.add_argument("--smote", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--smote-k", type=int, default=ResampleConfig.k_neighbors, dest="smote_k")
    p.add_argument("--smote-ratio", type=float, default=ResampleConfig.target_ratio, dest="smote_ratio")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
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
        # One BLAS thread, so that results do not depend on the machine's
        # core count; see the blas module.
        with blas.one_thread():
            return args.func(args)
    except FacetrecError as e:
        print(f"facetrec: {type(e).__name__}: {e}", file=sys.stderr)
    except OSError as e:
        # Every command reads its inputs through loaders that report an
        # unreadable file as a ConfigError, so what reaches here is an
        # output that cannot be written.
        print(f"facetrec: ConfigError: cannot write output: {e}", file=sys.stderr)
    return 1
