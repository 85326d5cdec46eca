"""Shared fixtures plus a terminal summary for the acceptance tests.

Tests named ``test_c<N>_*`` in test_acceptance.py are tracked and echoed
as one pass/fail line per criterion at the end of the run.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest
from hypothesis import settings

from facetrec.cli import main
from facetrec.corpus import LabeledCorpus, LabeledDocument
from facetrec.inventory import FACET_NAMES

# HYPOTHESIS_PROFILE picks the profile: "suite" (the default) or "ci",
# which tries ten times as many examples.
settings.register_profile("suite", max_examples=50, deadline=None)
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

_SRC_DIR = Path(__file__).resolve().parents[1] / "src"

_CRITERIA = {
    1: "balanced majority baseline scores 0.333 +/- 0.01",
    2: "synthetic corpus: trained models beat baseline by 0.15",
    3: "naive Bayes matches an independent counting oracle",
    4: "logistic regression gradients pass finite differences",
    5: "smote counts, seeds and segment geometry",
    6: "facet scoring exact to 1e-12",
    7: "above-mean labeling rule on all 10 facets",
    8: "byte-identical report.csv across reruns",
    9: "save/load round trips within 1e-6",
}

_RESULTS: dict[int, str] = {}
_RANK = {"PASS": 0, "SKIP": 1, "FAIL": 2}
_PAT = re.compile(r"test_acceptance\.py::.*test_c(\d+)_")


def pytest_runtest_logreport(report):
    m = _PAT.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call" or (report.when == "setup" and report.skipped):
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        if report.when == "setup" and report.failed:
            outcome = "FAIL"
        prev = _RESULTS.get(n)
        if prev is None or _RANK[outcome] > _RANK[prev]:
            _RESULTS[n] = outcome
    elif report.when == "setup" and report.failed:
        _RESULTS[n] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_CRITERIA):
        outcome = _RESULTS.get(n, "NOT RUN")
        terminalreporter.write_line(f"criterion {n}: {_CRITERIA[n]} ... {outcome}")


@pytest.fixture
def corpus_factory():
    """Build a LabeledCorpus from token sequences.

    Labels default to alternating 0/1 per document for every facet;
    pass positives={facet: {doc indices}} to control specific facets.
    """

    def make(token_seqs, positives=None, thresholds=None, degenerate=()):
        docs = []
        for i, toks in enumerate(token_seqs):
            labels = {}
            for f in FACET_NAMES:
                if positives and f in positives:
                    labels[f] = 1 if i in positives[f] else 0
                else:
                    labels[f] = i % 2
            docs.append(LabeledDocument(author_id=f"a{i}", tokens=tuple(toks), labels=labels))
        return LabeledCorpus(
            documents=tuple(docs),
            label_thresholds=thresholds or {f: 0.0 for f in FACET_NAMES},
            degenerate=tuple(degenerate),
        )

    return make


@pytest.fixture
def child_env():
    """Build the environment for a child Python process that imports this checkout.

    The result is a copy of ``os.environ`` with the given variables set (a
    value of None removes the variable) and the absolute ``src`` directory
    put at the front of PYTHONPATH (existing entries are kept after it). The
    child then imports the checkout's ``facetrec`` whatever its working
    directory, and even when another ``facetrec`` is installed.
    """

    def make(**overrides):
        env = dict(os.environ)
        for name, value in overrides.items():
            if value is None:
                env.pop(name, None)
            else:
                env[name] = value
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC_DIR), env.get("PYTHONPATH")]))
        return env

    return make


@pytest.fixture(scope="session")
def weak_bundle(tmp_path_factory):
    """A weak-signal synth bundle, on which a wrong answer shows: 300
    authors of 400 tokens, 20% positives and a planted signal rate of 0.05
    (seed 7). The trained bag-of-words systems score well above the
    baseline here, but far from 1.0."""
    out = tmp_path_factory.mktemp("weak")
    args = ["--seed", "7", "--authors", "300", "--tokens", "400", "--pos-rate", "0.2", "--signal", "0.05"]
    assert main(["synth", "--out", str(out), *args]) == 0
    return out
