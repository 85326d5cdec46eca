"""PyYAML's libyaml classes against its pure ones, on every kind of YAML
file facetrec reads or writes: the shipped scoring key and normalization
table, a `synth` config and a `run` manifest."""

from __future__ import annotations

import importlib
import importlib.resources
import io
import re

import pytest
import yaml

from facetrec import yamlio
from facetrec.cli import main
from facetrec.corpus import load_normalization_table
from facetrec.errors import ConfigError
from facetrec.inventory import load_scoring_key

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")

CLASSES = {"libyaml": (yaml.CSafeLoader, yaml.CSafeDumper), "pure": (yaml.SafeLoader, yaml.SafeDumper)}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("yaml-bundle")
    assert main(["synth", "--out", str(out), "--seed", "3", "--authors", "30", "--tokens", "30"]) == 0
    assert main(["run", "--config", str(out / "config.yaml"), "--out", str(out / "results")]) == 0
    return out


def _texts(bundle):
    data = importlib.resources.files("facetrec").joinpath("data")
    return {
        "scoring_key": data.joinpath("scoring_key.yaml").read_text("utf-8"),
        "normalization": data.joinpath("normalization.yaml").read_text("utf-8"),
        "synth config": (bundle / "config.yaml").read_text(encoding="utf-8"),
        "manifest": (bundle / "results" / "manifest.yaml").read_text(encoding="utf-8"),
    }


def test_the_libyaml_classes_are_used_when_pyyaml_has_them(monkeypatch):
    assert (yamlio.Loader, yamlio.Dumper) == CLASSES["libyaml"]
    monkeypatch.delattr(yaml, "CSafeLoader")
    monkeypatch.delattr(yaml, "CSafeDumper")
    try:
        assert (importlib.reload(yamlio).Loader, yamlio.Dumper) == CLASSES["pure"]
    finally:
        monkeypatch.undo()
        importlib.reload(yamlio)
    assert (yamlio.Loader, yamlio.Dumper) == CLASSES["libyaml"]


def test_both_loaders_parse_every_file_kind_alike(bundle):
    for name, text in _texts(bundle).items():
        parsed = [yaml.load(text, Loader=loader) for loader, _ in CLASSES.values()]
        assert parsed[0] == parsed[1], name
        assert parsed[0], name


@pytest.mark.parametrize("name, sort_keys", [("manifest", True), ("synth config", False)])
def test_both_dumpers_write_the_same_bytes(bundle, name, sort_keys):
    text = _texts(bundle)[name]
    data = yaml.load(text, Loader=yaml.SafeLoader)
    written = []
    for _, dumper in CLASSES.values():
        buf = io.StringIO()
        yaml.dump(data, buf, Dumper=dumper, sort_keys=sort_keys)
        written.append(buf.getvalue())
    assert written[0] == written[1] == text


@pytest.mark.parametrize("classes", CLASSES.values(), ids=list(CLASSES))
def test_malformed_yaml_names_its_file_under_both(tmp_path, monkeypatch, capsys, classes):
    monkeypatch.setattr(yamlio, "Loader", classes[0])
    bad = tmp_path / "bad.yaml"
    bad.write_text("scale_min: [unclosed\n", encoding="utf-8")
    for load in (load_scoring_key, load_normalization_table):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(bad))}: invalid YAML"):
            load(bad)
    assert main(["run", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"facetrec: ConfigError: {bad}: invalid YAML")
