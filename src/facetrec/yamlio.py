"""YAML in and out, through PyYAML's libyaml classes when it has them.

Every YAML file facetrec reads or writes goes through this module. The C
classes parse to the same objects and dump the same bytes as the pure
Python ones (tests/test_yamlio.py), in a fraction of the time; PyYAML built
without libyaml falls back to the pure classes.
"""

from __future__ import annotations

import yaml

from .errors import ConfigError

Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load(text):
    """The object of one YAML document, given as a string or an open file."""
    return yaml.load(text, Loader=Loader)


def load_file(path, what: str):
    """The object of the YAML file ``path``. A file that cannot be read or
    parsed raises ConfigError, with ``what`` the file is for the former and
    ``path`` for the latter."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from e


def dump(data, fh, sort_keys: bool = True) -> None:
    """Write ``data`` to the open text file ``fh`` as safe_dump does."""
    yaml.dump(data, fh, Dumper=Dumper, sort_keys=sort_keys)
