"""Exception hierarchy shared across the package, and the one reader of the
mappings that configs and files hold."""

from dataclasses import MISSING, fields


class FacetrecError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FacetrecError):
    """Input data violates a documented schema or invariant."""


class ConfigError(FacetrecError):
    """A configuration file or option is malformed or inconsistent."""


class TrainingError(FacetrecError):
    """Model training failed, e.g. the optimizer diverged."""


def is_int(value) -> bool:  # a bool is an int to isinstance
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(value, name: str) -> float:
    if not is_number(value):
        try:  # a number that YAML read as a string, such as a bare 1e-8
            float(value if isinstance(value, str) else "")
        except ValueError:
            raise ConfigError(f"{name} must be a number, got {value!r}") from None
        raise ConfigError(f"{name} must be a number, got {value!r}, a string to YAML: write 1.0e-8, not 1e-8")
    return float(value)


def config_fields(cls, *fixed, required: bool = False) -> dict:
    """Each field the dataclass ``cls`` is built from, outside ``fixed``, with
    its default: ``MISSING`` for none, and for all when ``required``."""
    return {f.name: MISSING if required else f.default for f in fields(cls) if f.init and f.name not in fixed}


def read_config(raw, defaults: dict, what: str, owner: str, prefix: str = "") -> dict:
    """The values the mapping ``raw`` (of ``owner``) sets, read against the
    ``defaults`` of the dataclass that holds them (``config_fields``). A key
    outside them (an unknown ``what``), a key left out whose default is
    ``MISSING``, or a value not a number (named ``prefix`` and its key) whose
    default is a float is a ConfigError; a number there is read as a float.
    The dataclass checks every value as it is built."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{owner} must be a mapping, got {raw!r}")
    unknown = set(raw) - set(defaults)
    if unknown:
        takes = ", ".join(defaults) or "none"
        raise ConfigError(f"unknown {what}: {', '.join(sorted(map(str, unknown)))}; {owner} takes {takes}")
    for key, default in defaults.items():
        if default is MISSING and key not in raw:
            raise ConfigError(f"{owner} lacks {key!r}")
    return {k: _require_number(v, prefix + k) if isinstance(defaults[k], float) else v for k, v in raw.items()}
