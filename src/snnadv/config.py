"""Plain-text run configuration.

Config files are KEY=VALUE lines (# comments allowed). Resolution order:
command-line flags override environment variables (prefix SNNADV_, key
upper-cased), which override the file, which overrides defaults. Unknown
keys are rejected, every offender listed, and the fully resolved
configuration is echoed into the run's output directory.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError

ENV_PREFIX = "SNNADV_"

# Retired keys that older config.txt echoes hold, with the value they held
# and why they went: that value is dropped so the echo replays, any other is
# rejected.
RETIRED_KEYS = {"surrogate-threshold": (1.0, "it never moved the surrogate kernel")}


def parse_config_file(path) -> dict:
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, value, target_type):
    if isinstance(value, target_type) and not isinstance(value, str):
        return value
    try:
        if target_type is bool:
            if str(value).lower() in ("1", "true", "yes", "on"):
                return True
            if str(value).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        return target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: cannot parse {value!r} as "
                          f"{target_type.__name__}") from exc


def resolve_config(schema: Mapping[str, tuple], *, config_file: Optional[str] = None,
                   flags: Optional[Mapping] = None,
                   environ: Optional[Mapping[str, str]] = None) -> dict:
    """Merge defaults < file < environment < flags under a typed schema.

    ``schema`` maps key -> (type, default). Every layer's values pass the
    same unknown-key check and the same ``_coerce``; flags with value None
    are treated as unset.
    """
    environ = os.environ if environ is None else environ
    layers = []
    if config_file:
        file_values = parse_config_file(config_file)
        for key, (value, why) in RETIRED_KEYS.items():
            if key in file_values and _coerce(key, file_values.pop(key), float) != value:
                raise ConfigError(f"config key {key} is retired: {why}; delete its line")
        layers.append((f"in {config_file}", file_values))
    env_keys = {key: ENV_PREFIX + key.upper().replace("-", "_") for key in schema}
    layers.append(("from the environment",
                   {key: environ[name] for key, name in env_keys.items() if name in environ}))
    layers.append(("from flags", flags or {}))

    resolved = {key: default for key, (_, default) in schema.items()}
    for source, values in layers:
        unknown = sorted(set(values) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys {source}: {', '.join(unknown)}")
        for key, value in values.items():
            if value is not None:
                resolved[key] = _coerce(key, value, schema[key][0])
    return resolved


def write_config_echo(out_dir, resolved: Mapping) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.txt"
    lines = [f"{key}={resolved[key]}" for key in sorted(resolved)]
    path.write_text("\n".join(lines) + "\n")
    return path
