"""Config parser fuzz: whatever a config file, a dotted override or a grid
cell holds, resolving it yields a validated config or raises ConfigError,
never another exception."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whitenet.cli import _variant
from whitenet.config import PRESETS, SCHEMA, deep_merge, resolve_config, validate_config
from whitenet.errors import ConfigError

# the schema's own key names, so many draws reach the section rules
NAMES = sorted({key for key in SCHEMA} | {key for rule in SCHEMA.values()
                                          if isinstance(rule, dict) for key in rule})
PATHS = sorted({f"{name}.{key}" for name, rule in SCHEMA.items() if isinstance(rule, dict)
                for key in rule} | set(SCHEMA))
KEYS = st.sampled_from(NAMES) | st.text(max_size=3)
DOTTED = st.lists(KEYS, min_size=1, max_size=3).map(".".join)
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
          | st.integers(1020, 1100).map(lambda e: 2**e)  # around the float range's end
          | st.sampled_from(["sigmoid", "softmax", "prong", "sgd", "synthetic_images"]))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(KEYS, inner, max_size=4), max_leaves=10)
PRESET = st.none() | st.sampled_from(sorted(PRESETS))
# dotted overrides: a schema path set to a leaf, or any path set to any value
OVERRIDES = (st.dictionaries(st.sampled_from(PATHS), LEAVES, max_size=3)
             | st.dictionaries(DOTTED, VALUES, max_size=3))


def file_bytes(draw):
    """A config file's bytes: a preset with values overlaid, any JSON value,
    or raw bytes (often not UTF-8)."""
    form = draw(st.sampled_from(["overlaid_preset", "json_value", "raw"]))
    if form == "overlaid_preset":
        base = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
        overlay = draw(st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=3))
        return json.dumps(deep_merge(base, overlay)).encode()
    if form == "json_value":
        return json.dumps(draw(VALUES)).encode()
    return draw(st.binary(max_size=24))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_file_and_overrides_resolve_or_raise_config_error(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_bytes(file_bytes(data.draw))
    overrides = data.draw(OVERRIDES)
    try:
        cfg = resolve_config(data.draw(PRESET), path, overrides)
    except ConfigError:
        return
    assert validate_config(cfg) == cfg


@settings(max_examples=400, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), cell=OVERRIDES)
def test_any_grid_cell_resolves_or_raises_config_error(preset, cell):
    cfg = validate_config(PRESETS[preset])
    try:
        run = _variant(cfg, "-cell0", cell)
    except ConfigError:
        return
    assert run["name"] == preset + "-cell0" and validate_config(run) == run
