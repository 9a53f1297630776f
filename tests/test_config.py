"""The run-config contract: the config snapshot a report records parses back
to the same config, and every wrong-typed value is rejected with the dotted
key of its field."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab.cli import parse_config
from nsstab.errors import ConfigError

#: dotted config keys by the JSON type they accept
NUMBER = ("Lx", "Ly", "eps_zero", "practical.spectral_constant", "practical.trilinear_constant",
          "experiment.y0_scale", "experiment.y0_norm")
OPTIONAL_NUMBER = ("dt", "practical.schedule_constant", "experiment.horizon")
INT = ("nx", "ny", "M", "seed", "experiment.lambda_index", "experiment.n0", "experiment.n_max",
       "experiment.periods")
STRING = ("mode", "output_dir")
OPTIONAL_STRING = ("cache_path",)
BOOL = ("experiment.cutoff",)

WRONG = {
    NUMBER: ["1.5", True, False, None, [1.0], {}],
    OPTIONAL_NUMBER: ["1.5", True, [1.0]],
    INT: ["3", True, 2.0, 1.5, None, [3]],
    STRING: [1, 1.5, True, None, ["practical"]],
    OPTIONAL_STRING: [1, True, ["c.bin"]],
    BOOL: [1, 0, "true", None],
}
WRONG_OMEGA = [[0.1, 0.5, 0.1], [0.1, 0.5, 0.1, 0.5, 0.9], [0.1, "0.5", 0.1, 0.5], [0.1, 0.5, True, 0.5],
               "0.1 0.5 0.1 0.5", None, 0.5]
WRONG_N0_LIST = [[1, 2.5], [1, 2.0], [1, "2"], [True, 2], [1, None], 3, "1,2"]
WRONG_OFFSETS = [[0.0, "0.5"], [0.0, True], [0.0, None], 0.5]

numbers = st.floats(1e-6, 1e6) | st.integers(1, 10**6)
positive = st.floats(1e-12, 1e3, exclude_min=True)
text = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12)


@st.composite
def valid_configs(draw):
    """A JSON config that parse_config accepts; optional keys come and go."""
    lx, ly = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    nx = draw(st.integers(3, 48))
    ny = draw(st.integers(3, 48).filter(lambda n: n % 2 == 0 or nx % 2 == 0))  # odd-by-odd grids are rejected

    def window(length, n):
        """An interval of (0, length) around a drawn interior node, strictly."""
        node = length / (n + 1) * draw(st.integers(1, n))
        return draw(st.floats(0.0, 0.99)) * node, node + draw(st.floats(0.01, 0.99)) * (length - node)

    (a, b), (c, d) = window(lx, nx), window(ly, ny)
    practical = st.fixed_dictionaries({}, optional={
        "spectral_constant": numbers,
        "trilinear_constant": numbers,
        "schedule_constant": st.none() | numbers,
    })
    experiment = st.fixed_dictionaries({}, optional={
        "y0_scale": numbers,
        "y0_norm": numbers,
        "cutoff": st.booleans(),
        "horizon": st.none() | numbers,
        "n0": st.integers(1, 20),
        "n_max": st.integers(0, 20),
        "n0_list": st.lists(st.integers(1, 20), max_size=5),
        "offsets": st.lists(st.floats(-3.0, 3.0) | st.integers(-3, 3), min_size=1, max_size=5),
        "periods": st.integers(2, 6),
    })
    optional = draw(st.fixed_dictionaries({}, optional={
        "M": st.integers(5, nx * ny - 2),
        "dt": st.none() | positive,
        "mode": st.sampled_from(["certified", "practical"]),
        "seed": st.integers(0, 2**32 - 1),
        "eps_zero": positive,
        "output_dir": text,
        "cache_path": st.none() | text,
        "practical": practical,
        "experiment": experiment,
    }))
    if nx * ny - 2 < 24:  # the default M of 24 would exceed the solvable mode count
        optional.setdefault("M", draw(st.integers(5, nx * ny - 2)))
    if "experiment" in optional and draw(st.booleans()):  # tau_k must lie below tau_M
        optional["experiment"]["lambda_index"] = draw(st.integers(1, optional.get("M", 24) - 1))
    return {"Lx": lx, "Ly": ly, "nx": nx, "ny": ny, "omega": [a, b, c, d], **optional}


def parse_dict(data: dict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        return parse_config(path)


def with_value(data: dict, key: str, value) -> dict:
    data = json.loads(json.dumps(data))
    section, _, sub = key.partition(".")
    if sub:
        data.setdefault(section, {})[sub] = value
    else:
        data[section] = value
    return data


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_emit_then_parse_gives_the_same_config(data):
    config = parse_dict(data)
    snapshot = json.dumps(dataclasses.asdict(config), sort_keys=True)
    again = parse_dict(json.loads(snapshot))
    assert again == config
    assert json.dumps(dataclasses.asdict(again), sort_keys=True) == snapshot


WRONG_CASES = [(key, value) for keys, values in WRONG.items() for key in keys for value in values]
WRONG_CASES += [("omega", v) for v in WRONG_OMEGA]
WRONG_CASES += [("experiment.n0_list", v) for v in WRONG_N0_LIST]
WRONG_CASES += [("experiment.offsets", v) for v in WRONG_OFFSETS]
# well typed but out of range: no start offset, a seed numpy cannot take
WRONG_CASES += [("experiment.offsets", []), ("seed", -1)]
# keys no field has: the viscosity is fixed at 1, and the feedback constant
# is always derived from the spectral and trilinear constants
WRONG_CASES += [("nu", 1.0), ("practical.feedback_constant", 1.0)]
WRONG_CASES += [(section, v) for section in ("practical", "experiment") for v in ([], 1, "x")]


@settings(max_examples=150, deadline=None)
@given(valid_configs(), st.sampled_from(WRONG_CASES))
def test_wrong_typed_value_names_its_key(data, case):
    key, value = case
    with pytest.raises(ConfigError) as info:
        parse_dict(with_value(data, key, value))
    assert info.value.key == key


def test_every_wrong_type_case_is_rejected():
    """Each (key, wrong value) pair at least once, on one fixed valid config."""
    base = {"Lx": 1.0, "Ly": 1.0, "nx": 8, "ny": 8, "omega": [0.1, 0.5, 0.1, 0.5]}
    for key, value in WRONG_CASES:
        with pytest.raises(ConfigError) as info:
            parse_dict(with_value(base, key, value))
        assert info.value.key == key, (key, value)


@pytest.mark.parametrize("excess", [1, 2])
def test_mode_count_past_the_solvable_range_names_m(excess):
    """The eigensolve needs M <= nx*ny - 2; one or two more is a ConfigError on M."""
    base = {"Lx": 1.0, "Ly": 1.0, "nx": 4, "ny": 4, "omega": [0.1, 0.5, 0.1, 0.5]}
    assert parse_dict({**base, "M": 14}).M == 14
    with pytest.raises(ConfigError) as info:
        parse_dict({**base, "M": 14 + excess})
    assert info.value.key == "M"
