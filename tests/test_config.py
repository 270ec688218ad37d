"""The config schema is read off the preset: every leaf of the preset fixes
the type that a user file may give that key."""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinloop import config as cfgmod
from spinloop.errors import ValidationError

PRESET = cfgmod.preset_config()


def _walk(node, path=()):
    """(path, preset value) of every leaf; a list's leaf is its first element."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, path + (key,))
    elif isinstance(node, list):
        yield from _walk(node[0], path + (0,))
    else:
        yield path, node


def _objects(node, path=()):
    """Path of every object in the preset, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _objects(value, path + (key,))


LEAVES = list(_walk(PRESET))
OBJECTS = list(_objects(PRESET))
LISTS = [path[:-1] for path, _ in LEAVES if path[-1] == 0]


def dotted(path):
    out = "config"
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


def document(path, value, node=PRESET):
    """The smallest user document setting ``path`` to ``value``; a list
    element keeps the rest of the preset list, so lengths stay valid."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    inner = document(rest, value, node[head])
    return [inner] + node[1:] if isinstance(head, int) else {head: inner}


def validate(doc):
    return cfgmod._merge(PRESET, cfgmod._validate(doc, cfgmod._SCHEMA, "config"))


def leaf(cfg, path):
    for part in path:
        cfg = cfg[part]
    return cfg


# one strategy per JSON type, named as Python names the decoded value's type
JSON_VALUES = {
    "int": st.integers(-(10**12), 10**12),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "str": st.text(max_size=4),
    "NoneType": st.none(),
    "list": st.lists(st.integers(0, 9), max_size=2),
    "dict": st.dictionaries(st.sampled_from("ab"), st.integers(0, 9), max_size=2),
}
SAMPLE = {"int": 7, "float": 0.25, "bool": False, "str": "up", "NoneType": None,
          "list": [1.0], "dict": {}}


def expected_name(preset_value):
    return "float or NoneType" if preset_value is None else type(preset_value).__name__


def accepts(preset_value, kind):
    """The rule stated in the config docstring: the preset's own type, an
    int for a float, and float, int or null where the preset holds null."""
    allowed = {"float", "NoneType"} if preset_value is None else {expected_name(preset_value)}
    if "float" in allowed:
        allowed.add("int")
    return kind in allowed


def check(path, preset_value, kind, value):
    doc = document(path, value)
    if accepts(preset_value, kind):
        merged = leaf(validate(doc), path)
        assert merged == value
        if kind == "int" and expected_name(preset_value).startswith("float"):
            assert type(merged) is float  # coerced
        else:
            assert type(merged) is type(value)
    else:
        with pytest.raises(ValidationError) as info:
            validate(doc)
        assert str(info.value) == (
            f"{dotted(path)}: expected {expected_name(preset_value)}, got {kind}"
        )


class TestDerivedSchema:
    def test_every_leaf_against_every_json_type(self):
        assert len(LEAVES) == 37
        for path, preset_value in LEAVES:
            for kind, value in SAMPLE.items():
                check(path, preset_value, kind, value)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LEAVES), st.sampled_from(sorted(JSON_VALUES)), st.data())
    def test_leaf_types_property(self, entry, kind, data):
        path, preset_value = entry
        check(path, preset_value, kind, data.draw(JSON_VALUES[kind]))

    @staticmethod
    def check_unknown(path, key):
        with pytest.raises(ValidationError) as info:
            validate(document(path, {key: 1.0}))
        assert str(info.value) == f"{dotted(path)}: unknown keys {[key]}"

    def test_unknown_key_refused_at_every_object(self):
        assert len(OBJECTS) == 7
        for path in OBJECTS:
            self.check_unknown(path, "zz")

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(OBJECTS), st.text(min_size=1, max_size=6))
    def test_unknown_key_property(self, path, key):
        assume(key not in leaf(PRESET, path))
        self.check_unknown(path, key)

    @pytest.mark.parametrize("path", OBJECTS, ids=dotted)
    def test_non_object_section_refused(self, path):
        message = rf"^{re.escape(dotted(path))}: expected an object$"
        with pytest.raises(ValidationError, match=message):
            validate(document(path, [1.0]))

    @pytest.mark.parametrize("path", LISTS, ids=dotted)
    def test_non_list_refused(self, path):
        message = rf"^{re.escape(dotted(path))}: expected a list$"
        with pytest.raises(ValidationError, match=message):
            validate(document(path, 1.0))

    def test_int_leaves_are_pinned(self):
        """A preset literal such as 1000 written for 1e3 would retype its key."""
        ints = {dotted(path) for path, value in LEAVES if type(value) is int}
        assert ints == {"config.figure2.samples", "config.epr.sweep_points",
                        "config.oracle.points"}
        strs = {dotted(path) for path, value in LEAVES if type(value) is str}
        assert strs == {"config.figure2.spin", "config.epr.bell", "config.epr.representation",
                        "config.oracle.variant"}

    def test_beta_accepts_null(self, tmp_path):
        assert cfgmod._SCHEMA["params"]["beta"] == (float, type(None))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"beta": None}}))
        assert cfgmod.load_config(path)["params"]["beta"] is None
        path.write_text(json.dumps({"params": {"beta": 2}}))
        assert cfgmod.load_config(path)["params"]["beta"] == 2.0

    def test_preset_as_a_user_file_loads_unchanged(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(PRESET))
        assert cfgmod.load_config(path) == PRESET
