"""The document readers, and Hypothesis properties over documents near each
schema: every loader either loads or raises its own module's error, and
the CLI exits 0, 1 or 2 without a traceback."""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from retroflow import fixtures
from retroflow._doc import distinct, key, number, parse, record, whole
from retroflow.cli import main
from retroflow.domains import PlacementError, load_placement, load_placement_file
from retroflow.fixtures import master_loss_script, toy_recovery_instance
from retroflow.geo import TopologyError, load_topology, load_topology_file
from retroflow.oscm import InstanceError, OscmInstance, Solution
from retroflow.solvers import solve_retroflow

from _oracles import _FUZZ


class TestReaders:
    @pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (-2, -2), (10**30, 10**30)])
    def test_whole_accepts(self, value, expected):
        assert whole(value, "n", ValueError) == expected

    @pytest.mark.parametrize("value", [0.5, float("nan"), float("inf"), True, "7", None, [1],
                                       10**400])
    def test_whole_rejects(self, value):
        with pytest.raises(ValueError, match="n must be a whole number"):
            whole(value, "n", ValueError)

    @pytest.mark.parametrize("value", [3, 2.5, float("nan"), float("inf"),
                                       pytest.param(int(sys.float_info.max), id="int-max")])
    def test_number_accepts(self, value):
        assert repr(number(value, "x", ValueError)) == repr(float(value))

    @pytest.mark.parametrize("value", [True, "1e3", None, {}, 10**400])
    def test_number_rejects(self, value):
        with pytest.raises(ValueError, match="x must be a number"):
            number(value, "x", ValueError)

    @pytest.mark.parametrize("text, expected", [("0", 0), ("13", 13), ("-2", -2)])
    def test_key_accepts(self, text, expected):
        assert key(text, "k", ValueError) == expected

    @pytest.mark.parametrize("text", ["013", " 13", "13 ", "+13", "-0", "1_3", "13.0", "٣",
                                      "", 13, None])
    def test_key_rejects(self, text):
        with pytest.raises(ValueError, match="k must be canonical decimal"):
            key(text, "k", ValueError)

    def test_key_beyond_int_digit_limit(self):
        # int() refuses more than sys.get_int_max_str_digits() digits with a
        # bare ValueError; the reader must raise the caller's type instead
        class Malformed(ValueError):
            pass
        try:
            assert key("1" * 5000, "k", Malformed) == int("1" * 5000)
        except Malformed:
            pass

    def test_record(self):
        record({"a": 1}, {"a", "b"}, "r", ValueError, required=("a",))
        with pytest.raises(ValueError, match="r must be a mapping"):
            record([], {"a"}, "r", ValueError)
        with pytest.raises(ValueError, match=r"r has unknown fields: \['c'\]"):
            record({"c": 1}, {"a"}, "r", ValueError)
        with pytest.raises(ValueError, match="r missing field 'a'"):
            record({}, {"a"}, "r", ValueError, required=("a",))

    def test_distinct(self):
        assert distinct(iter([3, 1, 2]), "id", ValueError) == [3, 1, 2]

        class Malformed(ValueError):
            pass
        # the first repeat is named, an int as str() writes it
        with pytest.raises(Malformed, match=r"^duplicate id 1$"):
            distinct([2, 1, 3, 1, 2], "id", Malformed)
        with pytest.raises(Malformed, match=r"^duplicate name 'a'$"):
            distinct(["a", "b", "a"], "name", Malformed)

    def test_parse(self):
        assert parse('{"a": [1, {"b": 2.5}], "c": {}}', ValueError) == {"a": [1, {"b": 2.5}],
                                                                        "c": {}}

        class Malformed(ValueError):
            pass
        # json alone keeps the last value; the same value twice is a repeat too
        for text in ('{"a": {"b": 1, "c": 2, "b": 3}}', '[{"b": 1, "b": 1}]'):
            with pytest.raises(Malformed, match=r"^duplicate key 'b'$"):
                parse(text, Malformed)


TOPOLOGY = {
    "name": "square",
    "nodes": [{"id": i, "lat": 40.0 + i, "lon": -100.0 + (i % 2), "label": f"n{i}"}
              for i in range(4)],
    "links": [{"a": 0, "b": 1}, {"a": 1, "b": 2, "distance_km": 150.0},
              {"a": 2, "b": 3}, {"a": 3, "b": 0, "distance_km": None}],
}
PLACEMENT = {
    "name": "pair",
    "capacity": 50,
    "controllers": [{"node": 0, "switches": [0, 1]},
                    {"node": 2, "switches": [2, 3], "capacity": 40}],
    "flow_counts": {"0": 3, "1": 2, "2": 4, "3": 1},
}
INSTANCE = json.loads(toy_recovery_instance().to_json())
SOLUTION = json.loads(solve_retroflow(toy_recovery_instance()).to_json())
SCRIPT = master_loss_script()

def _first_key_twice(doc: dict) -> str:
    """doc as JSON text, its first top-level key written twice with the
    same value."""
    k = next(iter(doc))
    return "{" + f"{json.dumps(k)}: {json.dumps(doc[k])}, " + json.dumps(doc)[1:]


class TestRepeatedKeys:
    """Every document reader refuses an object that repeats a key, and the
    CLI exits 2 with one error line."""

    READERS = {
        "topology": (TOPOLOGY, load_topology_file, TopologyError),
        "placement": (PLACEMENT, lambda path: load_placement_file(path, load_topology(TOPOLOGY)),
                      PlacementError),
        "instance": (INSTANCE, OscmInstance.from_file, InstanceError),
        "solution": (SOLUTION, Solution.from_file, InstanceError),
    }

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_each_document_kind(self, tmp_path, kind):
        doc, read, error = self.READERS[kind]
        path = tmp_path / f"{kind}.json"
        path.write_text(_first_key_twice(doc))
        with pytest.raises(error, match=f"^duplicate key '{next(iter(doc))}'$"):
            read(path)

    def test_script(self, tmp_path, capsys):
        path = tmp_path / "script.json"
        path.write_text(_first_key_twice(SCRIPT))
        assert main(["protocol-trace", "--script", str(path)]) == 2
        assert capsys.readouterr().err == f"error: duplicate key '{next(iter(SCRIPT))}'\n"

    def test_bundled_fixture(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "att25.json").write_text(_first_key_twice(TOPOLOGY))
        monkeypatch.setattr(fixtures.resources, "files", lambda package: tmp_path)
        with pytest.raises(ValueError, match="^duplicate key 'name'$"):
            fixtures.att25_topology()

    def test_repeated_delay_exits_the_cli(self, tmp_path, capsys):
        # json alone would keep 4.0, the toy's own delay, and validate would pass
        text = json.dumps(INSTANCE)
        assert '"20,1": 4.0' in text
        instance, solution = tmp_path / "instance.json", tmp_path / "solution.json"
        instance.write_text(text.replace('"20,1": 4.0', '"20,1": 999.0, "20,1": 4.0'))
        solution.write_text(json.dumps(SOLUTION))
        assert main(["validate", "--instance", str(instance), "--solution", str(solution)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: duplicate key '20,1'\n")


_KEYS = st.sampled_from(["0", "1", "3", "20", "020", " 1", "-0", "+1", "1.0", "x", "id", "lat",
                         "capacity", "switch"])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.integers(), st.just(10**400), st.floats(),
    st.sampled_from(["7", " 7 ", "013", "-0", "1e3", "x", "", "true", "master_connection_lost"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
# most edits keep the value's type, so that many documents load and the
# code behind the loaders runs too
_EDITS = st.one_of(st.integers(-1, 30), st.floats(-1.0, 1000.0), _VALUES)


def _spots(doc, path=()):
    """(container path, key or index) of every entry in doc."""
    if isinstance(doc, (dict, list)):
        for k, v in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield path, k
            yield from _spots(v, path + (k,))


@st.composite
def _near(draw, base):
    """base after one to three edits: an entry replaced by another JSON
    value, removed, moved to another key, or repeated; now and then the
    whole document is replaced."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path, k = draw(st.sampled_from([((), None)] + list(_spots(doc))))
        if k is None and not path:
            doc = draw(_VALUES)
            continue
        parent = doc
        for step in path:
            parent = parent[step]
        edit = draw(st.sampled_from(["replace", "remove", "move"]))
        if edit == "replace":
            parent[k] = draw(_EDITS)
        elif edit == "remove":
            del parent[k]
        elif isinstance(parent, dict):
            parent[draw(_KEYS)] = parent.pop(k)
        else:
            parent.append(parent[k])
    return doc


LOADERS = {
    "topology": (TOPOLOGY, load_topology, TopologyError),
    "placement": (PLACEMENT, lambda doc: load_placement(doc, load_topology(TOPOLOGY)),
                  PlacementError),
    "instance": (INSTANCE, lambda doc: OscmInstance.from_json(json.dumps(doc)), InstanceError),
    "solution": (SOLUTION, lambda doc: Solution.from_json(json.dumps(doc)), InstanceError),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@_FUZZ
@given(data=st.data())
def test_loader_loads_or_raises_its_error(kind, data):
    base, load, error = LOADERS[kind]
    doc = data.draw(_near(base), label=kind)
    try:
        load(doc)
    except error:
        pass


COMMANDS = {
    "run": (lambda f: ["run", "--topology", f["topology"], "--placement", f["placement"],
                       "--failures", "1", "--out", f["report"]],
            {"topology": TOPOLOGY, "placement": PLACEMENT}),
    "validate": (lambda f: ["validate", "--instance", f["instance"], "--solution", f["solution"]],
                 {"instance": INSTANCE, "solution": SOLUTION}),
    "protocol-trace": (lambda f: ["protocol-trace", "--script", f["script"]],
                       {"script": SCRIPT}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@_FUZZ
@given(data=st.data())
def test_cli_exits_cleanly(command, data):
    argv, bases = COMMANDS[command]
    edited = data.draw(st.sampled_from(sorted(bases)), label="edited")
    docs = dict(bases, **{edited: data.draw(_near(bases[edited]), label=edited)})
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = {"report": str(Path(tmp) / "report.csv")}
        for name, doc in docs.items():
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv(files))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if command == "protocol-trace" and code == 2:
        assert err.getvalue().startswith("error: malformed script document")
