"""The built-in report checker against jsonschema, which stays the oracle.

``report_check.compile_checker`` must accept or reject exactly what
``jsonschema.Draft202012Validator`` does, on real reports, on one mutant per
keyword and edge case, and on random mutations.
"""

from __future__ import annotations

import copy
import itertools
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import conjtri
from conjtri.graphio import serialize_graph_file
from conjtri.graphs import UndirectedGraph
from conjtri.report_check import ReportSchemaError, compile_checker
from conjtri.scan import GenRecipe, ScanConfig, report_schema, run_hypothesis_scan

SMALL_RECIPE = GenRecipe(
    inserts=(0, 1, 2), subdivisions=(0, 2), replicates=2, base_seed=11
)
SCHEMA = report_schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
CHECK = compile_checker(SCHEMA)


def _accepts(check, instance) -> bool:
    try:
        check(instance)
    except ReportSchemaError:
        return False
    return True


def _agree(instance) -> bool:
    """Assert both checkers give the same answer; return it."""
    ours = _accepts(CHECK, instance)
    assert ours == ORACLE.is_valid(instance)
    return ours


@pytest.fixture(scope="module")
def generated_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    config = ScanConfig(
        recipe=SMALL_RECIPE, timeout_ms=2000, counterexample_dir=str(out / "cex")
    )
    return run_hypothesis_scan(config).to_dict()


@pytest.fixture(scope="module")
def file_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("files")
    graphs = {
        "octa.conj": UndirectedGraph(
            6,
            [
                (u, v)
                for u, v in itertools.combinations(range(6), 2)
                if (u, v) not in {(0, 5), (1, 3), (2, 4)}
            ],
        ),
        "k4.conj": UndirectedGraph(4, list(itertools.combinations(range(4), 2))),
        "two-triangles.conj": UndirectedGraph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        ),
        "c61.conj": UndirectedGraph(61, [(i, (i + 1) % 61) for i in range(61)]),
    }
    paths = []
    for name, g in graphs.items():
        path = out / name
        path.write_bytes(serialize_graph_file(g))
        paths.append(str(path))
    config = ScanConfig(
        source_files=tuple(paths), timeout_ms=1000, counterexample_dir=str(out / "cex")
    )
    return run_hypothesis_scan(config).to_dict()


def _instance_with_witnesses(payload) -> int:
    return next(
        i
        for i, rec in enumerate(payload["instances"])
        if rec["witnesses"]["h11_edge_coloring"] and rec["witnesses"]["h12_pairs"]
    )


def _walk(payload, path, i):
    """The container and key that ``path`` names; "I" stands for instance i."""
    keys = [i if k == "I" else k for k in path]
    target = payload
    for k in keys[:-1]:
        target = target[k]
    return target, keys[-1]


def _set(path, value):
    def mutate(payload, i):
        target, key = _walk(payload, path, i)
        target[key] = value(target[key]) if callable(value) else value

    return mutate


def _delete(path):
    def mutate(payload, i):
        target, key = _walk(payload, path, i)
        del target[key]

    return mutate


def _first_key(d):
    return next(iter(d))


def _pair_of_three(pairs):
    key = _first_key(pairs)
    pairs[key] = pairs[key] + [0]
    return pairs


MUTANTS = {
    # name: (mutation, whether jsonschema accepts the result)
    "bool as integer": (_set(("instances", "I", "nodes", "chi"), True), False),
    "3.0 as integer": (_set(("instances", "I", "nodes", "chi"), 3.0), True),
    "3.5 as integer": (_set(("instances", "I", "nodes", "chi"), 3.5), False),
    "string as integer": (_set(("instances", "I", "vertices"), "6"), False),
    "True in an enum": (_set(("instances", "I", "planarity"), True), False),
    "True in an enum of a list": (_set(("config", "hypotheses", 0), True), False),
    "missing required key": (_delete(("instances", "I", "error")), False),
    "extra key": (_set(("instances", "I", "extra"), None), False),
    "extra pattern key": (_set(("summary", "verdicts", "H14"), {}), False),
    "h11 key x9": (_set(("instances", "I", "witnesses", "h11_edge_coloring", "x9"), 0), False),
    "pair of length 3": (_set(("instances", "I", "witnesses", "h12_pairs"), _pair_of_three), False),
    "negative timings_ms": (_set(("instances", "I", "timings_ms", "total"), -0.5), False),
    "bool as number": (_set(("instances", "I", "timings_ms", "chi"), False), False),
    "infinite timing": (_set(("instances", "I", "timings_ms", "chi"), float("inf")), True),
    "$ref chi.lower of -1": (_set(("instances", "I", "chi", "lower"), -1), False),
    "$ref value null": (_set(("instances", "I", "gamma", "value"), None), True),
    "zero exclusiveMinimum": (_set(("config", "timeout_ms"), 0), False),
    "null recipe": (_set(("config", "recipe"), None), True),
    "recipe as list": (_set(("config", "recipe"), []), False),
    "tuple as array": (_set(("summary", "counterexamples"), ()), False),
    "wrong version type": (_set(("version",), 1), False),
}


class TestRealReports:
    def test_generated_report(self, generated_report):
        assert _agree(generated_report)

    def test_file_report_with_invalid_and_over_cap_files(self, file_report):
        recs = {r["id"]: r for r in file_report["instances"]}
        assert not recs["k4.conj"]["valid"]
        assert "connected" in recs["two-triangles.conj"]["validation_failures"]
        assert "exceeds caps" in recs["c61.conj"]["error"]
        assert _agree(file_report)


class TestMutants:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_agrees_with_jsonschema(self, generated_report, name):
        mutate, valid = MUTANTS[name]
        payload = copy.deepcopy(generated_report)
        mutate(payload, _instance_with_witnesses(payload))
        assert _agree(payload) is valid

    def test_error_names_the_json_path(self, generated_report):
        payload = copy.deepcopy(generated_report)
        payload["instances"][3]["nodes"]["chi"] = -1
        with pytest.raises(ReportSchemaError) as info:
            CHECK(payload)
        assert str(info.value) == "instances/3/nodes/chi: -1 is less than the minimum of 0"

    def test_error_names_a_witness_key(self, generated_report):
        payload = copy.deepcopy(generated_report)
        i = _instance_with_witnesses(payload)
        pairs = payload["instances"][i]["witnesses"]["h12_pairs"]
        pairs[_first_key(pairs)][1] = -2
        with pytest.raises(ReportSchemaError) as info:
            CHECK(payload)
        where = f"instances/{i}/witnesses/h12_pairs/{_first_key(pairs)}/1: "
        assert str(info.value).startswith(where)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.floats(-3, 70)
    | st.sampled_from(["", "pass", "H10", "12", "x9", "files"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "12", "x9", "H11", "pass", "id"]), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, prefix + (i,))


# Values of the same kind as the one they replace, so many mutants stay valid.
NEAR = {
    bool: st.booleans(),
    int: st.integers(-1, 70) | st.sampled_from([0.0, 2.0, -1.0]),
    float: st.floats(-1, 100) | st.integers(-1, 100),
    str: st.sampled_from(["", "pass", "fail", "skipped", "files", "generated", "H10"]),
}


@st.composite
def mutations(draw, payload):
    """One to three edits: replace a value by one of the same kind or by any
    JSON value, delete a key, or add a key."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(payload))[1:]))
        parent = payload
        for k in path[:-1]:
            parent = parent[k]
        op = draw(st.sampled_from(["near", "near", "replace", "delete", "add"]))
        near = NEAR.get(type(parent[path[-1]]))
        if op == "near" and near is not None:
            parent[path[-1]] = draw(near)
        elif op == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == "add" and isinstance(parent[path[-1]], dict):
            key = draw(st.sampled_from(["0", "7", "x9", "H12", "H14", "extra", "value"]))
            parent[path[-1]][key] = draw(JSON_VALUES)
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return payload


class TestRandomMutations:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_agrees_with_jsonschema(self, generated_report, data):
        small = dict(generated_report, instances=generated_report["instances"][:2])
        _agree(data.draw(mutations(small)))


class TestCompiler:
    @pytest.mark.parametrize(
        "schema",
        [
            {"oneOf": [{"type": "string"}, {"type": "null"}]},
            {"type": "string", "pattern": "^a"},
            {"type": "object", "properties": {"a": {"type": "string", "pattern": "^a"}}},
            {"$defs": {"unused": {"anyOf": []}}},
            {"type": "decimal"},
            {"additionalProperties": {"type": "string"}},
            {"$ref": "other.json#/a"},
        ],
    )
    def test_refuses_what_it_does_not_support(self, schema):
        with pytest.raises(ValueError):
            compile_checker(schema)

    def test_key_matching_properties_and_pattern_is_checked_against_both(self):
        schema = {
            "type": "object",
            "properties": {"1": {"type": "number"}},
            "patternProperties": {"^[0-9]$": {"type": "integer"}},
            "additionalProperties": False,
        }
        check, oracle = compile_checker(schema), jsonschema.Draft202012Validator(schema)
        for instance in ({"1": 2}, {"1": 2.5}, {"2": 2.5}, {"12": 1}, {}, [], 3):
            assert _accepts(check, instance) == oracle.is_valid(instance)
        assert not _accepts(check, {"1": 2.5})

    def test_enum_tells_booleans_from_numbers(self):
        schema = {"enum": [1, 0.0, [True], {"a": False}, "x"]}
        check, oracle = compile_checker(schema), jsonschema.Draft202012Validator(schema)
        for instance in (1, True, 1.0, 0, False, [True], [1], {"a": False}, {"a": 0}, "x"):
            assert _accepts(check, instance) == oracle.is_valid(instance)
        assert not _accepts(check, True) and not _accepts(check, [1])

    def test_keywords_ignore_other_types(self):
        schema = {
            "minimum": 0,
            "exclusiveMinimum": 0,
            "minItems": 1,
            "maxItems": 1,
            "required": ["a"],
            "items": {"type": "string"},
            "additionalProperties": False,
        }
        check, oracle = compile_checker(schema), jsonschema.Draft202012Validator(schema)
        for instance in (None, "s", True, -1, 0, 1, [], ["s"], ["s", "t"], [1], {}, {"a": 1}):
            assert _accepts(check, instance) == oracle.is_valid(instance)


def test_a_scan_does_not_import_jsonschema(tmp_path):
    code = (
        "import sys\n"
        "from conjtri.scan import GenRecipe, ScanConfig, run_hypothesis_scan, write_report\n"
        "out = sys.argv[1]\n"
        "recipe = GenRecipe(inserts=(0, 1), subdivisions=(0,), replicates=1)\n"
        "config = ScanConfig(recipe=recipe, timeout_ms=1000, counterexample_dir=out + '/cex')\n"
        "write_report(run_hypothesis_scan(config), out + '/report.json')\n"
        "print('jsonschema' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(conjtri.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    assert (tmp_path / "report.json").exists()
