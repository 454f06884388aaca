"""CLI behaviour: exit codes, JSON reports, determinism, round trips."""

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest

from recdom import cli, enumerator, jsonio
from recdom.cli import main
from recdom.corpus import facet_pairs_sharing_a_ray, facet_pairs_sharing_no_ray, square_cone
from recdom.enumerator import BOX_LIMIT, BoxTooLarge
from recdom.geometry import Cone, FacetSelection, InvariantViolation

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


OCTAHEDRON_RAYS = [[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]]


def data_path(name):
    return os.path.join(DATA, name)


def sel_arg(pair):
    return ",".join(str(i) for i in sorted(pair))


@pytest.fixture
def adjacent():
    return sel_arg(facet_pairs_sharing_a_ray(square_cone())[0])


@pytest.fixture
def opposite():
    return sel_arg(facet_pairs_sharing_no_ray(square_cone())[0])


def test_reciprocity_exit_codes(capsys, adjacent, opposite):
    assert main(["reciprocity", data_path("square_cone.json"), "--select", adjacent]) == 0
    out = capsys.readouterr().out
    assert "holds: True" in out
    assert main(["reciprocity", data_path("square_cone.json"), "--select", opposite]) == 1
    out = capsys.readouterr().out
    assert "holds: False" in out and "degree" in out


def test_reciprocity_json_report(capsys, opposite):
    code = main(
        ["reciprocity", data_path("square_cone.json"), "--select", opposite, "--json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["cm"] == {"Q": False, "F2": False}
    assert payload["first_disagreement"] == {"degree": 0, "lhs": 1, "rhs": 0}


def test_cm_projective_plane(capsys):
    code = main(["cm", data_path("rp2.json"), "--field", "F2", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["cm"]["F2"]["is_cm"] is False
    assert payload["cm"]["F2"]["failing_face"] == []
    assert payload["cm"]["F2"]["failing_betti"] == 1
    assert main(["cm", data_path("rp2.json"), "--field", "Q"]) == 0
    capsys.readouterr()


def test_cm_on_cone_selection(capsys, adjacent):
    assert main(["cm", data_path("square_cone.json"), "--select", adjacent]) == 0
    capsys.readouterr()


def test_enumerate(capsys):
    code = main(
        ["enumerate", data_path("quadrant.json"), "--select", "0", "--degree", "4", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expansion_matches"] is True
    assert payload["series"]["points"] == sorted(
        [[x, y] for x in range(5) for y in range(5) if x + y <= 4 and y > 0]
    )


def test_enumerate_box_above_the_limit_exit_code(capsys):
    # the box [0, 10^8]^2 is refused before it is scanned
    start = time.perf_counter()
    code = main(["enumerate", data_path("quadrant.json"), "--select", "0", "--degree", "100000000"])
    assert code == 2 and time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert f"box of {(10**8 + 1) ** 2} points exceeds the limit of {BOX_LIMIT}" in err


@pytest.mark.parametrize("n", [10**30, 10**12])
def test_reciprocity_parallelepiped_above_the_limit_exit_code(capsys, tmp_path, n):
    # the ray (n, 1, 1) gives a simplicial piece with about 2n parallelepiped
    # points; they are counted from the Smith diagonal and refused before any
    # is made, not an OverflowError (10^30) or a MemoryError (10^12).  The
    # failing selection {0, 2} counts that piece's points by degree for its
    # witness, and so does the enumerator on either selection.
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"dim": 3, "rays": [[0, 0, 1], [n, 1, 1], [1, 0, 1], [1, 2, 1], [2, 1, 1]]}))
    for args in (["reciprocity", "--select", "0,2"], ["enumerate", "--select", "0"]):
        assert main([args[0], str(path)] + args[1:]) == 2
        err = capsys.readouterr().err
        assert f"exceeds the limit of {BOX_LIMIT}" in err and "Traceback" not in err


@pytest.mark.parametrize("n", [10**30, 10**12])
def test_holding_verdict_walks_no_parallelepiped(capsys, tmp_path, n):
    # on the same cone the selection {0} holds; the verdict and its witness,
    # the faces' coefficients, are read off the face lattice, and only the
    # shared numerator, one call away, walks the parallelepiped
    rays = [(0, 0, 1), (n, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"dim": 3, "rays": rays}))
    assert main(["reciprocity", str(path), "--select", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    selection = FacetSelection(Cone.from_rays(rays), frozenset({0}))
    report = enumerator.reciprocity_check(selection)
    assert report.holds and report.witness["kind"] == "identity"
    with pytest.raises(BoxTooLarge, match=f"exceeds the limit of {BOX_LIMIT}"):
        enumerator.domain_gf(enumerator.DomainSpec(selection, enumerator.COMPLEMENT))


@pytest.mark.parametrize(
    "grading, first",
    [
        ("0,0,0,1000000000000000000000", {"degree": 10**21, "lhs": 0, "rhs": 1}),
        ("1,0,0,100000000000", {"degree": 99999999999, "lhs": -1, "rhs": 0}),
    ],
    ids=["ray-degrees-1e21", "ray-degrees-near-1e11"],
)
def test_reciprocity_witness_under_huge_gradings(capsys, tmp_path, grading, first):
    # the rays' degrees are far above the number of points counted, so the
    # graded rows must be sparse and the count of ways to reach the witness's
    # degree must start at the lowest term below it, not at degree 0
    path = tmp_path / "octahedron_cone.json"
    path.write_text(json.dumps({"dim": 4, "rays": OCTAHEDRON_RAYS}))
    args = ["reciprocity", str(path), "--select", "0,1,2,5,6", "--grading", grading, "--json"]
    assert main(args) == 1
    assert json.loads(capsys.readouterr().out)["first_disagreement"] == first


def test_separate_exit_codes(capsys, adjacent, opposite):
    assert main(["separate", data_path("square_cone.json"), "--select", adjacent]) == 0
    capsys.readouterr()
    assert main(["separate", data_path("square_cone.json"), "--select", opposite]) == 1
    capsys.readouterr()


def test_shell_deterministic(capsys):
    args = ["shell", data_path("square_cone.json"), "--seed", "3", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert sorted(payload["order"]) == [0, 1, 2, 3]


def test_shell_with_point(capsys):
    code = main(
        ["shell", data_path("square_cone.json"), "--point", "20,3/5,1", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"][0] == 0 and payload["order"][-1] == 3


def test_colon(capsys, adjacent):
    code = main(
        ["colon", data_path("square_cone.json"), "--select", adjacent, "--degree", "6", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["points_scanned"] == payload["members"] + len(payload["witnesses"])


def test_lift(capsys):
    code = main(["lift", data_path("two_segments.json"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_hull_verified"] is True
    assert payload["max_value"] == "6"
    assert payload["lift_values"] == ["6", "4", "4", "6"]


def test_schlegel(capsys):
    code = main(
        ["schlegel", data_path("cube_two_squares.json"), "--avoid", "5", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ambient_dim"] == 2
    assert len(payload["facets"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["reciprocity", str(bad), "--select", "0"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_missing_file_exit_code(capsys):
    assert main(["reciprocity", "no_such_file.json", "--select", "0"]) == 2
    capsys.readouterr()


INPUT_ARGS = {
    "reciprocity": ["--select", "0"],
    "cm": [],
    "lift": [],
    "schlegel": ["--avoid", "0"],
}


@pytest.mark.parametrize("command", sorted(INPUT_ARGS))
def test_unreadable_input_exit_code(capsys, command):
    # a directory cannot be opened as a file: an input error, not a verdict
    assert main([command, DATA] + INPUT_ARGS[command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("data", [[1, 2], "x", 3, None], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("command", sorted(INPUT_ARGS))
def test_non_object_json_exit_code(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)] + INPUT_ARGS[command]) == 2
    assert "JSON input must be an object" in capsys.readouterr().err


def test_semantic_error_exit_code(capsys):
    # full facet set is not a proper selection
    assert main(["reciprocity", data_path("quadrant.json"), "--select", "0,1"]) == 2
    err = capsys.readouterr().err
    assert "proper subset" in err


@pytest.mark.parametrize(
    "cone, message",
    [
        ({"rays": [[0, 0, 1], [1.5, 0, 1], [0, 1, 1], [1, 1, 1]]}, "lists of integers"),
        ({"rays": [[0, 0, 1], [True, 0, 1], [0, 1, 1], [1, 1, 1]]}, "lists of integers"),
        ({"rays": [[0, 0, 1], ["2", 0, 1], [0, 1, 1], [1, 1, 1]]}, "lists of integers"),
        ({"inequalities": [[1, 0], [0, 1.0]]}, "lists of integers"),
        ({"rays": []}, '"rays" must be a nonempty list'),
        ({"inequalities": []}, '"inequalities" must be a nonempty list'),
        ({"inequalities": [[1, 0]]}, "containing a line"),
    ],
    ids=["float", "bool", "string", "float-inequality", "no-rays", "no-inequalities", "half-plane"],
)
def test_bad_cone_json_exit_code(tmp_path, capsys, cone, message):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(cone))
    assert main(["reciprocity", str(path), "--select", "0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("cm", {"facets": [[0, 1.7, 2], [True, 2, 3]]}, "lists of integers"),
        ("cm", {"facets": []}, '"facets" must be a nonempty list'),
        ("cm", {"facets": [[0, 1], []]}, "nonempty lists of vertex indices"),
        ("cm", {"facets": [[0, -1]]}, "nonempty lists of vertex indices"),
        ("cm", {"facets": [[0, "1"]]}, "lists of integers"),
        ("cm", {"facets": [[0, 1]], "vertices": 5}, '"vertices" must be a list'),
        ("cm", {"vertices": [[0], [1]], "facets": [[0, 5]]}, "nonempty lists of vertex indices"),
        ("cm", {"vertices": [[0], [1]], "facets": [[0, 0]]}, "repeats a vertex"),
        ("cm", {"vertices": [[0], [1]]}, 'complex JSON needs "facets"'),
        ("lift", {"facets": [[0, 1]]}, 'complex JSON needs "vertices"'),
        ("lift", {"vertices": [["0"], ["1"]]}, 'complex JSON needs "facets"'),
        ("lift", {"vertices": [["0"], ["1"]], "facets": [[0, 1.0]]}, "lists of integers"),
        ("lift", {"vertices": [["0"], ["1"]], "facets": [[0, 2]]}, "vertex indices"),
        ("lift", {"vertices": [["0"], ["1"]], "facets": [[0, -1]]}, "vertex indices"),
        ("lift", {"vertices": ["01", "23"], "facets": [[0, 1]]}, "points of one length"),
        ("lift", {"vertices": [["0"], ["1", "0"]], "facets": [[0, 1]]}, "points of one length"),
        ("lift", {"vertices": [["1/0"], ["1"]], "facets": [[0, 1]]}, "zero denominator"),
        ("lift", {"vertices": [["0"], ["1"]], "facets": [[0, 1]], "ambient_dim": 1.0}, "integer"),
        ("lift", {"vertices": [["0"], ["1"]], "facets": [[0, 1]], "ambient_dim": 2}, "ambient_dim 2"),
        ("lift", {"vertices": [[0, 0], [4, 0], [0, 4], [1, 1]], "facets": [[0, 1, 2, 3]]}, "distinct vertices"),
        ("lift", {"vertices": [[0, 0], [4, 0], [0, 4], [1, 1]], "facets": [[0, 1, 1, 2]]}, "distinct vertices"),
        ("lift", {"vertices": [[0, 0], [0, 0], [1, 0]], "facets": [[0, 1, 2]]}, "distinct vertices"),
        ("lift", {"vertices": [[0, 0], [2, 2], [0, 2], [2, 0]], "facets": [[0, 1], [2, 3]]}, "not embedded"),
        ("separate", {"dim": 3.9, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1]]}, '"dim" must be an integer'),
        ("separate", {"dim": True, "rays": [[0, 1], [1, 0]]}, '"dim" must be an integer'),
    ],
    ids=[
        "float-and-bool-index", "no-facets", "empty-facet", "negative-index", "string-index",
        "integer-vertices", "index-past-vertices", "repeated-facet-index",
        "cm-missing-facets", "missing-vertices", "lift-missing-facets",
        "float-cell-index", "cell-index-out-of-range", "negative-cell-index",
        "string-vertices", "ragged-vertices", "zero-denominator",
        "float-ambient-dim", "wrong-ambient-dim",
        "point-inside-hull", "repeated-index", "repeated-coordinates", "crossing-segments",
        "float-dim", "bool-dim",
    ],
)
def test_bad_complex_json_exit_code(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    select = ["--select", "0"] if command == "separate" else []
    assert main([command, str(path)] + select) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["reciprocity", "--select", "0", "--grading", "1,1"], "grading length 2"),
        (["reciprocity", "--select", "0", "--grading=-1,0,0"], "not strictly positive"),
        (["shell", "--point", "1/0,1,1"], "zero denominator"),
        (["shell", "--point", "1,1"], "point has 2 coordinates"),
        (["colon", "--select", "0", "--degree=-1"], "bound must be nonnegative"),
    ],
    ids=[
        "short-grading", "negative-grading", "zero-denominator-point", "short-point",
        "negative-degree",
    ],
)
def test_bad_argument_exit_code(capsys, args, message):
    command, *options = args
    assert main([command, data_path("square_cone.json")] + options) == 2
    assert message in capsys.readouterr().err


def test_schlegel_cells_must_be_vertex_indices(tmp_path, capsys):
    data = {"vertices": [["0", "0", "0"], ["1", "0", "0"]], "cells": [[0, 1.5]]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(data))
    assert main(["schlegel", str(path), "--avoid", "0"]) == 2
    assert "lists of integers" in capsys.readouterr().err


def test_large_prime_field_is_accepted_quickly(capsys):
    # 2^61 - 1 is prime; trial division up to its square root never ended
    assert main(["cm", data_path("rp2.json"), "--field", "F2305843009213693951"]) == 0
    assert "F2305843009213693951: {'is_cm': True" in capsys.readouterr().out
    assert main(["cm", data_path("rp2.json"), "--field", "F561"]) == 2
    assert "prime" in capsys.readouterr().err


def test_schlegel_avoid_out_of_range_exit_code(capsys):
    code = main(["schlegel", data_path("square_cone.json"), "--avoid", "4", "--select", "0"])
    assert code == 2
    assert "facet index 4 out of range" in capsys.readouterr().err


# The options each subcommand's handler reads, besides its input and --json.
READS = {
    "enumerate": {"--select", "--degree", "--grading", "--side"},
    "reciprocity": {"--select", "--field", "--grading"},
    "cm": {"--select", "--field"},
    "separate": {"--select"},
    "shell": {"--seed", "--point"},
    "colon": {"--select", "--degree", "--grading"},
    "lift": set(),
    "schlegel": {"--select", "--avoid", "--cells"},
    "corpus": {"--degree", "--seed"},
}
OPTION_VALUES = {
    "--select": "0",
    "--degree": "4",
    "--field": "Q",
    "--grading": "1,1,1",
    "--seed": "1",
    "--side": "selected",
    "--point": "1,1,1",
    "--avoid": "0",
    "--cells": "0,1",
}


def test_each_subcommand_takes_only_the_options_it_reads():
    subparsers = cli._build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(READS)
    total = 0
    for command, parser in subparsers.items():
        options = {
            action.option_strings[-1]
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        }
        assert options == READS[command] | {"--json"}, command
        total += len(options)
    assert total == 29


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c in sorted(READS) for o in sorted(OPTION_VALUES) if o not in READS[c]],
)
def test_unread_option_is_a_usage_error(capsys, command, option):
    args = [command] if command == "corpus" else [command, data_path("square_cone.json")]
    if command == "schlegel":
        args += ["--avoid", "0"]
    with pytest.raises(SystemExit) as raised:
        main(args + [option, OPTION_VALUES[option]])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {option} " in capsys.readouterr().err


def test_unread_option_is_reported_by_the_subcommand(capsys):
    # the subcommand's usage shows the options it does take
    with pytest.raises(SystemExit) as raised:
        main(["lift", data_path("two_segments.json"), "--grading", "1"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: recdom lift ")
    assert "recdom lift: error: unrecognized arguments: --grading 1\n" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["reciprocity", "square_cone.json", "--select", "0,,1"], "--select 0,,1 has an empty facet index"),
        (["reciprocity", "square_cone.json", "--select", "0,1,"], "--select 0,1, has an empty facet index"),
        (["reciprocity", "square_cone.json", "--select", "0,0,1"], "--select 0,0,1 repeats facet index 0"),
        (["cm", "rp2.json", "--field", "Q", "--field", "Q"], "--field Q repeats the field Q"),
        (["cm", "rp2.json", "--field", "F2", "--field", "2"], "--field 2 repeats the field F2"),
    ],
    ids=["empty-index", "trailing-comma", "repeated-index", "repeated-field", "same-field-twice"],
)
def test_malformed_input_is_not_read_as_other_input(capsys, args, message):
    command, name, *options = args
    assert main([command, data_path(name)] + options) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}\n" == captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["cm", "rp2.json", "--select", "0"], "--select does not apply to a simplicial complex"),
        (
            ["schlegel", "cube_two_squares.json", "--avoid", "5", "--select", "0"],
            "--select does not apply to a polytope's vertices",
        ),
        (
            ["schlegel", "square_cone.json", "--select", "0", "--avoid", "2", "--cells", "0,1"],
            "--cells does not apply to a cone",
        ),
    ],
    ids=["cm-select-on-complex", "schlegel-select-on-vertices", "schlegel-cells-on-cone"],
)
def test_option_that_does_not_fit_the_input_exit_code(capsys, args, message):
    command, name, *options = args
    assert main([command, data_path(name)] + options) == 2
    assert message in capsys.readouterr().err


def test_invariant_violation_exit_code(monkeypatch, capsys, adjacent):
    def broken(*args, **kwargs):
        raise InvariantViolation("planted defect")

    monkeypatch.setattr(cli, "reciprocity_check", broken)
    assert main(["reciprocity", data_path("square_cone.json"), "--select", adjacent]) == 3
    assert "internal error: planted defect" in capsys.readouterr().err


def test_lattice_verdict_against_agreeing_numerators_exit_code(monkeypatch, capsys, adjacent):
    # a witness asked for where the lattice gives both sides the same face
    # coefficients: the numerators agree and no degree can witness a
    # disagreement, an internal fault, not an input error
    selection = FacetSelection(square_cone(), frozenset(map(int, adjacent.split(","))))
    cone = selection.cone
    lhs, rhs = enumerator._lattice_sides(selection)
    assert lhs == rhs

    def agreeing(selection, *args, **kwargs):
        table, w = enumerator._face_table(cone), enumerator.default_grading(cone)
        return enumerator._graded_disagreement(table, cone, w, lhs, rhs)

    with pytest.raises(InvariantViolation, match="numerators agree"):
        agreeing(selection)
    monkeypatch.setattr(cli, "reciprocity_check", agreeing)
    assert main(["reciprocity", data_path("square_cone.json"), "--select", adjacent]) == 3
    assert "numerators agree" in capsys.readouterr().err


def test_corpus_json_is_byte_stable(capsys):
    assert main(["corpus", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_report_determinism(capsys, opposite):
    args = [
        "reciprocity",
        data_path("square_cone.json"),
        "--select",
        opposite,
        "--json",
    ]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_data_files_round_trip():
    for name in os.listdir(DATA):
        path = os.path.join(DATA, name)
        with open(path) as handle:
            data = json.load(handle)
        if "rays" in data:
            cone = jsonio.cone_from_dict(data)
            again = jsonio.cone_from_dict(jsonio.cone_to_dict(cone))
            assert again == cone
        elif "cells" in data:
            continue  # plain polytope input for schlegel
        elif "ambient_dim" in data:
            pc = jsonio.embedded_from_dict(data)
            again = jsonio.embedded_from_dict(jsonio.embedded_to_dict(pc))
            assert again.vertices == pc.vertices and again.cells == pc.cells
        else:
            sc = jsonio.simplicial_from_dict(data)
            again = jsonio.simplicial_from_dict(jsonio.simplicial_to_dict(sc))
            assert again == sc


# SHA-256 of every run of data_file_runs(), computed before the selections
# chain moved to integers.  It may change only with an intended change of
# some report, and that change is stated in CHANGES.md.
DATA_FILE_RUNS_SHA256 = "d17d29d7185afe11cecd3da937ecb6c178af4835d006bfbf394efaacaa71bc9b"
DATA_FILE_RUNS = 334
COMMANDS = ("enumerate", "reciprocity", "cm", "separate", "shell", "colon", "lift", "schlegel")


def data_file_runs():
    """Arguments of every subcommand with --json on every data file, paths
    relative to the repository root.  On a cone: each command that takes a
    selection once per selection (schlegel avoiding the least facet outside
    it), shell once per seed 0..4 and lift once.  On any other file: each
    command once (schlegel avoiding facet 0)."""
    per_selection = ("enumerate", "reciprocity", "cm", "separate", "colon", "schlegel")
    for name in sorted(os.listdir(DATA)):
        path = os.path.join("data", name)
        data = jsonio.read(data_path(name))
        if "rays" not in data:
            for command in COMMANDS:
                extra = ["--avoid", "0"] if command == "schlegel" else []
                yield [command, path, "--json"] + extra
            continue
        n = len(jsonio.cone_from_dict(data).facets)
        for command in per_selection:
            for size in range(1, n):
                for subset in combinations(range(n), size):
                    extra = ["--select", sel_arg(subset)]
                    if command == "schlegel":
                        extra += ["--avoid", str(min(set(range(n)) - set(subset)))]
                    yield [command, path, "--json"] + extra
        for seed in range(5):
            yield ["shell", path, "--json", "--seed", str(seed)]
        yield ["lift", path, "--json"]


def data_file_digest():
    """SHA-256 of the arguments, exit code, stdout and stderr of each run,
    run in-process, and the number of runs."""
    digest = hashlib.sha256()
    runs = 0
    for args in data_file_runs():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
        digest.update(repr((args, code, out.getvalue(), err.getvalue())).encode())
        runs += 1
    return digest.hexdigest(), runs


def test_cli_reports_on_data_files_are_byte_stable(monkeypatch):
    monkeypatch.chdir(os.path.join(DATA, os.pardir))
    digest, runs = data_file_digest()
    assert runs == DATA_FILE_RUNS
    assert digest == DATA_FILE_RUNS_SHA256, (
        "a CLI report on data/*.json changed; update the constant only for an "
        "intended output change, and state that change in CHANGES.md"
    )
