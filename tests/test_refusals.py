"""Each library refusal with its exception type and a message fragment, and,
where a command reaches it, exit 2 with the message and no traceback."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from mexp import (
    GraphFamily,
    GraphFormatError,
    InputError,
    MeasuredGraph,
    RhoTable,
    SelfAdjointOperator,
    VertexSubset,
    WalkError,
    asymptotic_profile,
    auxiliary_walk,
    cheeger_conductance,
    coarea_check,
    delta_gap,
    diameter,
    distance_gap_bound,
    eigenpairs,
    family_report,
    from_conductance,
    full_support_perturbation,
    generalised_certificate,
    heat_kernel_measure,
    kappa_constant,
    lambda_operator,
    load_conductance,
    load_graph,
    lp_energy_ratio,
    measured_gap,
    optimal_lp_constant,
    product_segment,
)
from mexp.cli import main
from mexp.families import (
    make_complete,
    make_cycle,
    make_hypercube,
    probability_counting_measure,
    random_connected_graph,
)
from mexp.rationals import RationalFormatError, parse_rational

C4 = make_cycle(4)
TWO_EDGES = MeasuredGraph.build(4, [(0, 1), (2, 3)], [1, 1, 1, 1])  # two components
SINGLE = MeasuredGraph.build(1, [], [1])
PATH_WITH_HOLE = MeasuredGraph.build(3, [(0, 1), (1, 2)], [Fraction(1, 2), Fraction(1, 2), 0])


def _vertices(*labels):
    return [{"id": label, "m": "1"} for label in labels]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _c6_family(tmp_path):
    _write(tmp_path, "fam/g0.json", _cycle_document(6))
    return str(tmp_path / "fam")


def _cycle_document(n):
    return {"vertices": _vertices(*range(n)), "edges": [[v, (v + 1) % n] for v in range(n)]}


def _c4_walk():
    return auxiliary_walk(C4)


def _split_walk():
    return from_conductance(TWO_EDGES, {(0, 1): 1, (2, 3): 1})


LIBRARY = {
    # cheeger.py
    "constraint-length": (lambda: cheeger_conductance(_c4_walk(), [1, 1, 1]), InputError, "has 3 entries for 4"),
    "constraint-zero-total": (lambda: cheeger_conductance(_c4_walk(), [0] * 4), InputError, "positive total"),
    "profile-disconnected": (lambda: asymptotic_profile(TWO_EDGES, [Fraction(1, 2)]), InputError, "connected graph"),
    "profile-radius-0": (lambda: asymptotic_profile(C4, [Fraction(1, 2)], radii=[0]), InputError, "radii must be >= 1"),
    # graphs.py
    "from-indices-range": (lambda: VertexSubset.from_indices(3, [3]), InputError, "vertex 3 out of range 0..2"),
    "build-empty": (lambda: MeasuredGraph.build(0, [], []), GraphFormatError, "at least one vertex"),
    "build-edge-end": (lambda: MeasuredGraph.build(2, [(0, 2)], [1, 1]), GraphFormatError, "unknown vertex in edge"),
    "build-measure-length": (lambda: MeasuredGraph.build(2, [(0, 1)], [1]), GraphFormatError, "1 entries for 2"),
    "build-negative": (lambda: MeasuredGraph.build(2, [(0, 1)], [1, -1]), GraphFormatError, "negative measure -1"),
    "diameter-disconnected": (lambda: diameter(TWO_EDGES), InputError, "requires a connected graph"),
    # families.py
    "cycle-2": (lambda: make_cycle(2), InputError, "at least 3 vertices"),
    "complete-0": (lambda: make_complete(0), InputError, "at least one vertex"),
    "hypercube-0": (lambda: make_hypercube(0), InputError, "dimension must be at least 1"),
    "random-connected-0": (lambda: random_connected_graph(0, random.Random(0)), InputError, "at least one vertex"),
    "segment-levels": (
        lambda: product_segment(make_cycle(4, probability_counting_measure(4)), -1),
        InputError,
        "levels must be nonnegative",
    ),
    "perturb-total": (
        lambda: full_support_perturbation(C4, VertexSubset.from_indices(4, [0]), 2),
        InputError,
        "probability measure",
    ),
    "perturb-n": (
        lambda: full_support_perturbation(PATH_WITH_HOLE, VertexSubset.from_indices(3, [0]), 0),
        InputError,
        "n must be a positive integer",
    ),
    "perturb-outside-support": (
        lambda: full_support_perturbation(PATH_WITH_HOLE, VertexSubset.from_indices(3, [2]), 1),
        InputError,
        "inside the support",
    ),
    "family-empty": (lambda: GraphFamily(()), InputError, "at least one member"),
    "threshold-0": (lambda: family_report(GraphFamily((C4,)), 0), InputError, "threshold must be positive"),
    "rho-empty": (lambda: RhoTable(()), InputError, "at least one value"),
    "member-support": (
        lambda: generalised_certificate(GraphFamily((PATH_WITH_HOLE,)), 2.0),
        InputError,
        "member 0 lacks full support",
    ),
    # poincare.py
    "kappa-valency": (lambda: kappa_constant(0, 0.5, 1.0, 2.0, 1.0), InputError, "valency bound >= 1"),
    "kappa-rho": (lambda: kappa_constant(3, 0.5, 1.0, 2.0, -1.0), InputError, "rho_plus(1) must be nonnegative"),
    "function-length": (lambda: lp_energy_ratio(_c4_walk(), [1.0, 2.0], 2.0), InputError, "does not match 4"),
    "restarts-0": (lambda: optimal_lp_constant(_c4_walk(), 2.0, restarts=0), InputError, "at least one restart"),
    # rationals.py
    "rational-bool": (lambda: parse_rational(True), RationalFormatError, "booleans are not rationals"),
    "rational-text": (lambda: parse_rational("1/x"), RationalFormatError, "cannot parse '1/x'"),
    "rational-list": (lambda: parse_rational([1]), RationalFormatError, "cannot parse list"),
    # spectral.py
    "lambda-disconnected": (lambda: lambda_operator(TWO_EDGES), InputError, "connected graphs"),
    "zero-mass-operator": (
        lambda: eigenpairs(SelfAdjointOperator(np.zeros((2, 2)), np.array([1.0, 0.0]), 2)),
        InputError,
        "strictly positive",
    ),
    "coarea-length": (lambda: coarea_check(_c4_walk(), [1, 2]), InputError, "has 2 entries for 4"),
    "delta-gap-disconnected": (lambda: delta_gap(_split_walk()), InputError, "connected graphs"),
    "gap-single-vertex": (lambda: measured_gap(SINGLE), InputError, "no positive eigenvalue"),
    # walks.py
    "conflicting-orientations": (
        lambda: from_conductance(MeasuredGraph.build(2, [(0, 1)], [1, 1]), {(0, 1): 1, (1, 0): 2}),
        WalkError,
        "conflicting conductance for edge (0, 1)",
    ),
    "isolated-vertex": (
        lambda: from_conductance(MeasuredGraph.build(3, [(0, 1)], [1, 1, 1]), {(0, 1): 1}),
        WalkError,
        "vertex 2 is isolated (mu = 0)",
    ),
    "heat-start": (lambda: heat_kernel_measure(C4, 4, 1), InputError, "vertex 4 out of range 0..3"),
    "heat-steps": (lambda: heat_kernel_measure(C4, 0, -1), InputError, "step count must be nonnegative"),
    # inequalities.py
    "distance-disconnected": (
        lambda: distance_gap_bound(_split_walk(), VertexSubset(4, 0b1), VertexSubset(4, 0b100)),
        InputError,
        "distance bound needs a connected graph",
    ),
}


@pytest.mark.parametrize("case", LIBRARY)
def test_library_refusal(case):
    call, error, fragment = LIBRARY[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_json_integer_mass_is_accepted():
    assert parse_rational(3) == 3 and type(parse_rational(3)) is Fraction
    assert load_graph({"vertices": [{"id": "a", "m": 3}]}).measure == (Fraction(3),)


def test_single_vertex_heat_kernel_stays_put():
    assert heat_kernel_measure(SINGLE, 0, 3) == (Fraction(1),)


AB = {"vertices": _vertices("a", "b"), "edges": [["a", "b"]]}

# Documents the loader refuses: (document, error, fragment).  A conductance
# section is refused by load_conductance, everything else by load_graph.
DOCUMENTS = {
    "no-vertices": ({"vertices": []}, GraphFormatError, 'nonempty "vertices" array'),
    "vertex-not-object": ({"vertices": [1]}, GraphFormatError, "vertices[0]: expected an object"),
    "list-label": ({"vertices": [{"id": [1], "m": "1"}]}, GraphFormatError, "label must be a scalar"),
    "duplicate-id": ({"vertices": _vertices("a", "a")}, GraphFormatError, "duplicate vertex id 'a'"),
    "edges-not-array": ({"vertices": _vertices("a"), "edges": {}}, GraphFormatError, '"edges" must be an array'),
    "edge-not-pair": ({"vertices": _vertices("a"), "edges": [["a"]]}, GraphFormatError, "edges[0]: expected a pair"),
    "conductance-not-array": ({**AB, "conductance": {}}, GraphFormatError, '"conductance" must be an array'),
    "conductance-not-triple": ({**AB, "conductance": [["a", "b"]]}, GraphFormatError, "expected [u, v, value]"),
    "conductance-loop": ({**AB, "conductance": [["a", "a", "1"]]}, GraphFormatError, "loop entry at 'a'"),
    "conductance-duplicate": (
        {**AB, "conductance": [["a", "b", "1"], ["b", "a", "1"]]},
        GraphFormatError,
        "conductance[1]: duplicate entry",
    ),
    "conductance-value": ({**AB, "conductance": [["a", "b", "x"]]}, GraphFormatError, "cannot parse 'x'"),
    "top-level-array": ([], GraphFormatError, "top-level document must be a JSON object"),
    "mass-bool": ({"vertices": [{"id": "a", "m": True}]}, GraphFormatError, "booleans are not rationals"),
    "mass-text": ({"vertices": [{"id": "a", "m": "one"}]}, GraphFormatError, "cannot parse 'one'"),
    "mass-list": ({"vertices": [{"id": "a", "m": [1]}]}, GraphFormatError, "cannot parse list"),
}


@pytest.mark.parametrize("case", DOCUMENTS)
def test_document_refusal(case, capsys, tmp_path):
    doc, error, fragment = DOCUMENTS[case]
    with pytest.raises(error) as info:
        load_conductance(doc, load_graph(doc))
    assert fragment in str(info.value)
    code, out, err = _run(capsys, "cheeger", "--input", _write(tmp_path, "g.json", doc))
    assert code == 2 and out == "" and "Traceback" not in err
    assert fragment in err


SPLIT = {
    "vertices": _vertices("a", "b", "c", "d"),
    "edges": [["a", "b"], ["c", "d"]],
    "conductance": [["a", "b", "1"], ["c", "d", "1"]],
}

# Commands that reach a refusal: (argv with {doc}, {dir} or {rho} for a
# written input, the document or table written there, message fragment)
COMMANDS = {
    "generate-cycle-2": (["generate", "cycle", "--n", "2"], None, "at least 3 vertices"),
    "generate-complete-0": (["generate", "complete", "--n", "0"], None, "at least one vertex"),
    "generate-hypercube-0": (["generate", "hypercube", "--d", "0"], None, "dimension must be at least 1"),
    "family-threshold-0": (["family", "--dir", "{dir}", "--threshold", "0"], None, "threshold must be positive"),
    "family-threshold-text": (["family", "--dir", "{dir}", "--threshold", "abc"], None, "cannot parse 'abc'"),
    "family-dir-is-file": (["family", "--dir", "{doc}", "--threshold", "1/5"], _cycle_document(6), "not a directory"),
    "certify-empty-rho": (["certify", "--dir", "{dir}", "--p", "2", "--rho", "{rho}"], [], "at least one value"),
    "poincare-restarts-0": (
        ["poincare", "--input", "{doc}", "--p", "2", "--restarts", "0"],
        _cycle_document(6),
        "at least one restart",
    ),
    "lambda-disconnected": (["spectrum", "--input", "{doc}", "--operator", "lambda"], SPLIT, "connected graphs"),
    "sandwich-disconnected": (["verify", "--input", "{doc}", "--theorem", "cheeger-sandwich"], SPLIT, "connected graphs"),
    "distance-disconnected": (
        ["verify", "--input", "{doc}", "--theorem", "distance-bound", "--set-a", "a", "--set-b", "c"],
        SPLIT,
        "distance bound needs a connected graph",
    ),
    # the walk is built before the random pair is drawn, so one vertex never reaches it
    "distance-single-vertex": (
        ["verify", "--input", "{doc}", "--theorem", "distance-bound"],
        {"vertices": _vertices("a")},
        "vertex 'a' is isolated (mu = 0)",
    ),
    "isolated-vertex": (
        ["cheeger", "--input", "{doc}", "--flavor", "conductance"],
        {**AB, "vertices": _vertices("a", "b", "c"), "conductance": [["a", "b", "1"]]},
        "vertex 'c' is isolated (mu = 0)",
    ),
}


@pytest.mark.parametrize("case", COMMANDS)
def test_command_refusal(case, capsys, tmp_path):
    argv, written, fragment = COMMANDS[case]
    paths = {"dir": _c6_family(tmp_path)}
    if written is not None:
        paths["doc"] = paths["rho"] = _write(tmp_path, "input.json", written)
    code, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == "" and "Traceback" not in err
    assert fragment in err


def test_delta_spectrum_of_a_disconnected_walk_is_reported(capsys, tmp_path):
    # the gap that verifiers refuse is still the spectrum's eigenvalue after the kernel
    code, out, err = _run(capsys, "spectrum", "--input", _write(tmp_path, "g.json", SPLIT), "--operator", "delta")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["zero_multiplicity"] == 2 and results["gap"] == 2.0


def test_member_without_full_support_is_refused_by_certify(capsys, tmp_path):
    vertices = [{"id": v, "m": m} for v, m in zip("abc", ("1", "1", "0"))]
    member = {"vertices": vertices, "edges": [["a", "b"], ["b", "c"]]}
    _write(tmp_path, "fam/g0.json", member)
    code, out, err = _run(capsys, "certify", "--dir", str(tmp_path / "fam"), "--p", "2")
    assert code == 2 and out == "" and "Traceback" not in err
    assert "member 0 lacks full support" in err


def test_json_integer_mass_is_accepted_by_commands(capsys, tmp_path):
    doc = {"vertices": [{"id": v, "m": 2} for v in range(4)], "edges": [[v, (v + 1) % 4] for v in range(4)]}
    code, out, err = _run(capsys, "cheeger", "--input", _write(tmp_path, "g.json", doc))
    assert code == 0, err
    assert json.loads(out)["results"]["value"] == "1"
