"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from volentropy import build_graph, spectral, volume_entropy
from volentropy.cli import main
from volentropy.documents import gog_from_document

from builders import THETA_DOC, complete_bipartite, double_cover_doc, graph_doc


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.graph"
    path.write_text(yaml.safe_dump(THETA_DOC))
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    doc = graph_doc(
        ["a", "b", "c", "d"],
        [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "d", 1), ("e4", "d", "a", 1)],
    )
    path = tmp_path / "cycle4.graph"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "structured"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_entropy_theta(capsys, theta_file):
    code, doc = run_json(capsys, ["entropy", theta_file])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["h"] == pytest.approx(math.log(2), rel=1e-9)
    assert set(doc["vector"]) == {"e1+", "e1-", "e2+", "e2-", "e3+", "e3-"}
    assert doc["residual"] <= 1e-9


def test_entropy_cycle_fails_validation(capsys, cycle_file):
    code = main(["entropy", cycle_file])
    assert code == 1
    assert "hypotheses" in capsys.readouterr().err


def test_validate(capsys, theta_file, cycle_file):
    assert main(["validate", theta_file]) == 0
    assert main(["validate", cycle_file]) == 1
    out = capsys.readouterr().out
    assert "cycle" in out


def test_volume(capsys, theta_file):
    code, doc = run_json(capsys, ["volume", theta_file])
    assert code == 0 and doc["volume"] == 3


def test_minimize_k4(capsys, tmp_path):
    import itertools

    edges = [
        (f"e{i}", f"v{a}", f"v{b}", 1)
        for i, (a, b) in enumerate(itertools.combinations(range(4), 2), 1)
    ]
    path = tmp_path / "k4.graph"
    path.write_text(yaml.safe_dump(graph_doc([f"v{i}" for i in range(4)], edges)))
    code, doc = run_json(capsys, ["minimize", str(path), "--samples", "3"])
    assert code == 0
    assert doc["h_min"] == pytest.approx(6 * math.log(2), rel=1e-9)
    assert all(v == pytest.approx(1 / 6, rel=1e-9) for v in doc["lengths"].values())
    assert doc["all_samples_above_minimum"] is True


def test_oracle(capsys, theta_file):
    code, doc = run_json(capsys, ["oracle", theta_file, "--r-max", "20"])
    assert code == 0
    assert doc["counts"][0] == str(3 * 2**9)
    assert float(doc["h_est"]) == pytest.approx(math.log(2), rel=0.02)


SUBDIVIDED_THETA_DOC = graph_doc(
    ["a", "b", "m"],
    [("e1", "a", "b", 1), ("e2", "a", "b", 1),
     ("e3a", "a", "m", "1/2"), ("e3b", "m", "b", "1/2")],
)


def test_reduce(capsys, tmp_path):
    path = tmp_path / "sub.graph"
    path.write_text(yaml.safe_dump(SUBDIVIDED_THETA_DOC))
    code, out = run_json(capsys, ["reduce", str(path)])
    assert code == 0
    assert out["chains"]["e3a"] == ["e3a+", "e3b+"]
    assert {e["id"]: e["length"] for e in out["graph"]["edges"]}["e3a"] == 1


def test_gog_entropy(capsys, tmp_path):
    doc = {
        "vertices": ["x", "y"],
        "edges": [{"u": "x", "v": "y", "length": 1, "id": "e"}],
        "groups": {"vertex_orders": {"x": 3, "y": 3}, "edge_orders": {"e": 1}},
    }
    path = tmp_path / "seg.graph"
    path.write_text(yaml.safe_dump(doc))
    code, out = run_json(capsys, ["gog-entropy", str(path)])
    assert code == 0
    assert out["h"] == pytest.approx(math.log(2), rel=1e-9)
    assert out["degrees"] == {"x": 3, "y": 3}


def test_gog_entropy_with_orders_beyond_machine_integers(capsys, tmp_path):
    # Orders of 1e20 and more divide to the tree degrees 3 and 4 exactly.
    results = []
    for scale in (1, 10**20):
        doc = {
            "vertices": ["x", "y"],
            "edges": [{"u": "x", "v": "y", "length": 1, "id": "e"}],
            "groups": {
                "vertex_orders": {"x": 3 * scale, "y": 4 * scale},
                "edge_orders": {"e": scale},
            },
        }
        path = tmp_path / f"seg{scale}.graph"
        path.write_text(yaml.safe_dump(doc))
        code, out = run_json(capsys, ["gog-entropy", str(path)])
        assert code == 0
        assert out["degrees"] == {"x": 3, "y": 4}
        results.append(out["h"])
    assert results[0] == results[1]


def test_orders_beyond_the_float_range_are_invalid(capsys, tmp_path):
    # 400-digit orders: the tree degrees are still 3 and 4, but the edge
    # order does not fit the solver's floats, nor the vertex orders the
    # closed form's.
    scale = 10**400
    path = tmp_path / "seg400.graph"
    path.write_text(yaml.safe_dump({
        "vertices": ["x", "y"],
        "edges": [{"u": "x", "v": "y", "length": 1, "id": "e"}],
        "groups": {
            "vertex_orders": {"x": 3 * scale, "y": 4 * scale},
            "edge_orders": {"e": scale},
        },
    }))
    for subcommand, owner in (("gog-entropy", "edge 'e'"), ("gog-minimize", "vertex 'x'")):
        assert main([subcommand, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {owner}: group order exceeds the float range (about 1.8e308)\n"


def test_gog_minimize(capsys, tmp_path):
    doc = {
        "vertices": ["x", "y"],
        "edges": [{"u": "x", "v": "y", "id": "e"}],
        "groups": {"vertex_orders": {"x": 3, "y": 4}, "edge_orders": {"e": 1}},
    }
    path = tmp_path / "seg.graph"
    path.write_text(yaml.safe_dump(doc))
    code, out = run_json(capsys, ["gog-minimize", str(path)])
    assert code == 0
    assert out["h_min"] == pytest.approx(0.5 * math.log(6), rel=1e-9)
    assert out["lengths"]["e"] == pytest.approx(1.0, rel=1e-9)


def test_cover_check(capsys, tmp_path):
    path = tmp_path / "cover.graph"
    path.write_text(yaml.safe_dump(double_cover_doc()))
    code, out = run_json(capsys, ["cover-check", str(path)])
    assert code == 0
    assert out["valid"] is True and out["sheets"] == 2
    assert out["inequality"]["equality"] is True
    assert out["inequality"]["ratio"] == pytest.approx(0.5, rel=1e-6)


def test_cover_check_invalid(capsys, tmp_path):
    doc = double_cover_doc()
    doc["emap"]["f5"] = "e2"
    path = tmp_path / "cover.graph"
    path.write_text(yaml.safe_dump(doc))
    assert main(["cover-check", str(path)]) == 1


@pytest.mark.parametrize("part, value", [("source", ""), ("source", [1]), ("target", "")])
def test_cover_part_not_a_mapping_is_usage_error(capsys, tmp_path, part, value):
    doc = double_cover_doc()
    doc[part] = value
    path = tmp_path / "cover.graph"
    path.write_text(yaml.safe_dump(doc))
    assert main(["cover-check", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {part}: must be a mapping\n"


def test_dump_matrix(capsys, theta_file):
    code, doc = run_json(capsys, ["entropy", theta_file, "--dump-matrix"])
    assert code == 0
    assert len(doc["matrix"]) == 12
    first = doc["matrix"][0].split()
    assert len(first) == 3
    assert float(first[2]) == pytest.approx(0.5, rel=1e-9)


def test_gog_dump_matrix_matches_plain(capsys, theta_file):
    # theta's document has no groups, so every order is 1
    def matrix_lines(argv):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return lines[lines.index("matrix:") + 1:]

    plain = matrix_lines(["entropy", theta_file, "--dump-matrix"])
    assert len(plain) == 12
    assert matrix_lines(["gog-entropy", theta_file, "--dump-matrix"]) == plain


def test_dump_matrix_carries_the_solvers_bits(capsys, tmp_path):
    # Each dumped entry is the dense assembled matrix's entry at the solved h,
    # bit for bit; an entry recomputed with math.exp would differ in the last
    # bit from np.exp for some arguments on some CPUs.
    doc = graph_doc(["a", "b"], [("e1", "a", "b", 1), ("e2", "a", "b", 1), ("e3", "a", "b", 4)])
    path = tmp_path / "theta114.graph"
    path.write_text(yaml.safe_dump(doc))
    gog = gog_from_document(doc)
    systems = {
        "entropy": spectral.edge_system(build_graph(doc)),
        "gog-entropy": spectral.edge_system(gog.graph, gog.orders),
    }
    for subcommand, system in systems.items():
        code, out = run_json(capsys, [subcommand, str(path), "--dump-matrix"])
        assert code == 0
        matrix = spectral.assemble(
            system.rows, system.cols, system.vals, system.order, out["h"], system.lengths
        )
        index = {eid: i for i, eid in enumerate(system.edge_ids)}
        assert len(out["matrix"]) == 12
        for line in out["matrix"]:
            e, f, value = line.split()
            assert float(value) == matrix[index[e], index[f]]


def test_runs_without_scipy():
    # A fresh interpreter in which importing scipy fails must still load the
    # CLI and solve K5,7, whose 70 oriented edges take the power-iteration path.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import volentropy.cli\n"
        "from builders import complete_bipartite\n"
        "from volentropy import volume_entropy\n"
        "print(repr(volume_entropy(complete_bipartite(5, 7)).h))\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    h = volume_entropy(complete_bipartite(5, 7)).h
    assert float(done.stdout) == pytest.approx(h, rel=1e-12)


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "theta.yaml"],
        ["oracle", "theta.yaml", "--r-max", "40"],
        ["gog-minimize", "segment34.yaml"],
        ["minimize", "k4.yaml", "--samples", "0"],
        # Valency-2 chains: the pulled-back minimizer needs no solve either.
        ["minimize", SUBDIVIDED_THETA_DOC, "--samples", "0"],
    ],
)
def test_non_solving_subcommands_skip_numpy(capsys, tmp_path, argv):
    # A fresh interpreter in which importing numpy fails must run the
    # subcommands that solve nothing, with the same output as in process.
    if isinstance(argv[1], dict):
        path = tmp_path / "chain.graph"
        path.write_text(yaml.safe_dump(argv[1]))
    else:
        path = FIXTURES / argv[1]
    argv = [argv[0], str(path), *argv[2:]]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from volentropy.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_missing_file_is_usage_error(capsys, tmp_path):
    assert main(["entropy", str(tmp_path / "nope.graph")]) == 3


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
def test_unreadable_document_is_usage_error(capsys, tmp_path, kind):
    path = tmp_path / "doc.graph"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"vertices: [\xff\xfe]\n")
    assert main(["entropy", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err


def test_empty_base_vertex_is_unknown(capsys, theta_file):
    assert main(["oracle", theta_file, "--base-vertex", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown base vertex ''" in captured.err


def test_malformed_document_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("vertices: [a\n")
    assert main(["entropy", str(path)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_mixed_type_keys_are_usage_error(capsys, tmp_path):
    path = tmp_path / "mixed.graph"
    path.write_text("vertices: [a, b]\nedges:\n  - {u: a, v: b, length: 1}\n1: 2\nx: 3\n")
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert "unknown fields [1, 'x']" in captured.err
    assert "Traceback" not in captured.err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["entropy", "--bogus"]) == 3


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [
        ("entropy", "--tol-root", "0"),
        ("entropy", "--tol-root", "nan"),
        ("entropy", "--tol-root", "inf"),
        ("entropy", "--tol-root", "-1e-9"),
        ("entropy", "--tol-residual", "nan"),
        ("entropy", "--tol-residual", "inf"),
        ("gog-entropy", "--tol-residual", "0"),
        ("oracle", "--r-max", "0"),
        ("minimize", "--samples", "-1"),
        ("minimize", "--seed", "-1"),
        ("minimize", "--samples", "1.5"),
    ],
)
def test_out_of_range_argument_is_usage_error(capsys, theta_file, subcommand, flag, value):
    assert main([subcommand, theta_file, f"{flag}={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: argument {flag}: ")


@pytest.mark.parametrize(
    "subcommand", ["validate", "volume", "oracle", "reduce", "gog-minimize", "cover-check"]
)
def test_tolerances_only_where_a_solve_reads_them(capsys, theta_file, subcommand):
    for flag in ("--tol-root", "--tol-residual"):
        assert main([subcommand, theta_file, flag, "1e-6"]) == 3
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["entropy"], ["minimize", "--samples", "2"], ["gog-entropy"]],
)
def test_solving_subcommands_take_tolerances(capsys, theta_file, argv):
    argv = [argv[0], theta_file, *argv[1:], "--tol-root", "1e-10", "--tol-residual", "1e-6"]
    assert main(argv) == 0


def test_nonconvergence_is_numerical_error(capsys, theta_file):
    code = main(["entropy", theta_file, "--tol-residual", "1e-18"])
    assert code == 2


def test_structured_output_round_trips(capsys, theta_file):
    code1, doc1 = run_json(capsys, ["entropy", theta_file])
    code2, doc2 = run_json(capsys, ["entropy", theta_file])
    assert code1 == code2 == 0
    assert doc1 == doc2


@pytest.mark.parametrize("subcommand", ["entropy", "validate"])
@pytest.mark.parametrize("edges, message", [
    ([("e1", "a", "b", 1), ("e2", "a", "b", 1)], "isolated vertex 'c'"),
    (
        [("e1", "a", "b", 1), ("e2", "c", "c", 1)],
        "graph is disconnected; components: (('a', 'b'), ('c',))",
    ),
])
def test_invalid_graph_build_exit_status(capsys, tmp_path, subcommand, edges, message):
    path = tmp_path / "bad.graph"
    path.write_text(yaml.safe_dump(graph_doc(["a", "b", "c"], edges)))
    assert main([subcommand, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
