import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pcqi import bisim, classify, cli, graphs, ntrees, patches

from conftest import cycle, path


@pytest.fixture
def c5_file(tmp_path):
    f = tmp_path / "c5.json"
    f.write_text(graphs.to_json(cycle(5)))
    return str(f)


@pytest.fixture
def path3_file(tmp_path):
    f = tmp_path / "p3.json"
    f.write_text(graphs.to_json(path(3)))
    return str(f)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_predicates(c5_file, capsys):
    code, out = run(["predicates", "--graph", c5_file], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["vertices"] == 5 and data["girth"] == 5
    assert data["atomic"] and not data["tree"]


def test_nf(path3_file, capsys):
    code, out = run(["nf", "--graph", path3_file,
                     "--word", "b a b^-1 c"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["normal_form"] == "a c"
    assert not data["trivial"]
    assert data["support"] == ["a", "c"]


def test_patch_double_and_ball(c5_file, capsys):
    code, out = run(["patch", "--graph", c5_file, "--double", "v1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 7

    code, out = run(["patch", "--graph", c5_file, "--double", "v1:2",
                     "--format", "dot"], capsys)
    assert code == 0 and out.startswith("graph G {")

    code, out = run(["patch", "--graph", c5_file, "--ball", "0"], capsys)
    assert code == 0 and len(json.loads(out)["vertices"]) == 5


def test_nf_checks_the_generator_of_a_zero_exponent(path3_file, capsys):
    """A token with exponent 0 is the identity, but its generator must
    still be one of the graph's."""
    code = cli.main(["nf", "--graph", path3_file, "--word", "zz^0 a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unknown generator 'zz'\n"
    code, out = run(["nf", "--graph", path3_file, "--word", "a^0 b"], capsys)
    assert code == 0 and json.loads(out)["normal_form"] == "b"


def test_patch_dot_output_loads_back(tmp_path, c5_file, capsys):
    """The DOT that `patch` prints quotes names that hold `^` and spaces,
    and loads back as the patch's named graph."""
    out = tmp_path / "p.dot"
    code = cli.main(["patch", "--graph", c5_file, "--double", "v1", "--double", "v3^v1",
                     "--format", "dot", "--out", str(out)])
    assert code == 0
    p = patches.double_along_star(patches.base_patch(cycle(5)),
                                  patches.ConjugateGenerator("v1", ()), 1)
    p = patches.double_along_star(p, patches.named_vertices(p)["v3^v1"], 1)
    g = graphs.load_graph(out)
    assert g == patches.to_simplicial(p)
    assert any("^" in v and " " in v for v in g.vertices)


def test_patch_bad_vertex(c5_file, capsys):
    code = cli.main(["patch", "--graph", c5_file, "--double", "zz"])
    capsys.readouterr()
    assert code == 2


def test_patch_ball_with_double_exits_2(c5_file, capsys):
    code = cli.main(["patch", "--graph", c5_file, "--ball", "0", "--double", "v1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --double cannot be combined with --ball\n"


def test_embed_found_and_exhausted(tmp_path, c5_file, capsys):
    wedge = tmp_path / "c4.json"
    wedge.write_text(graphs.to_json(cycle(4)))
    code, out = run(["embed", "--domain", c5_file, "--codomain", c5_file,
                     "--depth", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "Found" and data["verified"]

    code, out = run(["embed", "--domain", str(wedge), "--codomain", c5_file,
                     "--depth", "1"], capsys)
    assert code == 1 and json.loads(out)["result"] == "Exhausted"


def test_gph_and_bisim(tmp_path, capsys):
    k = tmp_path / "k.json"
    k.write_text(ntrees.complex_to_json(ntrees.complex_(1, ["ab", "bc", "cd"])))
    code, out = run(["gph", "--complex", str(k)], capsys)
    assert code == 0
    data = json.loads(out)
    assert sorted(data["colors"].values()) == ["f", "p1", "p2"]

    cg = tmp_path / "cg.json"
    cg.write_text(out)
    code, out = run(["bisim", "--a", str(cg), "--b", str(cg)], capsys)
    assert code == 0 and json.loads(out)["bisimilar"]

    code, out = run(["bisim", "--a", str(cg), "--b", str(cg), "--n", "1"],
                    capsys)
    assert code == 0 and json.loads(out)["bisimilar"]


def test_bisim_accepts_separator_in_vertex_names(tmp_path, capsys):
    """A class {x, z} and a vertex named x|z get distinct quotient names."""
    cg = tmp_path / "g.json"
    cg.write_text(json.dumps({
        "vertices": ["x", "z", "x|z", "m"],
        "edges": [["x", "m"], ["z", "m"], ["m", "x|z"]],
        "colors": {"x": "p1", "z": "p1", "x|z": "p2", "m": "f"}}))
    code, out = run(["bisim", "--a", str(cg), "--b", str(cg)], capsys)
    assert code == 0 and json.loads(out)["bisimilar"] is True


def test_ntree_certificate_is_independent_of_hash_seed(tmp_path):
    """The ntree certificate is JSON data (permutation, quotient, both
    covering maps), so a 2-tree against its double prints the same bytes
    under every PYTHONHASHSEED."""
    k = ntrees.complex_(2, ["abc", "bcd", "cde"])
    d, _ = ntrees.double_ntree(k, "a")
    (tmp_path / "k.json").write_text(graphs.to_json(ntrees.skeleton(k)))
    (tmp_path / "d.json").write_text(graphs.to_json(ntrees.skeleton(d)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ntrees.__file__)))
    outs = set()
    for seed in ("1", "2", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "pcqi.cli", "classify", "--a", "d.json",
             "--b", "k.json"], cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    cert = json.loads(outs.pop())["certificate"]
    assert sorted(cert) == ["map_a", "map_b", "permutation", "quotient"]
    assert set(cert["map_a"].values()) == set(cert["quotient"]["vertices"])


def test_ntree_certificate_is_null_when_not_qi():
    verdict = classify.classify_pair(
        ntrees.skeleton(ntrees.complex_(2, ["abc", "bcd"])),
        ntrees.skeleton(ntrees.complex_(2, ["abc", "bcd", "cde"])))
    assert verdict.klass == "ntree" and verdict.verdict == "NotQI"
    assert verdict.to_json()["certificate"] is None


def test_classify_exit_codes(tmp_path, c5_file, capsys):
    c6 = tmp_path / "c6.json"
    c6.write_text(graphs.to_json(cycle(6)))
    code, out = run(["classify", "--a", c5_file, "--b", str(c6)], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "NotQI"

    code, out = run(["--always-zero", "classify", "--a", c5_file,
                     "--b", str(c6)], capsys)
    assert code == 0

    code, out = run(["classify", "--a", c5_file, "--b", c5_file,
                     "--criterion", "--budget", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["classify"]["verdict"] == "QI" and data["consistent"]


def test_classify_criterion_on_the_wedge_fixture(tmp_path, c5_file, capsys):
    """The recorded wedge-of-C5s fact nests the class verdict it overrides;
    the report prints it as JSON and exits 1 for NotQI."""
    wedge = tmp_path / "wedge.json"
    wedge.write_text(graphs.to_json(classify.wedge_of_c5s()))
    code, out = run(["classify", "--a", c5_file, "--b", str(wedge),
                     "--criterion", "--budget", "4"], capsys)
    assert code == 1
    verdict = json.loads(out)["classify"]
    assert verdict["verdict"] == "NotQI" and verdict["class"] == "fixture"
    assert verdict["certificate"]["verdict"] == "Unknown"


def test_rigidity(c5_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main(["rigidity", "--graph", c5_file, "--depth", "0",
                     "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(report.read_text())
    assert data["embeddings"] == 10 and data["failures"] == 0


def test_out_file_and_determinism(c5_file, tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["predicates", "--graph", c5_file, "--out", str(f1)]) == 0
    assert cli.main(["predicates", "--graph", c5_file, "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_text() == f2.read_text()


def test_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = cli.main(["predicates", "--graph", missing])
    capsys.readouterr()
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["predicates", "--graph", str(bad)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["embed", "--domain", "C5", "--codomain", "C5", "--depth", "-1"],
    ["classify", "--a", "C5", "--b", "C5", "--criterion", "--budget", "-1"],
    ["rigidity", "--graph", "C5", "--depth", "-1"],
])
def test_negative_depth_exits_2(c5_file, capsys, argv):
    code = cli.main([c5_file if a == "C5" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "negative" in captured.err


BAD_GRAPHS = ['{"edges": []}', '[1, 2]', '{"vertices": "ab"}',
              '{"vertices": ["a", "b"], "edges": [["a"]]}',
              '{"vertices": ["a", 2]}']
BAD_DOTS = ["graph G { a -- b", "graph G a -- b }", "graph G } a -- b {", "a -- b"]
BAD_COLORED = ['{"vertices": ["a"], "edges": []}',
               '{"vertices": ["a"], "colors": ["p1"]}',
               '{"vertices": ["a"], "colors": {"a": [1]}}',
               '{"colors": {"a": "p1"}}']
BAD_COMPLEXES = ['{"simplices": [["a", "b"]]}', '{"n": 1}',
                 '{"n": "1", "simplices": [["a", "b"]]}',
                 '{"n": 1, "simplices": ["ab"]}', '"n"']


def _malformed(tmp_path, capsys, text, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = cli.main([a.replace("BAD", str(bad)) for a in argv])
    captured = capsys.readouterr()
    return code, captured.err


@pytest.mark.parametrize("text", BAD_GRAPHS)
def test_malformed_graph_exits_2(tmp_path, capsys, text):
    code, err = _malformed(tmp_path, capsys, text, ["rigidity", "--graph", "BAD"])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", BAD_DOTS)
def test_malformed_dot_exits_2(tmp_path, capsys, text):
    code, err = _malformed(tmp_path, capsys, text, ["rigidity", "--graph", "BAD"])
    assert code == 2
    assert err == "error: DOT input has no { ... } body\n"


@pytest.mark.parametrize("text", ["graph G { a -- ; }", "digraph G { a -> b }",
                                  "graph G { a [label=x]; }"])
def test_malformed_dot_statement_exits_2(tmp_path, capsys, text):
    """A DOT statement that is not `id` or `id -- id (-- id)*`, or a
    header other than `graph [name]`, is refused, not read as vertices."""
    with pytest.raises(graphs.GraphError):
        graphs.from_dot(text)
    code, err = _malformed(tmp_path, capsys, text, ["predicates", "--graph", "BAD"])
    assert code == 2
    assert err.startswith("error: DOT ") and err.count("\n") == 1


@pytest.mark.parametrize("text", BAD_COLORED)
def test_malformed_colored_graph_exits_2(tmp_path, capsys, text):
    code, err = _malformed(tmp_path, capsys, text, ["bisim", "--a", "BAD", "--b", "BAD"])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", BAD_COMPLEXES)
def test_malformed_complex_exits_2(tmp_path, capsys, text):
    code, err = _malformed(tmp_path, capsys, text, ["gph", "--complex", "BAD"])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_vertices_key_message(tmp_path, capsys):
    code, err = _malformed(tmp_path, capsys, '{"edges": []}',
                           ["predicates", "--graph", "BAD"])
    assert code == 2 and err == "error: missing key 'vertices'\n"


_names = st.sampled_from(["a", "b", "c"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | _names,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "colors", "n",
                                       "simplices", "a", "b"]), kids, max_size=5),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_json)
def test_loaders_raise_only_value_errors(data):
    """Any JSON value either loads or raises a ValueError, which the CLI
    reports with exit 2."""
    text = json.dumps(data)
    for load in (graphs.from_json, bisim.colored_from_json, ntrees.complex_from_json):
        try:
            load(text)
        except ValueError:
            pass
