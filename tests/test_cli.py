import dataclasses
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from chordalkit import cli
from chordalkit.cli import main
from chordalkit.cliquetree import complement_mls_generators
from chordalkit.fixtures import fixture
from chordalkit.graph import complement_is_connected, materialize_complement, parse_edge_list
from chordalkit.oracle import is_chordal


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name in ("fig1_h", "fig3_g", "fig4_g"):
        p = tmp_path / f"{name}.txt"
        p.write_text(fixture(name).edge_list_text(), encoding="utf-8")
        paths[name] = str(p)
    c4 = tmp_path / "c4.txt"
    c4.write_text("a b\nb c\nc d\nd a\n", encoding="utf-8")
    paths["c4"] = str(c4)
    c5 = tmp_path / "c5.txt"
    c5.write_text("1 2\n2 3\n3 4\n4 5\n5 1\n", encoding="utf-8")
    paths["c5"] = str(c5)
    c5_pendant = tmp_path / "c5_pendant.txt"
    c5_pendant.write_text("1 2\n2 3\n3 4\n4 5\n5 1\n1 6\n", encoding="utf-8")
    paths["c5_pendant"] = str(c5_pendant)
    k3 = tmp_path / "k3.txt"
    k3.write_text("a b\nb c\na c\n", encoding="utf-8")
    paths["k3"] = str(k3)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliquetree:
    def test_mls_json(self, files, capsys):
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--mls", "--structure", "mcs",
                             "--format", "json", "--validate")
        assert code == 0, err
        data = json.loads(out)
        assert set(data) == {"cliques", "edges", "separators", "ordering"}
        assert len(data["cliques"]) == 3
        assert sorted(map(tuple, data["separators"])) == [("e",), ("f",)]

    def test_default_mode_is_mls(self, files, capsys):
        code1, out1, _ = run(capsys, "cliquetree", files["fig1_h"])
        code2, out2, _ = run(capsys, "cliquetree", files["fig1_h"], "--mls")
        assert code1 == code2 == 0 and out1 == out2

    def test_dcl_lexdfs_rejected(self, files, capsys):
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--dcl", "--structure", "lexdfs")
        assert code == 1
        assert "NonDclStructure" in err

    def test_dcl_mcs_matches_mls(self, files, capsys):
        _, out1, _ = run(capsys, "cliquetree", files["fig1_h"], "--dcl", "--structure", "mcs")
        _, out2, _ = run(capsys, "cliquetree", files["fig1_h"], "--mls", "--structure", "mcs")
        assert json.loads(out1) == json.loads(out2)

    def test_complement_generators_scripted(self, files, capsys):
        code, out, err = run(
            capsys, "cliquetree", files["fig3_g"], "--complement", "--generators",
            "--structure", "lexdfs", "--tiebreak", "script:a,b,c,d,e,f", "--validate",
        )
        assert code == 0, err
        data = json.loads(out)
        assert data["gen_cliques"] == ["e", "c", "a"]
        assert data["gen_separators"] == ["d", "b"]
        assert data["ordering"] == list("abcdef")
        assert out == ('{\n  "gen_cliques": [\n    "e",\n    "c",\n    "a"\n  ],\n'
                       '  "gen_separators": [\n    "d",\n    "b"\n  ],\n'
                       '  "ordering": [\n    "a",\n    "b",\n    "c",\n    "d",\n    "e",\n    "f"\n  ]\n}\n')

    @pytest.mark.parametrize("text,structure", [
        ("a b\nb c\nc d\nd e\ne a\n", "mcs"),
        ("a b\nb c\nc d\nd e\ne f\nf a\n", "lexbfs"),
    ], ids=["c5", "c6"])
    def test_complement_generators_reject_a_non_chordal_complement(self, tmp_path, capsys, text, structure):
        # the complement of a cycle of length 5 or 6 holds a chordless cycle
        p = tmp_path / "cycle.txt"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "cliquetree", str(p), "--complement", "--generators",
                             "--structure", structure)
        assert (code, out) == (1, "")
        assert err.startswith("error: ComplementNotChordal: ")

    def test_complement_generators_check_matches_oracle(self, tmp_path, capsys):
        # exit 0 exactly when the complement is chordal, under every structure
        p = tmp_path / "g.txt"
        outcomes = []
        for seed in range(120):
            rng = random.Random(seed)
            n, density = rng.randint(4, 8), rng.uniform(0.2, 0.8)
            text = "".join(f"v{u} v{v}\n" for u in range(n) for v in range(u + 1, n) if rng.random() < density)
            if not text or not complement_is_connected(g := parse_edge_list(text)):
                continue
            p.write_text(text, encoding="utf-8")
            want = 0 if is_chordal(materialize_complement(g)) else 1
            outcomes.append(want)
            for structure in ("mcs", "lexbfs", "lexdfs", "mns"):
                code, _, err = run(capsys, "cliquetree", str(p), "--complement", "--generators",
                                   "--structure", structure, "--tiebreak", f"seed:{seed}")
                assert code == want, (seed, structure, err)
        assert min(outcomes.count(0), outcomes.count(1)) >= 10

    def test_complement_tree(self, files, capsys):
        code, out, err = run(capsys, "cliquetree", files["fig3_g"], "--complement",
                             "--structure", "mns", "--validate")
        assert code == 0, err
        assert len(json.loads(out)["cliques"]) == 3

    def test_complement_tree_builds_no_complement_without_validate(self, files, capsys, monkeypatch):
        from chordalkit import cli, serialize

        def refuse(g):
            raise AssertionError("the complement was materialized")

        monkeypatch.setattr(cli, "materialize_complement", refuse)
        code, out, err = run(capsys, "cliquetree", files["fig3_g"], "--complement")
        assert code == 0, err
        assert out == serialize.dumps({
            "cliques": [["a", "b", "f"], ["e", "f"], ["c", "d", "e"]],
            "edges": [[1, 2], [2, 3]],
            "ordering": ["d", "c", "e", "f", "b", "a"],
            "separators": [["e"], ["f"]],
        })

    def test_complement_disconnected(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["k3"], "--complement")
        assert code == 1 and "ComplementDisconnected" in err

    def test_from_peo(self, files, tmp_path, capsys):
        ordering = tmp_path / "peo.txt"
        ordering.write_text("a b c d e f\n", encoding="utf-8")
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--from-peo", str(ordering),
                             "--validate")
        assert code == 0, err
        assert json.loads(out)["ordering"] == list("abcdef")

    def test_from_peo_rejects_non_peo(self, files, tmp_path, capsys):
        ordering = tmp_path / "bad.txt"
        ordering.write_text("f e d c b a\n", encoding="utf-8")
        code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--from-peo", str(ordering))
        assert code == 1 and "NotAPeo" in err

    def test_not_chordal_input(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["c4"], "--mls")
        assert code == 1 and "NotChordal" in err

    def test_dot_format(self, files, capsys):
        code, out, _ = run(capsys, "cliquetree", files["fig1_h"], "--format", "dot")
        assert code == 0
        assert out.startswith("graph cliquetree {")

    def test_deterministic_bytes(self, files, capsys):
        _, out1, _ = run(capsys, "cliquetree", files["fig1_h"], "--structure", "mns")
        _, out2, _ = run(capsys, "cliquetree", files["fig1_h"], "--structure", "mns")
        assert out1 == out2

    def test_debug_invariants_flag(self, files, capsys, monkeypatch):
        # the flag arms the hooks even where the environment disarms them
        monkeypatch.setenv("CHORDALKIT_DEBUG", "0")
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--structure", "mns",
                             "--debug-invariants", "--validate")
        assert code == 0, err

    def test_debug_invariants_leave_the_environment(self, files, capsys, monkeypatch):
        monkeypatch.delenv("CHORDALKIT_DEBUG", raising=False)
        run(capsys, "atoms", files["fig4_g"], "--debug-invariants")
        assert "CHORDALKIT_DEBUG" not in os.environ
        monkeypatch.setenv("CHORDALKIT_DEBUG", "0")
        code, _, err = run(capsys, "cliquetree", files["c4"], "--debug-invariants")
        assert code == 1, err
        assert os.environ["CHORDALKIT_DEBUG"] == "0"

    def test_out_file(self, files, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "cliquetree", files["fig1_h"], "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["ordering"]


class TestTriangulate:
    def test_debug_invariants_on_a_filled_graph(self, files, capsys):
        # a C5 with a pendant vertex: the label order follows the fill edges
        code, out, err = run(capsys, "triangulate", files["c5_pendant"], "--debug-invariants", "--validate")
        assert code == 0, err
        assert len(json.loads(out)["fill_edges"]) == 2

    def test_c4_one_fill(self, files, capsys):
        code, out, err = run(capsys, "triangulate", files["c4"], "--structure", "mcs", "--validate")
        assert code == 0, err
        assert len(json.loads(out)["fill_edges"]) == 1

    def test_chordal_no_fill(self, files, capsys):
        code, out, _ = run(capsys, "triangulate", files["fig1_h"], "--structure", "lexbfs",
                           "--validate")
        assert code == 0
        assert json.loads(out)["fill_edges"] == []

    def test_fig4_elim_game_scripted(self, files, capsys):
        code, out, err = run(
            capsys, "triangulate", files["fig4_g"], "--elim-game", "--structure", "lexbfs",
            "--tiebreak", "script:1,2,3,4,5",
        )
        assert code == 0, err
        assert json.loads(out)["fill_edges"] == [["2", "4"], ["3", "4"]]

    def test_tree_flag(self, files, capsys):
        code, out, err = run(capsys, "triangulate", files["c4"], "--structure", "mcs", "--tree",
                             "--validate")
        assert code == 0, err
        data = json.loads(out)
        assert len(data["clique_tree"]["cliques"]) == 2

    def test_from_ordering_mode(self, files, tmp_path, capsys):
        ordering = tmp_path / "ord.txt"
        ordering.write_text("b a c d\n", encoding="utf-8")
        code, out, err = run(capsys, "triangulate", files["c4"], "--from-ordering", str(ordering))
        assert code == 0, err
        assert len(json.loads(out)["fill_edges"]) >= 1

    def test_basic_mode(self, files, capsys):
        code, out, _ = run(capsys, "triangulate", files["c5"], "--basic", "--structure", "mns",
                           "--validate")
        assert code == 0
        assert len(json.loads(out)["fill_edges"]) == 2


class TestAtoms:
    def test_fig4(self, files, capsys):
        code, out, err = run(capsys, "atoms", files["fig4_g"], "--structure", "mcs", "--validate")
        assert code == 0, err
        data = json.loads(out)
        assert sorted(map(tuple, data["atoms"])) == [("1", "2", "4", "5"), ("2", "3", "5")]
        assert data["clique_separators"] == [["2", "5"]]

    def test_chordal_atoms_are_cliques(self, files, capsys):
        code, out, _ = run(capsys, "atoms", files["fig1_h"], "--structure", "lexbfs", "--validate")
        assert code == 0
        assert len(json.loads(out)["atoms"]) == 3

    def test_c5_single_atom(self, files, capsys):
        code, out, _ = run(capsys, "atoms", files["c5"], "--structure", "mns", "--validate")
        assert code == 0
        data = json.loads(out)
        assert len(data["atoms"]) == 1 and data["clique_separators"] == []

    def test_dot(self, files, capsys):
        code, out, _ = run(capsys, "atoms", files["fig4_g"], "--format", "dot")
        assert code == 0 and out.startswith("graph atomtree {")


class TestCheckStructure:
    def test_lexdfs_dcl_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "checkstructure", "lexdfs", "--property", "dcl", "--nmax", "4")
        assert code == 2
        data = json.loads(out)
        assert data["result"] == "fail"
        assert data["witness"]["n"] == 3 and data["witness"]["i"] == 1

    def test_mns_dcl_passes(self, capsys):
        code, out, _ = run(capsys, "checkstructure", "mns", "--property", "dcl", "--nmax", "6")
        assert code == 0 and json.loads(out)["result"] == "pass"

    def test_lexbfs_complement_reversing_passes(self, capsys):
        code, out, _ = run(capsys, "checkstructure", "lexbfs", "--property",
                           "complement-reversing", "--nmax", "5")
        assert code == 0 and json.loads(out)["result"] == "pass"

    def test_nmax_cap(self, capsys):
        code, _, err = run(capsys, "checkstructure", "mcs", "--property", "ic", "--nmax", "40")
        assert code == 1


class TestCheck:
    def test_valid_pair(self, files, tmp_path, capsys):
        code, out, _ = run(capsys, "cliquetree", files["fig1_h"], "--structure", "mcs")
        result = tmp_path / "tree.json"
        result.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "check", files["fig1_h"], str(result))
        assert code == 0 and out == "ok\n"

    def test_corrupted_tree(self, files, tmp_path, capsys):
        _, out, _ = run(capsys, "cliquetree", files["fig1_h"], "--structure", "mcs")
        data = json.loads(out)
        data["cliques"][0] = ["a", "c"]  # not even a clique
        result = tmp_path / "bad.json"
        result.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, "check", files["fig1_h"], str(result))
        assert code == 2 and "violation:" in out

    def test_atom_tree_pair(self, files, tmp_path, capsys):
        _, out, _ = run(capsys, "atoms", files["fig4_g"], "--structure", "mcs")
        result = tmp_path / "atoms.json"
        result.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "check", files["fig4_g"], str(result))
        assert code == 0 and out == "ok\n"

    def test_triangulation_tree_pair(self, files, tmp_path, capsys):
        _, out, _ = run(capsys, "triangulate", files["c4"], "--structure", "mcs", "--tree")
        result = tmp_path / "tri.json"
        result.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "check", files["c4"], str(result))
        assert code == 0 and out == "ok\n"

    def test_result_without_tree(self, files, tmp_path, capsys):
        result = tmp_path / "ordering.json"
        result.write_text('{"ordering": ["a"]}', encoding="utf-8")
        code, out, err = run(capsys, "check", files["fig1_h"], str(result))
        assert (code, out) == (1, "")
        assert err == "error: Parse: result JSON has neither 'cliques' nor 'atoms'\n"

    def test_edge_out_of_range(self, files, tmp_path, capsys):
        _, out, _ = run(capsys, "cliquetree", files["fig1_h"], "--structure", "mcs")
        data = json.loads(out)
        data["edges"][0] = [1, 99]
        result = tmp_path / "bad.json"
        result.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, "check", files["fig1_h"], str(result))
        assert code == 2 and "violation: edge (1,99) out of range\n" in out

    @pytest.mark.parametrize("text", [
        "not json at all",
        '{"cliques": [["a"]], "edges": [["x", "y"]], "separators": []}',
        '{"cliques": [["a", "b"]], "separators": []}',
        '{"cliques": ["ab"], "edges": [], "separators": []}',
        '{"cliques": [["a", "b"], ["b", "c"]], "edges": [[1.7, 2]], "separators": [["b"]]}',
    ], ids=["not-json", "non-integer-edge", "missing-edges", "string-as-names", "float-edge-end"])
    def test_malformed_result_json(self, files, tmp_path, capsys, text):
        result = tmp_path / "bad.json"
        result.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", files["fig1_h"], str(result))
        assert code == 1 and out == ""
        assert err.startswith("error: Parse: ") and err.count("\n") == 1


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "cliquetree", "/nonexistent/file.txt")
        assert code == 1

    def test_bad_tiebreak(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "alphabetical")
        assert code == 1 and "Parse" in err

    def test_bad_edge_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("a b c\n", encoding="utf-8")
        code, _, err = run(capsys, "cliquetree", str(p))
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["cliquetree", "{bad}"],
        ["cliquetree", "{good}", "--from-peo", "{bad}"],
        ["triangulate", "{good}", "--from-ordering", "{bad}"],
        ["check", "{good}", "{bad}"],
    ], ids=["edge-list", "from-peo", "from-ordering", "check"])
    def test_invalid_utf8(self, tmp_path, capsys, argv):
        good = tmp_path / "good.txt"
        good.write_text("a b\nb c\n", encoding="utf-8")
        bad = tmp_path / "bad.txt"
        # the offset counts a leading byte order mark's 3 bytes
        for prefix, offset in ((b"", 6), (b"\xef\xbb\xbf", 9)):
            bad.write_bytes(prefix + b"a b\nb \xff\n")
            code, out, err = run(capsys, *(a.format(good=good, bad=bad) for a in argv))
            assert (code, out) == (1, "")
            assert err == f"error: Parse: {bad}: invalid UTF-8 at byte {offset}\n"

    @pytest.mark.parametrize("argv", [
        ["cliquetree", "{graph}"],
        ["cliquetree", "{graph}", "--from-peo", "{order}"],
        ["triangulate", "{graph}", "--from-ordering", "{order}"],
        ["check", "{graph}", "{result}"],
    ], ids=["edge-list", "from-peo", "from-ordering", "check"])
    def test_a_leading_bom_is_dropped(self, tmp_path, capsys, argv):
        outs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            graph, order = tmp_path / f"g{len(bom)}.txt", tmp_path / f"o{len(bom)}.txt"
            result = tmp_path / f"r{len(bom)}.json"
            graph.write_bytes(bom + b"a b\nb c\n")
            order.write_bytes(bom + b"a b c\n")
            result.write_bytes(bom + run(capsys, "cliquetree", str(graph))[1].encode())
            outs.append(run(capsys, *(a.format(graph=graph, order=order, result=result) for a in argv)))
        assert outs[0][0] == 0 and outs[0][1] and "\ufeff" not in outs[1][1]
        assert outs[1] == outs[0]

    def test_self_loop(self, tmp_path, capsys):
        p = tmp_path / "loop.txt"
        p.write_text("a a\n", encoding="utf-8")
        code, _, err = run(capsys, "cliquetree", str(p))
        assert code == 1 and "SelfLoop" in err

    # seeds are u64 in plain ASCII digits; int() would take a sign or
    # underscores, and the generator would wrap a value past 2**64 - 1
    def test_negative_seed(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "seed:-1")
        assert code == 1 and "bad seed" in err

    def test_seed_past_u64(self, files, capsys):
        for seed in ("18446744073709551616", "9" * 5000):
            code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "seed:" + seed)
            assert code == 1 and "bad seed" in err
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "seed:18446744073709551615")
        assert code == 0 and out, err

    def test_seed_with_underscore(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "seed:1_0")
        assert code == 1 and "bad seed" in err

    def test_argparse_error_is_a_parse_error(self, files, capsys):
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--structure", "bogus")
        assert (code, out) == (1, "")
        assert err.startswith("error: Parse: ") and "bogus" in err

    def test_empty_script(self, files, capsys):
        code, out, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "script:")
        assert (code, out) == (1, "")
        assert err == "error: Parse: empty script in tie-break spec\n"

    def test_script_unknown_vertex(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--tiebreak", "script:z,y")
        assert code == 1

    def test_disconnected_graph(self, tmp_path, capsys):
        p = tmp_path / "disc.txt"
        p.write_text("a b\nc d\n", encoding="utf-8")
        code, _, err = run(capsys, "cliquetree", str(p))
        assert code == 1 and "Disconnected" in err

    # on a disconnected input the first failing check wins: the structure
    # gates, then the script's names, then the search up to the step that
    # strands a vertex, where a non-clique neighborhood comes first
    @pytest.mark.parametrize("text,argv,message", [
        ("a b\nc d\n", ("cliquetree", "--dcl", "--structure", "lexdfs"),
         "NonDclStructure: lexdfs cannot detect new cliques with labels"),
        ("a b\nc d\n", ("atoms", "--structure", "lexdfs"),
         "NonDclStructure: lexdfs cannot detect new cliques with labels"),
        ("a b\nb c\nc d\nd a\nx y\n", ("cliquetree",),
         "NotChordal: processed neighborhood of 'd' is not a clique; input not chordal"),
        ("x y\na b\nb c\nc d\nd a\n", ("cliquetree",), "DisconnectedGraph: graph is not connected"),
        ("a b\nc d\n", ("cliquetree", "--tiebreak", "script:a,q"), "Parse: unknown vertex name 'q'"),
        ("a b\nc d\n", ("triangulate", "--tiebreak", "script:a,q"), "DisconnectedGraph: graph is not connected"),
    ], ids=["dcl-gate", "atoms-dcl-gate", "c4-first", "edge-first", "script-names", "triangulate-up-front"])
    def test_disconnected_input_precedence(self, tmp_path, capsys, text, argv, message):
        p = tmp_path / "disc.txt"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("mode", [(), ("--generators",)], ids=["tree", "generators"])
    def test_complement_validate_refuses_before_building_the_complement(self, tmp_path, capsys,
                                                                        monkeypatch, mode):
        # the oracle's cap is n = 20; the near-star's complement is chordal
        from chordalkit import cli

        p = tmp_path / "near_star.txt"
        p.write_text("".join(f"c v{i}\n" for i in range(1, 24)) + "w v1\n", encoding="utf-8")
        _, want, _ = run(capsys, "cliquetree", str(p), "--complement", *mode)

        def refuse(g):
            raise AssertionError("the complement was materialized")

        monkeypatch.setattr(cli, "materialize_complement", refuse)
        code, out, err = run(capsys, "cliquetree", str(p), "--complement", *mode, "--validate")
        assert (code, out, err) == (1, want, "error: OracleCap: maximal_cliques capped at n=20\n")

    def test_generators_with_mls_rejected(self, files, capsys):
        code, _, err = run(capsys, "cliquetree", files["fig1_h"], "--mls", "--generators")
        assert code == 1

    # flag combinations are rejected before the search, so an input the
    # search would reject cannot hide the flag error
    def test_generators_dot_rejected_before_the_search(self, files, capsys):
        code, out, err = run(capsys, "cliquetree", files["c4"], "--complement", "--generators",
                             "--format", "dot")
        assert (code, out) == (1, "")
        assert err == "error: Parse: generators have no dot rendering; use --format json\n"

    def test_tree_outside_moplex_rejected_before_the_search(self, tmp_path, capsys):
        p = tmp_path / "disc.txt"
        p.write_text("a b\nc d\n", encoding="utf-8")
        code, out, err = run(capsys, "triangulate", str(p), "--basic", "--tree")
        assert (code, out) == (1, "")
        assert err == "error: Parse: --tree is only available with the default --moplex mode\n"

    def test_dot_without_tree_rejected_before_the_search(self, tmp_path, capsys):
        p = tmp_path / "disc.txt"
        p.write_text("a b\nc d\n", encoding="utf-8")
        code, out, err = run(capsys, "triangulate", str(p), "--format", "dot")
        assert (code, out) == (1, "")
        assert err == "error: Parse: dot output needs --tree\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "fig1.txt"
        p.write_text(fixture("fig1_h").edge_list_text(), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "chordalkit", "cliquetree", str(p), "--structure", "mcs"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["cliques"]) == 3


def _oracle_with(**wrong):
    """The oracle module as ``cli`` reads it, with some checks answering wrong."""
    from chordalkit import oracle

    return SimpleNamespace(**{**vars(oracle), **wrong})


def _repeat_a_separator(res):
    return dataclasses.replace(res, gen_separators=res.gen_separators + res.gen_separators[:1])


class TestValidationFailures:
    """Every --validate failure exits 2, prints one ``violation:`` line per
    failed check on stderr, and leaves stdout as the command writes it
    without --validate. The wrong answers are fed through the names that
    ``cli`` imports."""

    GENERATORS = ["cliquetree", "{fig3_g}", "--complement", "--generators"]
    CLIQUES = "closed higher neighborhoods do not match the complement's maximal cliques"
    SEPARATORS = "open higher neighborhoods do not match the complement's minimal separators"
    DISAGREE = "generators disagree with the complement clique tree"

    @pytest.mark.parametrize("argv,name,wrong,lines", [
        (["cliquetree", "{fig1_h}"], "oracle", _oracle_with(validate_clique_tree=lambda g, t: ["made up"]),
         ["made up"]),
        (["atoms", "{fig4_g}"], "oracle", _oracle_with(validate_atom_tree=lambda g, t: ["made up", "twice"]),
         ["made up", "twice"]),
        (["triangulate", "{c4}"], "oracle", _oracle_with(is_chordal=lambda g: False),
         ["result graph is not chordal"]),
        (["triangulate", "{c4}"], "oracle", _oracle_with(is_minimal_triangulation=lambda g, h: False),
         ["result graph is not a minimal triangulation"]),
        (["triangulate", "{c4}", "--tree"], "oracle",
         _oracle_with(is_chordal=lambda g: False, validate_clique_tree=lambda g, t: ["made up"]),
         ["result graph is not chordal", "made up"]),
        (GENERATORS, "complement_mls_generators",
         lambda *a: _repeat_a_separator(complement_mls_generators(*a)),
         ["generator counts are off by more than one", DISAGREE]),
        (GENERATORS, "extract_generators", lambda t: None, [DISAGREE]),
        (GENERATORS, "oracle", _oracle_with(maximal_cliques=lambda g: set()), [CLIQUES]),
        (GENERATORS, "oracle", _oracle_with(minimal_separators=lambda g: set()), [SEPARATORS]),
    ], ids=["cliquetree", "atoms", "not-chordal", "not-minimal", "tree", "generator-counts",
            "generators-disagree", "generator-cliques", "generator-separators"])
    def test_a_wrong_result_is_reported(self, files, capsys, monkeypatch, argv, name, wrong, lines):
        argv = [a.format(**files) for a in argv]
        monkeypatch.setattr(cli, name, wrong)
        _, normal, _ = run(capsys, *argv)
        assert normal
        assert run(capsys, *argv, "--validate") == (2, normal, "".join(f"violation: {v}\n" for v in lines))


class TestExitCodeMatrix:
    """The exit-code contract over every bundled fixture."""

    CASES = [
        # (fixture, argv tail, expected exit code)
        ("fig1_h", ["--mls", "--structure", "mcs"], 0),
        ("fig1_h", ["--dcl", "--structure", "lexbfs", "--validate"], 0),
        ("fig1_h", ["--dcl", "--structure", "lexdfs"], 1),
        ("fig1_h", ["--complement"], 1),  # complement of fig1_h is not chordal
        ("fig3_g", ["--complement", "--structure", "mns", "--validate"], 0),
        ("fig3_g", ["--mls"], 1),  # fig3_g itself is not chordal
        ("fig4_g", ["--mls", "--structure", "mcs"], 1),  # not chordal
        ("fig5_g", ["--mls"], 1),
        ("fig6_g", ["--mls"], 1),
    ]

    def test_matrix(self, tmp_path, capsys):
        from chordalkit.fixtures import fixture as fx

        for name, tail, expected in self.CASES:
            p = tmp_path / f"{name}.txt"
            p.write_text(fx(name).edge_list_text(), encoding="utf-8")
            code, out, err = run(capsys, "cliquetree", str(p), *tail)
            assert code == expected, (name, tail, code, err)


class TestSmallCoverage:
    def test_checkstructure_ic(self, capsys):
        code, out, _ = run(capsys, "checkstructure", "mcs", "--property", "ic", "--nmax", "6")
        assert code == 0 and json.loads(out)["result"] == "pass"

    def test_atoms_disconnected_input(self, tmp_path, capsys):
        p = tmp_path / "disc.txt"
        p.write_text("a b\nc d\n", encoding="utf-8")
        code, _, err = run(capsys, "atoms", str(p), "--structure", "mcs")
        assert code == 1 and "Disconnected" in err

    def test_triangulate_tree_dot(self, files, capsys):
        code, out, _ = run(capsys, "triangulate", files["c4"], "--structure", "mcs",
                           "--tree", "--format", "dot")
        assert code == 0 and out.startswith("graph cliquetree {")

    def test_triangulate_dot_without_tree_rejected(self, files, capsys):
        code, _, err = run(capsys, "triangulate", files["c4"], "--format", "dot")
        assert code == 1

    def test_complement_seeded_deterministic(self, files, capsys):
        args = ("cliquetree", files["fig3_g"], "--complement", "--structure", "mns",
                "--tiebreak", "seed:31")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2 and json.loads(out1)["cliques"]
