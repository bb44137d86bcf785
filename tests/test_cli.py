import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import tauclass
from tauclass.abelian import PRESENTATION_CAP
from tauclass.cli import main, schema_path
from tauclass.series import YPoly
from tauclass.transform import SUITE_NAMES

SCHEMA = json.loads(schema_path().read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, out


class TestGenusCommand:
    @pytest.mark.parametrize(
        "space,expect",
        [
            ("P2", {"-1": "3", "0": "1", "1": "1"}),
            ("P1", {"-1": "2", "0": "1", "1": "0"}),
            ("pt", {"-1": "1", "0": "1", "1": "1"}),
        ],
    )
    def test_values(self, capsys, space, expect):
        code, payload, _ = run_json(capsys, "genus", space)
        assert code == 0
        assert payload["specializations"] == expect

    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "genus", "P1")
        assert code == 0
        assert "1 - y" in out

    def test_just_under_size_cap_computed(self, capsys):
        # size 1.83e7: P12 x P12 x P13 is over GENUS_SIZE_CAP (test below)
        code, payload, _ = run_json(capsys, "genus", "P12 x P12 x P12")
        assert code == 0
        assert payload["chi_y"] == str(YPoly([(-1) ** p for p in range(13)]) ** 3)

    @pytest.mark.parametrize(
        "space,size",
        [("P121", "2.01e+07"), ("P12 x P12 x P13", "2.11e+07"),
         ("P100 + P80 + P60 x P1 + P40 x P3", "2.09e+07"),
         # equal components share one cached class, so they count once
         ("P121 + P121", "2.01e+07")],
    )
    def test_over_size_cap_is_usage_error(self, capsys, space, size):
        start = time.perf_counter()
        code = main(["genus", space])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: genus: space size {size} exceeds the cap 2e+07\n"
        assert elapsed < 1  # refused before the class is built


class TestClassesCommand:
    def test_chern_p2(self, capsys):
        code, payload, _ = run_json(capsys, "classes", "P2", "--class", "chern")
        assert code == 0
        (comp,) = payload["components"]
        by_degree = {t["degree"]: t["coefficient"] for t in comp["terms"]}
        assert by_degree == {4: "1", 2: "3", 0: "3"}

    def test_ty_point(self, capsys):
        code, payload, _ = run_json(capsys, "classes", "pt", "--class", "ty")
        assert code == 0
        (comp,) = payload["components"]
        assert comp["terms"] == [{"monomial": [], "degree": 0, "coefficient": "1"}]

    def test_todd_product_is_whitney_product(self, capsys):
        code, payload, _ = run_json(capsys, "classes", "P1 x P1", "--class", "todd")
        assert code == 0
        (comp,) = payload["components"]
        coeffs = {tuple(t["monomial"]): t["coefficient"] for t in comp["terms"]}
        # (1 + h1)(1 + h2)
        assert coeffs == {(0, 0): "1", (1, 0): "1", (0, 1): "1", (1, 1): "1"}

    def test_y_specialization_matches_chern(self, capsys):
        code_a, ty_out = run_cli(
            capsys, "classes", "P2", "--class", "ty", "--y", "-1", "--format", "json"
        )
        code_b, chern_out = run_cli(
            capsys, "classes", "P2", "--class", "chern", "--format", "json"
        )
        assert code_a == code_b == 0
        a = json.loads(ty_out)["components"]
        b = json.loads(chern_out)["components"]
        assert a == b

    def test_y_on_rational_class_rejected(self, capsys):
        code, _ = run_cli(capsys, "classes", "P2", "--class", "chern", "--y", "1")
        assert code == 2

    def test_custom_class_file(self, capsys, tmp_path):
        from oracles import spec_to_text
        from tauclass.series import todd_spec

        path = tmp_path / "custom.cls"
        path.write_text(spec_to_text(todd_spec(6)))
        code_a, custom = run_cli(
            capsys, "classes", "P2", "--class", f"file:{path}", "--format", "json"
        )
        code_b, builtin = run_cli(
            capsys, "classes", "P2", "--class", "todd", "--format", "json"
        )
        assert code_a == code_b == 0
        assert json.loads(custom)["components"] == json.loads(builtin)["components"]

    @pytest.mark.parametrize("text", ["ring: Q\n1\n1/0\n", "ring: Q[y]\n1\n0 1/0\n"])
    def test_zero_denominator_in_class_file(self, capsys, tmp_path, text):
        path = tmp_path / "z.txt"
        path.write_text(text)
        code = main(["classes", "P2", "--class", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 3: malformed rational\n"

    def test_second_ring_header_in_class_file(self, capsys, tmp_path):
        path = tmp_path / "two-rings.txt"
        path.write_text("ring: Q\n1\nring: Q[y]\n0 1\n1/2\n")
        code = main(["classes", "P2", "--class", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 3: duplicate 'ring:' header\n"

    def test_parse_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "classes", "Q17")
        assert code == 2

    def test_degree_cap_exceeded(self, capsys):
        code, _ = run_cli(capsys, "classes", "P3", "--class", "todd", "--max-degree", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "space,cap,degree",
        [("P5", "1", 5), ("P800", "1", 800), ("P1 x P1 + P3", "1", 2),
         ("P3 + P1 x P5", "2", 6)],
    )
    def test_small_cap_rejected_before_tangent_class(self, capsys, monkeypatch, space, cap,
                                                     degree):
        from tauclass import transform

        def fail(space):
            raise AssertionError("tangent class computed under a too-small cap")

        monkeypatch.setattr(transform, "_tangent", fail)
        code = main(["classes", space, "--max-degree", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: class series truncated at {cap} but degree {degree} is needed\n"
        )


class TestCheckCommand:
    def test_small_all_suite_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "all", "--seed", "7", "--max-dim", "2"
        )
        assert code == 0
        assert payload["passed"] is True
        assert payload["total"] > 0
        assert payload["failed"] == 0

    def test_verdier_seeded(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "verdier-rr", "--seed", "1", "--max-dim", "3"
        )
        assert code == 0
        assert payload["passed"] is True

    def test_unknown_suite_usage_error(self, capsys):
        code = main(["check", "bogus"])
        assert code == 2

    def test_byte_identical_json(self, capsys):
        _, first = run_cli(
            capsys, "check", "naturality", "--seed", "5", "--max-dim", "2", "--format", "json"
        )
        _, second = run_cli(
            capsys, "check", "naturality", "--seed", "5", "--max-dim", "2", "--format", "json"
        )
        assert first == second

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_max_dim_is_usage_error(self, capsys, suite):
        code = main(["check", suite, "--max-dim", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_zero_max_dim_runs(self, capsys, suite):
        code, payload, _ = run_json(capsys, "check", suite, "--max-dim", "0")
        assert code == 0
        assert payload["passed"] is True

    def test_text_summary(self, capsys):
        code, out = run_cli(capsys, "check", "const-diagram", "--max-dim", "2")
        assert code == 0
        assert "const-diagram" in out
        assert "0 failed" in out


COSPAN_DISCRETE = """
category source
objects v0 v1
end
category base
objects b
arrow s : b -> b
compose s . s = s
end
category target
objects x0 x1 x2
end
functor S : source -> base
obj v0 = b
obj v1 = b
end
functor T : target -> base
obj x0 = b
obj x1 = b
obj x2 = b
end
"""


def with_source_arrow(arrow, row=None):
    """COSPAN_DISCRETE with one more source arrow and, if given, its
    functor row in S."""
    text = COSPAN_DISCRETE.replace("objects v0 v1\n", f"objects v0 v1\narrow {arrow}\n")
    if row:
        text = text.replace("obj v1 = b\n", f"obj v1 = b\n{row}\n")
    return text


def discrete_cospan_text(n_source, n_target):
    """Discrete source and target categories over a one-object base."""
    sides = (("source", "S", "v", n_source), ("target", "T", "x", n_target))
    text = "category base\nobjects b\nend\n"
    for category, _, prefix, n in sides:
        names = " ".join(f"{prefix}{i}" for i in range(n))
        text += f"category {category}\nobjects {names}\nend\n"
    for category, functor, prefix, n in sides:
        rows = "".join(f"obj {prefix}{i} = b\n" for i in range(n))
        text += f"functor {functor} : {category} -> base\n{rows}end\n"
    return text


def chain_cospan_text(n):
    """The identity cospan of the chain c0 < c1 < ... < c(n-1)."""
    arrows = [(i, j) for i in range(n) for j in range(i + 1, n)]
    body = "".join(
        [f"objects {' '.join(f'c{i}' for i in range(n))}\n"]
        + [f"arrow a{i}_{j} : c{i} -> c{j}\n" for i, j in arrows]
        + [f"compose a{j}_{k} . a{i}_{j} = a{i}_{k}\n"
           for i, j in arrows for j2, k in arrows if j == j2]
    )
    rows = "".join(f"obj c{i} = c{i}\n" for i in range(n)) + "".join(
        f"arrow a{i}_{j} = a{i}_{j}\n" for i, j in arrows
    )
    text = "".join(f"category {name}\n{body}end\n" for name in ("source", "base", "target"))
    for functor, category in (("S", "source"), ("T", "target")):
        text += f"functor {functor} : {category} -> base\n{rows}end\n"
    return text


def parallel_cospan_text(n_arrows):
    """A source with objects a, b and ``n_arrows`` parallel arrows a -> b
    (so n_arrows + 2 morphisms), over a one-object base and target."""
    arrows = "".join(f"arrow f{i} : a -> b\n" for i in range(n_arrows))
    rows = "".join(f"arrow f{i} = id_b\n" for i in range(n_arrows))
    return (
        "category base\nobjects b\nend\n"
        f"category source\nobjects a b\n{arrows}end\n"
        "category target\nobjects x\nend\n"
        f"functor S : source -> base\nobj a = b\nobj b = b\n{rows}end\n"
        "functor T : target -> base\nobj x = b\nend\n"
    )


class TestCommaCommand:
    @pytest.mark.parametrize(
        "text,size",
        [(discrete_cospan_text(8, 8), (64, 64)), (chain_cospan_text(7), (28, 336))],
        ids=["64-objects", "336-morphisms"],
    )
    def test_within_caps_built(self, capsys, tmp_path, text, size):
        path = tmp_path / "cospan.txt"
        path.write_text(text)
        code, payload, _ = run_json(capsys, "comma", str(path))
        assert code == 0
        assert (payload["objects"], payload["morphisms"]) == size
        assert payload["passed"] is True

    @pytest.mark.parametrize(
        "text,message",
        [
            (discrete_cospan_text(9, 8), "comma category has 72 objects, cap is 64"),
            (chain_cospan_text(8), "comma category has 540 morphisms, cap is 512"),
        ],
        ids=["72-objects", "540-morphisms"],
    )
    def test_over_cap_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "cospan.txt"
        path.write_text(text)
        code = main(["comma", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,size",
        [(discrete_cospan_text(64, 1), (64, 64)), (parallel_cospan_text(510), (2, 512))],
        ids=["source-64-objects", "source-512-morphisms"],
    )
    def test_category_at_cap_built(self, capsys, tmp_path, text, size):
        path = tmp_path / "cospan.txt"
        path.write_text(text)
        code, payload, _ = run_json(capsys, "comma", str(path))
        assert code == 0
        assert (payload["objects"], payload["morphisms"]) == size

    @pytest.mark.parametrize(
        "text,message",
        [
            (discrete_cospan_text(65, 1),
             "line 4: category 'source': 65 objects exceed the cap 64"),
            (parallel_cospan_text(511),
             "line 4: category 'source': 513 morphisms exceed the cap 512"),
        ],
        ids=["source-65-objects", "source-513-morphisms"],
    )
    def test_category_over_cap_names_its_block(self, capsys, tmp_path, text, message):
        path = tmp_path / "cospan.txt"
        path.write_text(text)
        code = main(["comma", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_discrete_hom_sum(self, capsys, tmp_path):
        path = tmp_path / "cospan.txt"
        path.write_text(COSPAN_DISCRETE)
        code, payload, _ = run_json(capsys, "comma", str(path))
        assert code == 0
        # |hom(b, b)| = 2 for each of the 2 x 3 object pairs
        assert payload["objects"] == 12
        assert payload["passed"] is True

    def test_schema_violation_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("category source\nobjects a\narrow broken\nend\n")
        code, out = run_cli(capsys, "comma", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "comma", "/nonexistent/file.txt")
        assert code == 2

    def test_identity_like_arrow_name_is_an_arrow(self, capsys, tmp_path):
        # 'id_q' names no identity (there is no object q): an ordinary arrow
        path = tmp_path / "cospan.txt"
        path.write_text(with_source_arrow("id_q : v0 -> v1", "arrow id_q = s"))
        code, payload, _ = run_json(capsys, "comma", str(path))
        assert code == 0
        assert payload["passed"] is True

    @pytest.mark.parametrize(
        "text,message",
        [
            ("category source\nobjects a a\nend\n",
             "line 2: category 'source': duplicate object 'a'"),
            ("category source\nobjects a b\n\nobjects c b\nend\n",
             "line 4: category 'source': duplicate object 'b'"),
            (COSPAN_DISCRETE + "category base\nobjects c\nend\n",
             "line 22: duplicate category 'base'"),
            (COSPAN_DISCRETE + "functor S : source -> base\nobj v0 = b\nend\n",
             "line 22: duplicate functor 'S'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = b\nobj q = b\n"),
             "line 16: functor 'S': unknown domain object 'q'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = b\narrow s = s\n"),
             "line 16: functor 'S': unknown domain arrow 's'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = b\nobj v1 = q\n"),
             "line 16: functor 'S': duplicate row for object 'v1'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = q\nobj v1 = b\n"),
             "line 16: functor 'S': duplicate row for object 'v1'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = b\nobj v1 = b\n"),
             "line 16: functor 'S': duplicate row for object 'v1'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = q\n"),
             "line 15: functor 'S': unknown image object 'q'"),
            (with_source_arrow("u : v0 -> v1", "arrow u = t"),
             "line 17: functor 'S': unknown image arrow 't'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", ""),
             "line 13: functor 'S': no image for object 'v1'"),
            (with_source_arrow("u : v0 -> v1"),
             "line 14: functor 'S': no image for arrow 'u'"),
            (with_source_arrow("id_q : v0 -> v1"),
             "line 14: functor 'S': no image for arrow 'id_q'"),
            (COSPAN_DISCRETE.replace("obj v1 = b\n", "obj v1 = b\narrow id_v0 = s\n"),
             "line 16: functor 'S': identity arrow 'id_v0' takes no row"),
        ],
        ids=["repeated-object", "object-on-two-lines", "second-category",
             "second-functor", "unknown-domain-object", "unknown-domain-arrow",
             "duplicate-row-bad-last", "duplicate-row-bad-first", "duplicate-row-equal",
             "unknown-image-object", "unknown-image-arrow", "no-image-object",
             "no-image-arrow", "identity-like-arrow-without-row", "identity-row"],
    )
    def test_malformed_cospan_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["comma", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (with_source_arrow("f : v0 -> q"),
             "line 4: category 'source': arrow 'f' uses unknown object"),
            (with_source_arrow("f : v0 -> v1\narrow f : v1 -> v1"),
             "line 5: category 'source': duplicate arrow 'f'"),
            (with_source_arrow("id_v0 : v0 -> v0"),
             "line 4: category 'source': duplicate arrow 'id_v0'"),
        ],
        ids=["unknown-object", "repeated-arrow", "arrow-named-like-identity"],
    )
    def test_bad_arrow_names_its_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["comma", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


MONOID_2A2B = "gens: 2\nrel: 2 0 = 0 2\n"


class TestCompleteCommand:
    def test_two_a_two_b(self, capsys, tmp_path):
        path = tmp_path / "monoid.txt"
        path.write_text(MONOID_2A2B)
        code, payload, _ = run_json(capsys, "complete", str(path))
        assert code == 0
        assert payload["group"] == "Z + Z/2"
        assert payload["rank"] == 1
        assert payload["invariant_factors"] == [2]

    def test_empty_presentation(self, capsys, tmp_path):
        path = tmp_path / "monoid.txt"
        path.write_text("gens: 0\n")
        code, payload, _ = run_json(capsys, "complete", str(path))
        assert code == 0
        assert payload["group"] == "0"

    def test_malformed_relation(self, capsys, tmp_path):
        path = tmp_path / "monoid.txt"
        path.write_text("gens: 2\nrel: 1 = 1\n")
        code, _ = run_cli(capsys, "complete", str(path))
        assert code == 2

    @pytest.mark.parametrize("gens,rels", [(PRESENTATION_CAP, 0), (1, PRESENTATION_CAP)])
    def test_at_cap_completes(self, capsys, tmp_path, gens, rels):
        path = tmp_path / "monoid.txt"
        path.write_text(f"gens: {gens}\n" + "rel: 1 = 0\n" * rels)
        code, payload, _ = run_json(capsys, "complete", str(path))
        assert code == 0
        assert (payload["generators"], payload["relations"]) == (gens, rels)

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                f"gens: {PRESENTATION_CAP + 1}\n",
                f"line 1: {PRESENTATION_CAP + 1} generators exceed the cap "
                f"{PRESENTATION_CAP}",
            ),
            (
                "gens: 1\n" + "rel: 1 = 0\n" * (PRESENTATION_CAP + 1),
                f"line {PRESENTATION_CAP + 2}: relation {PRESENTATION_CAP + 1} "
                f"exceeds the cap of {PRESENTATION_CAP} relations",
            ),
        ],
        ids=["generators", "relations"],
    )
    def test_over_cap_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "monoid.txt"
        path.write_text(text)
        code = main(["complete", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_seeded_36_by_36_within_budget(self, capsys, tmp_path):
        # entries grew to thousands of bits under the two-pass Smith form,
        # which took 89 s here
        rng = random.Random("monoid-big:36")
        lines = ["gens: 36"]
        for _ in range(36):
            u = " ".join(str(rng.randint(0, 3)) for _ in range(36))
            v = " ".join(str(rng.randint(0, 3)) for _ in range(36))
            lines.append(f"rel: {u} = {v}")
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b88fad5aefa7b13a5e5ae60f44ba242a2fc8ba817d2e3b75d0264e53b603b623"
        )
        path = tmp_path / "monoid.txt"
        path.write_text(text)
        start = time.perf_counter()
        code, payload, _ = run_json(capsys, "complete", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert payload["group"] == "Z/9985079346794024311208603604"
        assert elapsed < 5.0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("genus", "P2 + P1"),
            ("classes", "P1 x P1", "--class", "ty"),
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        _, first = run_cli(capsys, *argv, "--format", "json")
        _, second = run_cli(capsys, *argv, "--format", "json")
        assert first == second


def chain_cospan_text(ns, m, nt):
    """Chains 0 < ... < n-1 as source and target over a chain base, each
    mapped by i |-> i * m // n; every composite is listed."""

    def category(name, p, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        lines = [f"category {name}", "objects " + " ".join(f"{p}{i}" for i in range(n))]
        lines += [f"arrow {p}{i}_{j} : {p}{i} -> {p}{j}" for i, j in pairs]
        lines += [
            f"compose {p}{j}_{k} . {p}{i}_{j} = {p}{i}_{k}"
            for i, j in pairs
            for k in range(j + 1, n)
        ]
        return lines + ["end"]

    def functor(name, dom, p, n):
        image = [i * m // n for i in range(n)]
        lines = [f"functor {name} : {dom} -> base"]
        lines += [f"obj {p}{i} = b{image[i]}" for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = image[i], image[j]
                image_arrow = f"id_b{a}" if a == b else f"b{a}_{b}"
                lines.append(f"arrow {p}{i}_{j} = {image_arrow}")
        return lines + ["end"]

    lines = (
        category("source", "s", ns)
        + category("base", "b", m)
        + category("target", "t", nt)
        + functor("S", "source", "s", ns)
        + functor("T", "target", "t", nt)
    )
    return "\n".join(lines) + "\n"


# every category and one functor break a law; pins the order of the messages
COSPAN_BROKEN = """
category source
objects e
arrow s : e -> e
arrow t : e -> e
compose s . s = t
compose t . s = t
compose s . t = t
compose t . t = s
end
category base
objects a b c d
arrow f : a -> b
arrow g : b -> c
arrow h : a -> c
arrow k : a -> c
arrow q : c -> d
compose g . f = f
compose f . f = h
compose h . id_a = k
compose id_c . k = h
compose q . k = q
end
category target
objects x y
arrow u : x -> y
arrow w : y -> y
compose w . u = w
compose w . w = w
end
functor S : source -> base
obj e = a
arrow s = id_a
arrow t = h
end
functor T : target -> base
obj x = a
obj y = c
arrow u = h
arrow w = id_c
end
"""

MONOID_GOLDEN = """gens: 4
rel: 3 1 0 2 = 0 2 1 1
rel: 0 4 2 0 = 1 1 1 3
rel: 2 0 5 1 = 2 3 0 0
rel: 1 1 1 1 = 0 0 0 6
"""


class TestGoldenOutput:
    """stdout digests of fixed commands: rendered classes and check
    reports must stay byte-identical when the arithmetic kernel changes."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("check", "all", "--seed", "7", "--max-dim", "4"),
             "e74c2c6debbb2cca9064c4d2772d73a3ca24c3b6b5333fb505f1af679f100a38"),
            (("classes", "P40", "--class", "todd", "--max-degree", "40"),
             "23092ee6829d32038a7c5dc71a193e05e40a8016ff7adc9ef4ee6142494fc048"),
            (("classes", "P16", "--class", "ty", "--max-degree", "16"),
             "868a35ae8dca05b0eccfdfec019b7f91f1f3c4b677d13c222653f2e3a55dbbe3"),
            (("genus", "P1 x P2 x P3"),
             "3abaf6589137f470c1d78dd581d6fdd1a2c396dab525a1e547f1aa86c6ebde44"),
            (("check", "verdier-rr", "--seed", "7"),
             "370aa113f8f6919d0f170bec2999e545ccdcd15c5d2418390af69fa8b8195d81"),
            (("check", "multiplicativity", "--seed", "8"),
             "e6b1c3e86f82fda78597ea3193aa89a161efe4d8295ee2305bf31bec5e6870c1"),
        ],
        ids=["check-all", "todd-P40", "ty-P16", "genus-P1xP2xP3", "verdier-rr-7",
             "multiplicativity-8"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("classes", "P2 x P1 + pt", "--class", "todd"),
             "5f4fc6e0fc0faedc366b090f9940bdef7f5e1cdcbec2c18609b0678706073641"),
            (("classes", "P3", "--class", "l"),
             "650340c5b26d108b80b6f919a5c1f90c7970303265ddc27baf322b0eac28c69d"),
            (("genus", "P1 x P2"),
             "3ba31fba0ab6b3915aaa98303369ea37fe8951df4ecc7a2aa392766e389aaf25"),
            (("check", "all", "--seed", "7", "--max-dim", "4"),
             "02c492d5b4f103c5afa6c775c20b3d2d70d813bd30d6117edf4529afe4b639c1"),
        ],
        ids=["todd-P2xP1+pt", "l-P3", "genus-P1xP2", "check-all"],
    )
    def test_text_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv, "--format", "text")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("classes", "P60", "--class", "ty", "--max-degree", "60"),
             "9fc63310ffae5e7fc3ae218f4081ed08be842c813574e4f21140741409a66f76"),
            (("genus", "P60"),
             "4bb30fa818f03704f3ed035448aebbdfa879957fab02c22f5bab606dd8debe72"),
        ],
        ids=["ty-P60", "genus-P60"],
    )
    def test_q_y_arithmetic_within_budget(self, argv, digest):
        # a fresh interpreter, so no cached class helps.  With one Fraction
        # per Q[y] coefficient each command took about 8 s on a 2-vCPU host;
        # with integer numerators over one denominator, about 1 s.
        env = dict(os.environ, PYTHONPATH=str(Path(tauclass.__file__).parents[1]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "tauclass.cli", *argv, "--format", "json"],
            capture_output=True, env=env, timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 0
        assert hashlib.sha256(done.stdout).hexdigest() == digest
        assert elapsed < 5, f"{' '.join(argv)} took {elapsed:.1f} s"

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("classes", "P400", "--class", "chern", "--max-degree", "400"),
             "27cad10837a80bdffad0cf0aeba832ba9e8bc656b9785e98b9074b5f1f268411"),
            (("classes", "P300", "--class", "todd", "--max-degree", "300"),
             "331d58612d21542180dc7181c84e2c1ebaa315810e91ae4cd8ecf80b9c803c3f"),
        ],
        ids=["chern-P400", "todd-P300"],
    )
    def test_q_arithmetic_within_budget(self, argv, digest):
        # a fresh interpreter, so no cached class helps.  With one Fraction
        # per coefficient operation and (1+h)^401 built by 401 products,
        # each command took 3.5-4.5 s on a 2-vCPU host; with packed
        # exponents and int numerators over one denominator, 0.4-0.7 s.
        env = dict(os.environ, PYTHONPATH=str(Path(tauclass.__file__).parents[1]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "tauclass.cli", *argv, "--format", "json"],
            capture_output=True, env=env, timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 0
        assert hashlib.sha256(done.stdout).hexdigest() == digest
        assert elapsed < 1.5, f"{' '.join(argv)} took {elapsed:.1f} s"

    def test_cap_far_above_dimension(self, capsys):
        # the spec is built only as far as the space needs; output unchanged
        code, out = run_cli(
            capsys, "classes", "P2", "--class", "ty", "--max-degree", "40", "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3c70d716b38cc13cfe60a76e0f00caee2b17212e628de05564781170a4020748"
        )

    @pytest.mark.parametrize(
        "command,text,exit_code,digest",
        [
            ("comma", chain_cospan_text(7, 4, 7), 0,
             "6c8f02fca64a7accaacbddebecc07bb5109e00d7f5c958551232a0a255e0db6b"),
            ("comma", COSPAN_BROKEN, 1,
             "950187a9b49a4cc35814ffb141cd851c245634ef3faf7df34a04f73cf9c19973"),
            ("complete", MONOID_GOLDEN, 0,
             "954b65bb02128ca3fafddd4bdcd23c72141cbf19f19b82e2103a63ce7bbc87f9"),
        ],
        ids=["comma-chain-7-4-7", "comma-broken", "complete-4x4"],
    )
    def test_file_command_digest(self, capsys, tmp_path, command, text, exit_code,
                                 digest):
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, out = run_cli(capsys, command, str(path), "--format", "json")
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "klass,extra,digest",
        [
            ("ty", ("--format", "text"),
             "519d4e43a64ccddc3929e85de96cd5959b1072981a7435dcc152ee275be1560e"),
            ("file", ("--format", "text"),
             "409ff1c6c35e20c2686faa83a65c5aae7e9dd65ce1fed7fd82804dd5f72ecbeb"),
            ("file", ("--format", "json"),
             "932b86e1fef2ca3bc1d62bcfd752ac9de914680a3cbd54f750779739e3299215"),
            ("file", ("--y", "3/7", "--format", "text"),
             "ad86fe1c587431f7c304fca1038d741eaa81d36784c857c8ff8488d487dc06a4"),
            ("file", ("--y", "3/7", "--format", "json"),
             "a80d7efe438ee20ae5b01b5bd684cae9674584d668b88f4d8925b51fa40f1489"),
        ],
        ids=["ty-text", "qy-file-text", "qy-file-json", "qy-file-y-text", "qy-file-y-json"],
    )
    def test_qy_class_digest(self, capsys, tmp_path, klass, extra, digest):
        # a Q[y] spec file whose rows mix y-free fractions with a y term
        if klass == "file":
            path = tmp_path / "qy.cls"
            path.write_text("ring: Q[y]\n1\n1/2\n0 1/3\n-1/5\n")
            klass = f"file:{path}"
        code, out = run_cli(
            capsys, "classes", "P2 x P1 + P3", "--class", klass, "--max-degree", "3", *extra
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
