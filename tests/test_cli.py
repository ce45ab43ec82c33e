from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import b1alg as b
from b1alg.cli import (
    ParseError,
    main,
    parse_algebra_file,
    parse_algebra_text,
    serialize_algebra,
)
from support import null_algebra

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
EXAMPLE_FILE = REPO_ROOT / "algebras" / "example-6-2.b1a"

EX62_FILE = """\
# six-element test algebra
elements 0 z x y u 1
zero 0
one 1
add
0 z x y u 1
z z x y u 1
x x x u u 1
y y u y u 1
u u u u u 1
1 1 1 1 1 1
mul
0 0 0 0 0 0
0 0 0 0 0 z
0 0 x 0 x x
0 0 0 y y y
0 0 x y u u
0 z x y u 1
"""


@pytest.fixture()
def ex62_path(tmp_path):
    path = tmp_path / "ex.b1a"
    path.write_text(EX62_FILE, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_parse_matches_builtin(self, ex62):
        assert parse_algebra_text(EX62_FILE) == ex62

    def test_serialize_roundtrip(self, ex62, b1, chain4):
        for algebra in (ex62, b1, chain4, b.builtin("bool-2")):
            assert parse_algebra_text(serialize_algebra(algebra)) == algebra

    def test_comments_and_blank_lines_ignored(self):
        noisy = "\n# leading\n\n" + EX62_FILE.replace("add\n", "add  # table\n")
        assert parse_algebra_text(noisy) == b.builtin("example-6-2")

    def test_missing_one_directive(self):
        broken = EX62_FILE.replace("one 1\n", "")
        with pytest.raises(ParseError, match="missing directive: one"):
            parse_algebra_text(broken)

    def test_wrong_row_length_names_the_row(self):
        broken = EX62_FILE.replace("x x x u u 1\n", "x x x u u\n")
        with pytest.raises(ParseError, match="row 3 has 5 entries, expected 6"):
            parse_algebra_text(broken)

    def test_unknown_label_reports_position(self):
        broken = EX62_FILE.replace("0 0 x 0 x x", "0 0 x 0 q x")
        with pytest.raises(ParseError, match="entry 5: unknown label 'q'"):
            parse_algebra_text(broken)

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_algebra_text("elements 0 1\nbogus\n")

    def test_duplicate_directive(self):
        with pytest.raises(ParseError, match="duplicate directive"):
            parse_algebra_text("elements 0 1\nelements 0 1\n")

    def test_zero_must_be_first(self):
        broken = EX62_FILE.replace("elements 0 z", "elements z 0").replace(
            "zero 0", "zero 0"
        )
        with pytest.raises(ParseError, match="must be listed first"):
            parse_algebra_text(broken)

    def test_comma_in_label_names_its_line(self):
        broken = EX62_FILE.replace("elements 0 z x", "elements 0 z,w x")
        with pytest.raises(ParseError, match=r"^line 2: bad label 'z,w'"):
            parse_algebra_text(broken)

    def test_axiom_violation_surfaces(self):
        broken = EX62_FILE.replace("0 0 x 0 x x", "0 0 x u x x")
        with pytest.raises(b.AxiomError):
            parse_algebra_text(broken)

    # Each text holds two defects; the reader reports the one it meets first.
    @pytest.mark.parametrize(
        ("text", "message"),
        [
            # a bad label on the elements line, then an add table cut short
            (EX62_FILE.replace("elements 0 z x", "elements 0 z x,w").split("x x x u u 1\n")[0],
             "line 2: bad label 'x,w': labels are non-empty and contain no "
             "whitespace, '#' or ','"),
            # a short row 2 in a mul table that stops after 3 rows
            (EX62_FILE.replace("0 0 0 0 0 z\n", "0 0 0 0 z\n").split("0 0 0 y y y\n")[0],
             "line 14: mul table row 2 has 5 entries, expected 6"),
            # an unknown add entry, then a second zero directive
            (EX62_FILE.replace("x x x u u 1\n", "x x q u u 1\n") + "zero 0\n",
             "line 8, entry 3: unknown label 'q'"),
            # an unknown zero label, and no mul directive
            (EX62_FILE.replace("zero 0\n", "zero q\n").split("mul\n")[0],
             "line 12: missing directive: mul"),
        ],
        ids=["label-then-short-add", "short-row-then-short-mul",
             "add-entry-then-duplicate", "zero-label-then-missing-mul"],
    )
    def test_first_defect_is_reported(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_algebra_text(text)
        assert str(caught.value) == message


# Pieces of .b1a text: directives, the example's labels, separators, and
# characters the format gives a meaning to.
_B1A_PIECES = st.sampled_from(
    ["elements", "zero", "one", "add", "mul", "0", "z", "x", "y", "u", "1",
     "q", " ", "\n", "#", ",", "\t", "\u00e9"]
)


@st.composite
def _mutated_ex62(draw) -> str:
    """The example file with up to three short spans replaced."""
    text = EX62_FILE
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        patch = "".join(draw(st.lists(_B1A_PIECES, max_size=4)))
        text = text[:start] + patch + text[end:]
    return text


class TestParserProperty:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(_mutated_ex62(), st.text(max_size=120)))
    def test_text_yields_algebra_or_algebra_error(self, text):
        try:
            algebra = parse_algebra_text(text)
        except b.AlgebraError:
            return
        assert isinstance(algebra, b.Algebra)


class TestCommands:
    def test_validate_ok(self, ex62_path, capsys):
        assert main(["validate", ex62_path]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out

    def test_validate_invalid_exits_2_with_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.b1a"
        bad.write_text(EX62_FILE.replace("0 0 x 0 x x", "0 0 x u x x"), encoding="utf-8")
        assert main(["validate", str(bad), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["valid"] is False
        axioms = {v["axiom"] for v in payload["result"]["violations"]}
        assert "mul-commutative" in axioms
        witnesses = [v["witness"] for v in payload["result"]["violations"]]
        assert all(isinstance(w, list) for w in witnesses)

    def test_missing_file_exits_2(self, capsys):
        assert main(["spectrum", "/nonexistent/x.b1a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_utf8_file_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.b1a"
        bad.write_bytes(b"elements 0 1\xff\nzero 0\n")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "byte offset 12" in err

    def test_leading_byte_order_mark_is_accepted(self, tmp_path, capsys):
        marked = tmp_path / "bom.b1a"
        marked.write_bytes(b"\xef\xbb\xbf" + EX62_FILE.encode("utf-8"))
        assert parse_algebra_file(marked) == parse_algebra_text(EX62_FILE)
        assert main(["validate", str(marked)]) == 0
        assert "valid: True" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.b1a"
        bad.write_text("elements 0 1\nzero 0\n", encoding="utf-8")
        assert main(["ideals", str(bad)]) == 2
        assert "missing directive" in capsys.readouterr().err

    def test_ideals_counts(self, ex62_path, capsys):
        assert main(["ideals", ex62_path]) == 0
        out = capsys.readouterr().out
        assert "count: 9" in out
        assert main(["ideals", ex62_path, "--saturated"]) == 0
        out = capsys.readouterr().out
        assert "count: 6" in out
        assert "0,z,x,y,u" in out

    def test_spectrum_report(self, ex62_path, capsys):
        assert main(["spectrum", ex62_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["primes"] == ["0,z,x", "0,z,y", "0,z,x,y,u"]
        assert payload["min_primes"] == ["0,z,x", "0,z,y"]
        assert payload["max_saturated"] == ["0,z,x,y,u"]
        assert payload["nilradical"] == "0,z"
        assert payload["standard"] is True

    def test_nil_and_assoc(self, ex62_path, capsys):
        assert main(["nil", ex62_path]) == 0
        assert "nilradical: 0,z" in capsys.readouterr().out
        assert main(["assoc", ex62_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["associated"] == [
            {"witness": "y", "prime": "0,z,x"},
            {"witness": "x", "prime": "0,z,y"},
            {"witness": "z", "prime": "0,z,x,y,u"},
        ]

    def test_decompose(self, ex62_path, capsys):
        assert main(["decompose", ex62_path, "--ideal", "0,z"]) == 0
        out = capsys.readouterr().out
        assert "0,z,x" in out and "0,z,y" in out

    def test_decompose_minimal(self, ex62_path, capsys):
        assert main(["decompose", ex62_path, "--ideal", "0", "--minimal"]) == 0
        payload = capsys.readouterr().out
        assert "irredundant: True" in payload

    def test_decompose_requires_ideal_flag(self, ex62_path):
        with pytest.raises(SystemExit) as err:
            main(["decompose", ex62_path])
        assert err.value.code == 2

    def test_ideal_flag_validation(self, ex62_path, capsys):
        assert main(["decompose", ex62_path, "--ideal", "0,q"]) == 2
        assert "unknown label 'q'" in capsys.readouterr().err

        assert main(["decompose", ex62_path, "--ideal", "0,z,u"]) == 2
        err = capsys.readouterr().err
        assert "not closed under multiplication" in err and "witness" in err

        assert main(["decompose", ex62_path, "--ideal", "0,x"]) == 2
        err = capsys.readouterr().err
        assert "not saturated" in err and "z" in err

        assert main(["decompose", ex62_path, "--ideal", "0,z,x,y,u,1"]) == 2
        assert "proper" in capsys.readouterr().err

        assert main(["decompose", ex62_path, "--ideal", ""]) == 2
        assert "--ideal" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "evans"])
    @pytest.mark.parametrize("value", ["", ","])
    def test_an_ideal_value_naming_no_element_is_refused(
        self, ex62_path, capsys, command, value
    ):
        # One rule for every spelling: the zero ideal is spelled "0".
        assert main([command, ex62_path, "--ideal", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --ideal {value!r} names no element; the zero ideal is spelled '0'\n"
        )
        assert main([command, ex62_path, "--ideal", "0"]) == 0

    def test_laskerian_verdict_and_assert(self, ex62_path, capsys):
        assert main(["laskerian", ex62_path]) == 0
        out = capsys.readouterr().out
        assert "laskerian: False" in out
        assert "witness: 0" in out
        assert main(["laskerian", ex62_path, "--assert-laskerian"]) == 1

    def test_laskerian_assert_passes_on_chain(self, tmp_path, capsys):
        path = tmp_path / "c.b1a"
        path.write_text(serialize_algebra(b.chain_algebra(4)), encoding="utf-8")
        assert main(["laskerian", str(path), "--assert-laskerian"]) == 0

    def test_evans_default_quantifies_all_saturated(self, ex62_path, capsys):
        assert main(["evans", ex62_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["all_passed"] is True
        assert len(payload["reports"]) == 5  # proper saturated ideals
        assert main(["evans", ex62_path, "--assert-evans"]) == 0

    def test_evans_single_ideal(self, ex62_path, capsys):
        assert main(["evans", ex62_path, "--ideal", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["reports"][0]["maximal_conductors"] == [
            {"witness": "z", "conductor": "0,z,x,y,u"}
        ]

    def test_audit_exits_zero(self, ex62_path, capsys):
        assert main(["audit", ex62_path]) == 0
        out = capsys.readouterr().out
        assert "passed: True" in out

    def test_builtin_emission_roundtrip(self, tmp_path, capsys):
        assert main(["builtin", "example-6-2"]) == 0
        text = capsys.readouterr().out
        assert parse_algebra_text(text) == b.builtin("example-6-2")
        target = tmp_path / "chain.b1a"
        assert main(["builtin", "chain-5", "-o", str(target)]) == 0
        assert parse_algebra_text(target.read_text()) == b.chain_algebra(5)

    def test_builtin_unknown_exits_2(self, capsys):
        assert main(["builtin", "mystery"]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_builtin_beyond_order_bound_exits_2(self, capsys):
        start = time.perf_counter()
        assert main(["builtin", "bool-40"]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err.startswith("error: builtin 'bool-40' exceeds")

    def test_enumeration_bound_refusal_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "chain.b1a"
        path.write_text(serialize_algebra(b.chain_algebra(21)), encoding="utf-8")
        assert main(["ideals", str(path)]) == 0
        capsys.readouterr()
        path = tmp_path / "null.b1a"
        path.write_text(serialize_algebra(null_algebra(14)), encoding="utf-8")
        monkeypatch.setenv("B1ALG_ENUM_BOUND", "1000")
        assert main(["ideals", str(path)]) == 2
        assert "enumeration bound 1000" in capsys.readouterr().err

    def test_axiom_error_names_labels(self, tmp_path, capsys):
        # Every command but validate reports tables that fail the axioms
        # through main's invalid-algebra branch, naming the witness labels.
        bad = tmp_path / "bad.b1a"
        bad.write_text(EX62_FILE.replace("0 0 x 0 x x", "0 0 x u x x"), encoding="utf-8")
        assert main(["spectrum", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid algebra: axiom mul-commutative violated at (x, y) "
            "(and 17 further violations)\n"
        )

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            (EX62_FILE.replace("zero 0\n", "zero 0 z\n"),
             "line 3: zero directive needs exactly one label"),
            (EX62_FILE.replace("add\n", "add 0\n"), "line 5: add directive takes no arguments"),
            (EX62_FILE.split("mul\n")[0] + "mul\n0 0 0 0 0 0\n",
             "line 12: mul table ends after 1 of 6 rows"),
            (EX62_FILE.replace("zero 0\n", "zero q\n"), "line 3: unknown label 'q'"),
            (EX62_FILE.replace("one 1\n", "one q\n"), "line 4: unknown label 'q'"),
        ],
    )
    def test_input_errors_exit_2_with_their_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.b1a"
        path.write_text(text, encoding="utf-8")
        assert main(["ideals", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        ("bound", "refusal"),
        [
            ("4", "the ideals of this order-6 algebra exceed the enumeration bound 4; "
                  "raise it via B1ALG_ENUM_BOUND if you have the patience"),
            ("garbage", "B1ALG_ENUM_BOUND must be an integer, got 'garbage'"),
            ("0", "B1ALG_ENUM_BOUND must be positive, got 0"),
        ],
        ids=["4", "garbage", "0"],
    )
    def test_the_bound_refuses_exactly_the_enumerating_commands(
        self, ex62_path, capsys, monkeypatch, bound, refusal
    ):
        # validate, nil and decompose --ideal 0 never enumerate the ideals,
        # and ideals --saturated, assoc and evans read the saturated ideals off
        # the natural order, so no bound, however low or malformed, changes
        # their reports.
        monkeypatch.delenv("B1ALG_ENUM_BOUND", raising=False)
        untouched = (
            ["validate"], ["nil"], ["decompose", "--ideal", "0"], ["ideals", "--saturated"],
            ["assoc"], ["evans"],
        )
        unbounded = []
        for command in untouched:
            assert main([command[0], ex62_path, *command[1:]]) == 0
            unbounded.append(capsys.readouterr())
        monkeypatch.setenv("B1ALG_ENUM_BOUND", bound)
        for command, report in zip(untouched, unbounded):
            assert main([command[0], ex62_path, *command[1:]]) == 0
            assert capsys.readouterr() == report
        for command in (["ideals"], ["spectrum"], ["laskerian"], ["audit"]):
            assert main([command[0], ex62_path, *command[1:]]) == 2, command
            assert capsys.readouterr() == ("", f"error: {refusal}\n"), command

    def test_trivial_algebra_audits_clean(self, tmp_path, capsys):
        path = tmp_path / "trivial.b1a"
        path.write_text(serialize_algebra(b.builtin("trivial")), encoding="utf-8")
        assert main(["audit", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["result"]
        assert payload["valid"] is True
        assert payload["trivial"] is True


# ``b1alg --help`` and ``b1alg <command> --help`` at COLUMNS=80 on Python
# 3.11, byte for byte.  The five commands that take only a file share one
# text apart from their name.
_FILE_ONLY_HELP = """\
usage: b1alg {} [-h] [--format {{text,json}}] file

positional arguments:
  file                  algebra definition (.b1a)

options:
  -h, --help            show this help message and exit
  --format {{text,json}}  report format (default: text)
"""

_HELP = {
    (): """\
usage: b1alg [-h] [--version]
             {validate,ideals,spectrum,nil,assoc,decompose,laskerian,evans,audit,builtin}
             ...

Analyze finite characteristic-one semirings (.b1a files).

positional arguments:
  {validate,ideals,spectrum,nil,assoc,decompose,laskerian,evans,audit,builtin}
    validate            check the axioms of an algebra file
    ideals              enumerate the ideals
    spectrum            primes, minimal primes, spectra
    nil                 the nilradical
    assoc               associated primes with witnesses
    decompose           prime decomposition of a saturated ideal's radical
    laskerian           saturated-primary decomposability of all saturated
                        ideals
    evans               maximal-conductor reports for saturated ideals
    audit               run the full invariant suite; exit 1 on any failure
    builtin             emit a builtin algebra as .b1a text

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    **{(name,): _FILE_ONLY_HELP.format(name)
       for name in ("validate", "spectrum", "nil", "assoc", "audit")},
    ("ideals",): """\
usage: b1alg ideals [-h] [--format {text,json}] [--saturated] file

positional arguments:
  file                  algebra definition (.b1a)

options:
  -h, --help            show this help message and exit
  --format {text,json}  report format (default: text)
  --saturated           saturated ideals only
""",
    ("decompose",): """\
usage: b1alg decompose [-h] [--format {text,json}] --ideal SET [--minimal]
                       file

positional arguments:
  file                  algebra definition (.b1a)

options:
  -h, --help            show this help message and exit
  --format {text,json}  report format (default: text)
  --ideal SET           comma-separated element labels denoting an ideal
  --minimal             drop redundant components
""",
    ("laskerian",): """\
usage: b1alg laskerian [-h] [--format {text,json}] [--assert-laskerian] file

positional arguments:
  file                  algebra definition (.b1a)

options:
  -h, --help            show this help message and exit
  --format {text,json}  report format (default: text)
  --assert-laskerian    exit with status 1 when the property fails
""",
    ("evans",): """\
usage: b1alg evans [-h] [--format {text,json}] [--ideal SET] [--assert-evans]
                   file

positional arguments:
  file                  algebra definition (.b1a)

options:
  -h, --help            show this help message and exit
  --format {text,json}  report format (default: text)
  --ideal SET           comma-separated element labels denoting an ideal
  --assert-evans        exit with status 1 when the property fails
""",
    ("builtin",): """\
usage: b1alg builtin [-h] [-o FILE] name

positional arguments:
  name                  one of: b1, trivial, example-6-2, chain-N, bool-K

options:
  -h, --help            show this help message and exit
  -o FILE, --output FILE
                        write to FILE instead of stdout
""",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse lays out help differently by version"
)
class TestHelp:
    @pytest.mark.parametrize("command", list(_HELP), ids=lambda c: " ".join(c) or "b1alg")
    def test_help_text_is_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as caught:
            main([*command, "--help"])
        assert caught.value.code == 0
        assert capsys.readouterr() == (_HELP[command], "")


class TestDeterminism:
    def test_json_byte_identical_across_runs(self, ex62_path, capsys):
        outputs = []
        for _ in range(3):
            assert main(["spectrum", ex62_path, "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_text_byte_identical(self, ex62_path, capsys):
        assert main(["audit", ex62_path]) == 0
        first = capsys.readouterr().out
        assert main(["audit", ex62_path]) == 0
        assert capsys.readouterr().out == first


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter that imports this checkout's b1alg."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


class TestConsoleScript:
    def test_version_and_audit_subprocess(self, ex62_path):
        proc = _run_cli("-m", "b1alg.cli", "--version")
        assert proc.returncode == 0
        assert "b1alg" in proc.stdout

        proc = _run_cli("-m", "b1alg.cli", "audit", ex62_path)
        assert proc.returncode == 0
        assert "passed: True" in proc.stdout

    def test_builtin_product_prints_no_warning(self):
        # bool-5 has order 32, past the enumeration bound, but emitting it
        # never enumerates, so nothing may reach stderr.
        proc = _run_cli("-W", "error", "-m", "b1alg.cli", "builtin", "bool-5")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("elements ")

    def test_audit_under_optimisation(self):
        # -O strips assert statements; the engine's invariants must not rely on them
        proc = _run_cli("-O", "-m", "b1alg.cli", "audit", str(EXAMPLE_FILE))
        assert proc.returncode == 0, proc.stderr
        assert "passed: True" in proc.stdout
