import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sympla.cli import USAGE, ParsedFile, parse, run, serialize
from sympla.catalog import build

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ALGEBRAS = SRC.parent / "algebras"

H3_FILE = """dim 3
basis X Y Z
bracket 1 2 = 3:1
omega 1 3 = 1
omega 2 3 = 0
"""


def test_parse_heisenberg():
    parsed = parse("dim 3\nbasis X Y Z\nbracket X Y = Z:1\n")
    assert parsed.algebra.dim == 3
    assert parsed.algebra.bracket_basis(0, 1) == (0, 0, 1)
    assert parsed.symplectic is None


def test_parse_serialize_round_trip_catalog():
    for name in ("g8", "fdim_metab", "filiform4"):
        entry = build(name)
        parsed = ParsedFile(entry.algebra, entry.symplectic, entry.flat,
                            dict(entry.marked))
        text = serialize(parsed)
        reparsed = parse(text)
        assert reparsed.algebra.table == entry.algebra.table
        assert reparsed.algebra.labels == entry.algebra.labels
        assert reparsed.symplectic.omega.rows == entry.symplectic.omega.rows
        assert serialize(reparsed) == text  # canonical fixed point


def test_parse_rejects_bad_omega():
    bad = """dim 4
bracket 1 2 = 3:1
bracket 1 3 = 4:1
omega 1 2 = 1
omega 3 4 = 1
"""
    from sympla.symplectic import SymplecticError

    with pytest.raises(SymplecticError) as err:
        parse(bad)
    assert "witness" in str(err.value)


def test_parse_error_reports_line():
    from sympla.cli import ParseError

    with pytest.raises(ParseError) as err:
        parse("dim 2\nbracket 1 = 2:1\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("dim 2\nbasis a b\ndim 3\nbracket 1 2 = 3:1\n", "line 3: repeated dim line"),
    ("dim 2\nbasis a b\nbasis c d\n", "line 3: repeated basis line"),
    ("dim 3\nbasis a a b\nbracket a b = 1:1\n",
     "line 3: basis token 'a' names more than one basis vector"),
])
def test_run_rejects_repeated_directives_and_ambiguous_labels(tmp_path, text, message):
    src = tmp_path / "x.alg"
    src.write_text(text)
    assert _error(["validate", str(src)], 2, "parse") == message


def test_run_usage_and_unknown():
    code, out = run([])
    assert code == 1 and out == USAGE
    code, out = run(["frobnicate"])
    assert code == 1
    code, out = run(["--help"])
    assert code == 0 and out == USAGE


def test_run_analyze_g8_values():
    code, out = run(["analyze", "catalog:g8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["z2_dim"] == 11
    assert payload["rank"] == {"lower": 3, "upper": 3, "exact": True,
                               "certificates": ["envelope"]}
    assert payload["lagrangian_ideal"]["status"] == "certified_none"


def test_run_deterministic():
    a = run(["analyze", "catalog:fdim_metab"])
    b = run(["analyze", "catalog:fdim_metab"])
    assert a == b


def test_run_lagrangian_g10():
    code, out = run(["lagrangian", "catalog:g10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified_none"
    assert payload["certificate"] == "envelope+detS"


def test_run_reduce_by_label():
    code, out = run(["reduce", "catalog:fdim_metab", "--ideal", "Z"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced_dim"] == 2
    assert payload["reduced_abelian"] is True


def test_run_rank_fdim():
    code, out = run(["rank", "catalog:fdim_metab"])
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == (1, 1)


def test_run_base_with_params():
    code, out = run(["base", "catalog:aff?n=2", "--strategy", "greedy"])
    assert code == 0
    payload = json.loads(out)
    assert payload["base_dim"] == 0
    assert len(payload["steps"]) == 2


def test_run_unresolved_exit_code():
    # the affine algebra has no certificate for its rank upper bound, so the
    # Lagrangian-ideal question stays unresolved
    code, out = run(["lagrangian", "catalog:aff?n=2", "--certified"])
    payload = json.loads(out)
    if payload["status"] == "unresolved":
        assert code == 3
    else:
        assert code == 0


def test_run_validation_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("dim 4\nbracket 1 2 = 3:1\nbracket 1 3 = 4:1\n"
                   "omega 1 2 = 1\nomega 3 4 = 1\n")
    code, out = run(["validate", str(bad)])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "validation"


def _error(argv, code, kind):
    got, out = run(argv)
    assert got == code
    payload = json.loads(out)
    assert payload["error"] == kind and payload["message"]
    return payload["message"]


def test_run_unknown_catalog_name_is_a_usage_error():
    assert "nope" in _error(["analyze", "catalog:nope"], 1, "usage")
    assert "nope" in _error(["catalog", "nope"], 1, "usage")


def test_run_bad_catalog_parameter_is_a_validation_error():
    assert "'x'" in _error(["analyze", "catalog:aff?n=x"], 2, "validation")
    assert "'x'" in _error(["catalog", "aff?n=x"], 2, "validation")
    _error(["analyze", "catalog:aff?m=3"], 2, "validation")
    assert _error(["analyze", "catalog:aff?n=0"], 2, "validation") == "aff(n) needs n >= 1"


def test_run_directory_source_is_an_io_error(tmp_path):
    _error(["analyze", str(tmp_path)], 1, "io")


def test_run_binary_source_is_a_parse_error(tmp_path):
    src = tmp_path / "blob.alg"
    src.write_bytes(b"dim 2\n\xff\xfe\n")
    _error(["analyze", str(src)], 2, "parse")


def test_run_bad_ideal_flag_is_reported():
    assert "1/0" in _error(["reduce", "catalog:g8", "--ideal", "1/0"], 2, "parse")
    _error(["reduce", "catalog:g8", "--ideal", "0,0,1/2"], 2, "validation")
    _error(["reduce", "catalog:g8", "--ideal", "9"], 2, "validation")


def test_run_bad_cochain_flag_names_the_indices_as_typed():
    for alpha in ("0 1: 1,0", "2 1: 1,0", "1 9: 1,0"):
        message = _error(["extend", "catalog:tn_cotangent", "--alpha", alpha], 2, "validation")
        assert f"'{alpha.split(':')[0]}'" in message


@pytest.mark.parametrize("argv, code, kind", [
    (["rank", "catalog:fdim_metab", "--ideal"], 1, "usage"),
    (["rank", "catalog:fdim_metab", "--budget", "5"], 1, "usage"),
    (["rank", "catalog:fdim_metab", "--json"], 1, "usage"),
    (["rank", "catalog:fdim_metab", "--seed", "1"], 1, "usage"),
    (["frobnicate", "catalog:fdim_metab"], 1, "usage"),
    (["rank"], 1, "usage"),
    (["base", "catalog:fdim_metab", "--strategy", "bogus"], 1, "usage"),
    (["cohomology", "catalog:fdim_metab", "--degree", "x"], 2, "parse"),
    (["cohomology", "catalog:fdim_metab", "--degree", "0"], 2, "validation"),
])
def test_run_command_line_errors_print_the_json_body(argv, code, kind):
    """Missing flag values, unknown flags and commands, a missing source and
    bad flag values are reported like every other error."""
    _error(argv, code, kind)


COMMANDS = ("validate", "analyze", "reduce", "base", "rank", "lagrangian", "oxidize",
            "extend", "cohomology", "catalog", "frobnicate", "help")
SOURCES = ("catalog:fdim_metab", "catalog:filiform4", "catalog:cs6", "catalog:irr6",
           "catalog:gklambda", "catalog:tn_cotangent", "catalog:aff?n=1",
           "catalog:trivial", "fdim_metab", "nope")
FLAGS = ("--ideal", "--strategy", "--phi", "--lam", "--alpha", "--degree", "--certified",
         "--budget", "--json", "--seed", "--help")
VALUES = ("Z", "XY", "1", "9", "1,0", "1/0", "0,0;1,0", "1 2: 0,1", "central", "greedy",
          "bogus", "0", "2", "-1", "x", "")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_keeps_its_contract_on_any_command_line(tmp_path, data):
    """Whatever the command line, ``run`` returns an exit code in 0..3 and
    prints the usage text or exactly one JSON object, which is an error body
    whenever the code is 1 or 2."""
    garbage = tmp_path / "garbage.alg"
    garbage.write_bytes(b"dim two\nbracket 1 = \xff\n")
    tokens = st.sampled_from(SOURCES + FLAGS + VALUES
                             + (str(garbage), str(tmp_path / "missing.alg")))
    argv = [data.draw(st.sampled_from(COMMANDS))] + data.draw(st.lists(tokens, max_size=5))
    code, out = run(argv)
    assert code in (0, 1, 2, 3)
    if out == USAGE:
        return
    assert out.endswith("}\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if code in (1, 2):
        assert set(payload) == {"error", "message"}


NUMBER = re.compile(r"-?\d+")
MUTATION = st.tuples(st.sampled_from(("duplicate", "perturb", "drop", "swap")),
                     st.integers(0, 99), st.integers(0, 99),
                     st.sampled_from(("0", "1", "2", "3", "-1", "9", "1/2", "1/0", "x", "")))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(p.name for p in ALGEBRAS.glob("*.alg"))),
       mutations=st.lists(MUTATION, min_size=1, max_size=4))
@example(name="filiform4.alg", mutations=[("duplicate", 0, 7, ""), ("perturb", 7, 0, "3")])
def test_validate_keeps_its_contract_on_mutated_files(tmp_path, name, mutations):
    """Shipped files with lines duplicated, dropped or swapped and number
    tokens replaced: ``validate`` returns an exit code in 0..3 and exactly one
    JSON object, which is an error body whenever the code is 1 or 2.  The
    explicit example appends a second, smaller ``dim`` line."""
    lines = (ALGEBRAS / name).read_text().splitlines()
    for kind, i, j, token in mutations:
        i %= len(lines)  # four drops still leave three lines
        if kind == "duplicate":
            lines.insert(j % (len(lines) + 1), lines[i])
        elif kind == "drop":
            del lines[i]
        elif kind == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            numbers = list(NUMBER.finditer(lines[i]))
            if numbers:
                m = numbers[j % len(numbers)]
                lines[i] = lines[i][:m.start()] + token + lines[i][m.end():]
    src = tmp_path / "mutated.alg"
    src.write_text("\n".join(lines) + "\n")
    code, out = run(["validate", str(src)])
    assert code in (0, 1, 2, 3)
    assert out.endswith("}\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if code in (1, 2):
        assert set(payload) == {"error", "message"}


def test_run_oxidize_and_extend(tmp_path):
    # oxidize a 2-dimensional abelian symplectic algebra with a nilpotent phi
    src = tmp_path / "ab2.alg"
    src.write_text("dim 2\nomega 1 2 = 1\n")
    code, out = run(["oxidize", str(src), "--phi", "0,0;1,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 4
    # extend a flat algebra given by nabla lines
    flat_src = tmp_path / "flat.alg"
    flat_src.write_text("dim 2\nnabla 1 1 = 1:1\nnabla 1 2 = 2:1\nnabla 2 1 = 2:1\n")
    code, out = run(["extend", str(flat_src)])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 4


def test_oxidize_output_validates_and_oxidizes_again(tmp_path):
    """Oxidation labels its new vectors xi and H whatever the source labels
    are, and the file it writes uses indices, so a repeated label in it is
    never ambiguous: fdim_metab (which has an H) oxidized twice stays valid."""
    src = ALGEBRAS / "fdim_metab.alg"
    for n in (4, 6):
        code, out = run(["oxidize", str(src), "--phi", ";".join([",".join("0" * n)] * n)])
        assert code == 0
        src = tmp_path / f"ox{n}.alg"
        src.write_text(json.loads(out)["file"])
        code, out = run(["validate", str(src)])
        assert code == 0 and json.loads(out)["dim"] == n + 2
    assert src.read_text().startswith("dim 8\nbasis xi xi X Y Z H H H\n")


def test_run_oxidize_the_zero_algebra():
    """The zero algebra with phi = 0 oxidises to the abelian plane <xi, H>."""
    code, out = run(["oxidize", "catalog:trivial", "--phi", ";"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["oxidized_center_dim"] == 2


def test_run_cohomology_with_flat(tmp_path):
    flat_src = tmp_path / "flat.alg"
    flat_src.write_text("dim 2\nnabla 1 1 = 1:1\nnabla 1 2 = 2:1\nnabla 2 1 = 2:1\n")
    code, out = run(["cohomology", str(flat_src)])
    assert code == 0
    payload = json.loads(out)
    assert payload["lagrangian_extension_cohomology"]["kappa_dim"] == 1


def test_run_catalog_listing_and_export(tmp_path):
    code, out = run(["catalog"])
    assert code == 0
    payload = json.loads(out)
    assert "g8" in payload["entries"]
    code, out = run(["catalog", "g8"])
    payload = json.loads(out)
    reparsed = parse(payload["file"])
    assert reparsed.algebra.table == build("g8").algebra.table


def test_run_catalog_export_with_params():
    code, out = run(["catalog", "aff?n=3"])
    assert code == 0
    reparsed = parse(json.loads(out)["file"])
    entry = build("aff", n=3)
    assert reparsed.algebra.table == entry.algebra.table
    assert reparsed.symplectic.omega.rows == entry.symplectic.omega.rows


@pytest.mark.parametrize("n", (2, 3, 4))
def test_run_catalog_export_of_a_cotangent_algebra(tmp_path, n):
    """T*h carries the flat connection of h, which lives on h and not on T*h:
    the export writes no nabla lines for it, and the file validates."""
    code, out = run(["catalog", f"tn_cotangent?n={n}"])
    assert code == 0
    text = json.loads(out)["file"]
    assert "nabla" not in text
    path = tmp_path / "tn.alg"
    path.write_text(text)
    code, out = run(["validate", str(path)])
    assert code == 0 and json.loads(out)["dim"] == build("tn_cotangent", n=n).algebra.dim


def test_optimized_run_prints_the_same_output():
    """Invariant checks raise exceptions, so ``python -O`` changes nothing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["-m", "sympla", "analyze", "catalog:cs6"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env,
                               check=True)
    assert plain.stdout and optimized.stdout == plain.stdout
