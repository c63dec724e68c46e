"""End-to-end command line behavior: reports, determinism, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import linpres
from linpres.cli import main
from linpres.forms import FormError, parse_form, simplex_lattice


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_report(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "list"
    assert "cubic-disc" in obj["forms"]
    assert "Sp6" in obj["corollaries"]
    assert "cubic-census-f5" in obj["cases"]


def test_eval_inline_vector(capsys):
    code, out, _ = run(capsys, "eval", "--form", "cubic-disc", "--field", "Fp:7",
                       "--vector", '["1","2","3","4"]')
    assert code == 0
    obj = json.loads(out)
    assert obj == {"command": "eval", "field": "Fp:7", "form": "cubic-disc", "value": "3"}


def test_eval_matrix_object_vector(capsys):
    entries = ["0", "1", "0", "0", "-1", "0", "0", "0", "0", "0", "0", "1", "0", "0", "-1", "0"]
    blob = json.dumps({"space": "alt", "params": {"n": 4}, "entries": entries})
    code, out, _ = run(capsys, "eval", "--form", "skew-pf:4", "--field", "Q", "--vector", blob)
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_eval_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('["0","1","-1","0"]'))
    code, out, _ = run(capsys, "eval", "--form", "cubic-disc", "--field", "Q")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_eval_file_and_out(tmp_path, capsys):
    src = tmp_path / "v.json"
    src.write_text('["1","0","0","1"]')
    dst = tmp_path / "report.json"
    code, out, _ = run(capsys, "eval", "--form", "cubic-disc", "--field", "Q",
                       "--in", str(src), "--out", str(dst))
    assert code == 0
    assert dst.read_text() == out
    assert json.loads(out)["value"] == "-27"


def test_eval_errors(capsys):
    code, _, err = run(capsys, "eval", "--form", "nosuch", "--field", "Q", "--vector", "[]")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "eval", "--form", "cubic-disc", "--field", "Fp:4", "--vector", "[]")
    assert code == 2
    code, _, err = run(capsys, "eval", "--form", "cubic-disc", "--field", "Q", "--vector", '["1"]')
    assert code == 2
    code, _, err = run(capsys, "eval", "--form", "cubic-disc", "--field", "Q", "--vector", "not json")
    assert code == 2 and "JSON" in err


@pytest.mark.parametrize("vector", ['[123456789012345678901.0, 1]', '["123456789012345678901.0", "1"]'])
def test_eval_reads_json_numbers_exactly(capsys, vector):
    # a JSON number keeps all its digits, as the same entry written as a string
    # does; read as a float, x y would come out as 246913578024691360000
    code, out, _ = run(capsys, "eval", "--form", "quadric:2", "--field", "Q", "--vector", vector)
    assert code == 0
    assert json.loads(out)["value"] == "246913578024691357802"
    code, out, _ = run(capsys, "eval", "--form", "cubic-disc", "--field", "Fp:7", "--vector", "[0.5, 1.5e0, 2, 4]")
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_eval_rejects_a_string_as_the_entries_list(capsys):
    # a string is no entries list, though it has four characters
    blob = '{"space": "cubic", "params": {}, "entries": "1234"}'
    code, out, err = run(capsys, "eval", "--form", "cubic-disc", "--field", "Q", "--vector", blob)
    assert code == 2 and out == ""
    assert "entries must be a JSON array" in err


@pytest.mark.parametrize("form, vector", [
    ("cubic-disc", '{"space": "cubic", "params": null, "entries": ["1", "2", "3", "4"]}'),
    ("cubic-disc", '{"space": "cubic", "params": [], "entries": ["1", "2", "3", "4"]}'),
    ("symm-det:2", '{"space": "symm", "params": {"n": 2.9}, "entries": ["1", "2", "2", "4"]}'),
    ("symm-det:2", '{"space": "symm", "params": {"n": true}, "entries": ["1", "2", "2", "4"]}'),
])
def test_eval_rejects_space_params_that_are_not_integers(capsys, form, vector):
    code, out, err = run(capsys, "eval", "--form", form, "--field", "Q", "--vector", vector)
    assert code == 2 and out == ""
    assert "params must map names to integers" in err


@pytest.mark.parametrize("line, largest", [("symm-det", 15), ("skew-pf", 20), ("square-det", 15),
                                           ("quadric", 150), ("mat2n", 140)])
def test_sized_lines_refuse_sizes_above_their_bound(capsys, line, largest):
    # the expansions behind large determinants and Pfaffians would not finish
    assert parse_form("%s:%d" % (line, largest)).line == "%s:%d" % (line, largest)
    code, out, err = run(capsys, "eval", "--form", "%s:%d" % (line, 2 * largest), "--field", "Q", "--vector", "[]")
    assert code == 2 and out == ""
    assert "form %r takes sizes up to %d, got %d" % (line, largest, 2 * largest) in err


@pytest.mark.parametrize("n", [12, 14])
def test_eval_large_pfaffian(capsys, n):
    # above the compiled sizes the Pfaffian runs by expansion
    from linpres.fields import QQ
    from reference import pfaffian

    pairing = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        pairing[k][k + 1], pairing[k + 1][k] = 1, -1
    code, out, _ = run(capsys, "eval", "--form", "skew-pf:%d" % n, "--field", "Q",
                       "--vector", json.dumps([str(x) for row in pairing for x in row]))
    assert code == 0
    assert json.loads(out)["value"] == "1"
    rng = random.Random(n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-9, 9)
            rows[j][i] = -rows[i][j]
    code, out, _ = run(capsys, "eval", "--form", "skew-pf:%d" % n, "--field", "Q",
                       "--vector", json.dumps([str(x) for row in rows for x in row]))
    assert code == 0
    assert json.loads(out)["value"] == str(pfaffian(QQ, rows))


def test_eval_sp6_needs_kernel_point(capsys):
    coords = ["1"] + ["0"] * 19
    code, _, err = run(capsys, "eval", "--form", "sp6", "--field", "Fp:7",
                       "--vector", json.dumps(coords))
    assert code == 2 and "contraction" in err


def test_minimal_structure(capsys):
    code, out, _ = run(capsys, "minimal", "--form", "cubic-disc", "--field", "Q",
                       "--oracle", "structure", "--vector", '["1","3","3","1"]')
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"]["is_minimal"] is True
    assert obj["verdict"]["oracle"] == "structure"


def test_minimal_radical_and_rrs(capsys):
    vec = '["0","1","-1","0"]'
    for oracle in ("radical", "rrs"):
        code, out, _ = run(capsys, "minimal", "--form", "cubic-disc", "--field", "Fp:7",
                           "--oracle", oracle, "--vector", vec)
        assert code == 0
        assert json.loads(out)["verdict"]["is_minimal"] is False


def test_minimal_randomized_rules(capsys):
    vec = '["1","3","3","1"]'
    code, _, err = run(capsys, "minimal", "--form", "cubic-disc", "--field", "Fp:7",
                       "--oracle", "rrs", "--policy", "randomized", "--seed", "3",
                       "--vector", vec)
    assert code == 2 and "finite field" in err
    code, _, err = run(capsys, "minimal", "--form", "cubic-disc", "--field", "Q",
                       "--oracle", "rrs", "--policy", "randomized", "--vector", vec)
    assert code == 2 and "--seed" in err
    code, out, _ = run(capsys, "minimal", "--form", "cubic-disc", "--field", "Q",
                       "--oracle", "rrs", "--policy", "randomized", "--seed", "3",
                       "--vector", vec)
    assert code == 0
    assert json.loads(out)["verdict"]["is_minimal"] is True


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--corollary", "cubics", "--field", "Fp:7", "--seed", "11",
            "--elements", "4")
    code1, out1, err1 = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "wall time" in err1
    obj = json.loads(out1)
    assert obj["ok"] is True and obj["command"] == "verify"
    code3, out3, _ = run(capsys, "verify", "--corollary", "cubics", "--field", "Fp:7",
                         "--seed", "12", "--elements", "4")
    assert code3 == 0 and out3 != out1


def test_verify_case_insensitive_id(capsys):
    code, out, _ = run(capsys, "verify", "--corollary", "sl6", "--field", "Q",
                       "--seed", "2", "--elements", "1")
    assert code == 0
    assert json.loads(out)["corollary"] == "SL6"


def test_verify_out_of_scope(capsys):
    code, out, err = run(capsys, "verify", "--corollary", "e6", "--field", "Q", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.strip() == "out of scope: this family is not implemented"
    code, _, err = run(capsys, "verify", "--corollary", "E6", "--field", "Q", "--seed", "1")
    assert code == 2 and "out of scope" in err


def test_verify_unknown_corollary(capsys):
    code, _, err = run(capsys, "verify", "--corollary", "nope", "--field", "Q", "--seed", "1")
    assert code == 2 and "unknown corollary" in err


def test_verify_rejects_an_empty_sample_budget(capsys):
    for count in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--corollary", "cubics", "--field", "Fp:7",
                             "--seed", "1", "--elements", count)
        assert code == 2 and out == "" and "elements" in err


def test_verify_rejects_a_budget_below_the_number_of_forms(capsys):
    # symm.f has three forms: a budget of 1 or 2 would check 3 elements
    for count in ("1", "2"):
        code, out, err = run(capsys, "verify", "--corollary", "symm.f", "--field", "Fp:7",
                             "--seed", "1", "--elements", count)
        assert code == 2 and out == ""
        assert "number of forms (3)" in err
    code, out, _ = run(capsys, "verify", "--corollary", "symm.f", "--field", "Fp:7",
                       "--seed", "1", "--elements", "3")
    assert code == 0 and json.loads(out)["elements_per_form"] == 1


def test_minimal_randomized_rejects_zero_trials(capsys):
    for count in ("0", "-3"):
        code, out, err = run(capsys, "minimal", "--form", "quadric:4", "--field", "Q",
                             "--oracle", "rrs", "--policy", "randomized", "--seed", "1",
                             "--trials", count, "--vector", '["1","2","3","4"]')
        assert code == 2 and out == "" and "trials" in err


# sha256 of `verify --seed 3 --elements 8` stdout, recorded before the forms
# were rewritten around one formula each; a change that keeps report bytes
# keeps these digests
VERIFY_DIGESTS = {
    ("symm.f", "Fp:7"): "93699f8f17395b95de9533f9dbb059366d25cea6f15ba83093ae7181011cac00",
    ("symm.f", "Q"): "0385a19319350e7a07c7ca993d5ccb149e470903a2a5924abf037b98125fa300",
    ("skew.f", "Fp:7"): "307e61921b003a6005abe25abc958fc56a891bd9b8a1354eeaa45233eb760f28",
    ("skew.f", "Q"): "b6e0884c7ef5898a21dc0ab896289c73c5d82c7f125bb676536e993407e65deb",
    ("skew.f4", "Fp:7"): "622548c92e12ba1c1aee64bd2e4904179bb0d09c47d322f5523a407b78ccbb08",
    ("skew.f4", "Q"): "5ba4514f63c78f77826f6b8116ecc2ab56b66f5d90b028b0520325b8bc7a1792",
    ("square.f", "Fp:7"): "5ff401c19b00940c330896e55d7b63e88d3b992d4639ec16d4731b7471d15ccc",
    ("square.f", "Q"): "8dad3c90df961f3dfe460114a476bd90c8ecdedd399553ebdc2efbaa461d2348",
    ("cubics", "Fp:7"): "7672821d0a1ceac76ef5dec159113f9c12da7b52ba168d06317cf881e41be7ef",
    ("cubics", "Q"): "d74dbe2ab486f635dda4805e5e810157fe08d3c23c5f011b974194777e3158b0",
    ("SL6", "Fp:7"): "78c2b2da5efe9ec1beb688e35064353ee386d3db5636ce6d96671d117bd71664",
    ("SL6", "Q"): "79a105813b7ee642287b6c564011afa15e5faa0f00cdaa211fba29ed6d238dec",
    ("Sp6", "Fp:7"): "52e871326d5a0deac308aba160f1bd0afba94bfc17f7801701da0cef7d7724eb",
    ("Sp6", "Q"): "50c20258a337d63e80090fee5c69f0d661803d37c8272e79656ecedcc1e082f4",
    ("hyperdet", "Fp:7"): "0f1df7aa9dc30a74ab55272cd5724796de40a939fbf8d5b4a4ce5610cb2448d3",
    ("hyperdet", "Q"): "8d0e05c4a3925807d175a9707ee9ca2df1f641d8f94ecabf8bc68c04cc3fcc67",
    ("blackholes", "Fp:7"): "15b83335a0cbfedaa226c30c063b6e7a77bfb5ff25420ef32311e07d0ec64fed",
    ("blackholes", "Q"): "883564a3c08e5a2e4c607b7d7be211c273e95dc2ef4be8989687a6c2f51af910",
}


@pytest.mark.parametrize("cid,field", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_match_recorded_digest(capsys, cid, field):
    code, out, _ = run(capsys, "verify", "--corollary", cid, "--field", field,
                       "--seed", "3", "--elements", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[cid, field]


# sha256 of `verify --policy schwartz-zippel --seed 3 --elements 8` stdout and
# of `bruteforce` stdout, recorded before each family's action was built in
# integers once; the auto digests above reach Schwartz-Zippel only on sp6 and
# on cells of dimension above 10
SZ_VERIFY_DIGESTS = {
    ("symm.f", "Fp:7"): "8a575eacb5c840f55ab64b2f9d0937146898f1be3cde6ad0fc0f5ab73392aa96",
    ("symm.f", "Q"): "a14a7e2aba8d8ddb6a5b586a147a331e0242b588bffdaebcec067ba3652b634f",
    ("skew.f", "Fp:7"): "2d5d458be970ffa5541c71910e6f07b974bec35a3ca89b1b23dd28b1ed679be4",
    ("skew.f", "Q"): "0ccc0e522310846f7b5d8323c67f535b2bec8eece9ea2a8fe8689cfce5bf347b",
    ("skew.f4", "Fp:7"): "03f8154049aef7377c3b6ad4f7f76d891832fb7e47a3f9efd4730ef003cca282",
    ("skew.f4", "Q"): "0c4d534de8b634752d974388434e9ff28b3d9c5ce3b514bb2a15f3c55a16aeda",
    ("square.f", "Fp:7"): "7d5a295c7050595cc61c7349296dad263b2231aab95d343650c018761b3187c0",
    ("square.f", "Q"): "ea11eb131ec598ab08d14bc359eb0d889e86111b8ffff38c10f04b40fa887f13",
    ("cubics", "Fp:7"): "82fbf65b631d68f05b9426cae58dfc10cf04b938433f7e0e63368e8da7025ccb",
    ("cubics", "Q"): "2eda00cc9f2ea793caf1f6df436adcb2b762c466f639b17b161ecaa84c7718ad",
    ("SL6", "Fp:7"): "ddde6ccec2bb109cf0f7f641c401cb9a4d5cbce4981b884cc619c60a9f977a1d",
    ("SL6", "Q"): "6789ef68576a6e3485f639da96b0c431d9d73cf122a9b9a0aedd5c7732126ce5",
    ("Sp6", "Fp:7"): "9654b14dfdeb83d4bba713051d297c1b6f5b4a1266e0fb97675877a44b441e71",
    ("Sp6", "Q"): "ee7cf1c246f1e9dc66cb9798555cde5109ba7c94973e241ef7c6a5bf8d96aac9",
    ("hyperdet", "Fp:7"): "ce00f7cc69d0c2bcb4dc4db5668a90ba404b1fbbbbb34cbaa4b2ab6485e2bf49",
    ("hyperdet", "Q"): "5a82712c05f7892b941933f99491dc0670714a23d7a593d905682928e99fdc23",
    ("blackholes", "Fp:7"): "83e6333af90e3954fe8b100e54d689a836601c448e75d27aed60d33d938889b4",
    ("blackholes", "Q"): "6958cee73d2582f872f3f1923521521b7a869961ce2de697dd6f1d8dba7d4547",
}


@pytest.mark.parametrize("cid,field", sorted(SZ_VERIFY_DIGESTS))
def test_sz_verify_report_bytes_match_recorded_digest(capsys, cid, field):
    code, out, _ = run(capsys, "verify", "--corollary", cid, "--field", field,
                       "--policy", "schwartz-zippel", "--seed", "3", "--elements", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SZ_VERIFY_DIGESTS[cid, field]


# sha256 of `verify --policy schwartz-zippel --field Fp:10007 --seed 3
# --elements 8` stdout, recorded before the sampled policy packed R into
# 32-bit slots over this field (sp6 then multiplies R by the reduced kernel
# point, not by a precomputed R E)
SZ_WIDE_FIELD_DIGESTS = {
    "SL6": "459e431ceebb6a0f1bf1c17d0a74b92732d55b432d99fb2af37ce1c3c37e650a",
    "Sp6": "dd04b82668103d91962751cbd52faeee64d3eba4944382166b00fd4d6bdeb423",
    "skew.f": "6b3078b2ff33a3ca11b938ccd9664b72384efd270f0e4ad9054b91d96013fa30",
}


@pytest.mark.parametrize("cid", sorted(SZ_WIDE_FIELD_DIGESTS))
def test_sz_verify_report_bytes_over_a_wide_field_match_recorded_digest(capsys, cid):
    code, out, _ = run(capsys, "verify", "--corollary", cid, "--field", "Fp:10007",
                       "--policy", "schwartz-zippel", "--seed", "3", "--elements", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SZ_WIDE_FIELD_DIGESTS[cid]


BRUTEFORCE_DIGESTS = {
    "cubic-census-f5": "a09e83443dbce33dea5898723dfc7a0fcd9993cddea63386924ae43908c7e366",
    "cubic-oracles-f5": "942f59898c153bf6207f5310ab4861b6457468b19496e465658a829627f5a866",
    "rk1fix-symm2-f3": "e4f5a2a2b4577f1bfba7c930bb94dbc77efe2a96f86fe2104273581723d9febc",
}


@pytest.mark.parametrize("case", sorted(BRUTEFORCE_DIGESTS))
def test_bruteforce_report_bytes_match_recorded_digest(capsys, case):
    code, out, _ = run(capsys, "bruteforce", "--case", case)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BRUTEFORCE_DIGESTS[case]


def test_bruteforce_cases(capsys):
    code, out, err = run(capsys, "bruteforce", "--case", "rk1fix-symm2-f3")
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "bruteforce" and obj["ok"] is True
    assert obj["counts"]["line_fixers"] == 2
    assert "wall time" in err
    code, _, err = run(capsys, "bruteforce", "--case", "nope")
    assert code == 2 and "unknown case" in err


def test_polarize_quartic(capsys):
    pt = json.dumps([["1", "0", "0", "0", "0", "0", "0", "1"]] * 4)
    code, out, _ = run(capsys, "polarize", "--form", "hyperdet", "--field", "Q",
                       "--points", pt)
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_polarize_rejects_non_quartic(capsys):
    pt = json.dumps([["1", "0", "0", "0", "1", "0", "0", "0", "1"]] * 4)
    code, _, err = run(capsys, "polarize", "--form", "square-det:3", "--field", "Q",
                       "--points", pt)
    assert code == 2 and "quartic" in err


def test_polarize_needs_four_points(capsys):
    pt = json.dumps([["1", "0", "0", "0", "0", "0", "0", "1"]] * 3)
    code, _, err = run(capsys, "polarize", "--form", "hyperdet", "--field", "Q",
                       "--points", pt)
    assert code == 2 and "four" in err


def test_polarize_matches_evaluation_on_diagonal(capsys):
    # quadruple repetition of one point recovers the form value
    vec = ["1", "2", "0", "1", "3", "0", "1", "1"]
    code, out, _ = run(capsys, "polarize", "--form", "hyperdet", "--field", "Fp:7",
                       "--points", json.dumps([vec] * 4))
    assert code == 0
    code2, out2, _ = run(capsys, "eval", "--form", "hyperdet", "--field", "Fp:7",
                         "--vector", json.dumps(vec))
    assert json.loads(out)["value"] == json.loads(out2)["value"]


# sha256 of `minimal --oracle rrs` stdout, recorded while the exact policy
# still expanded f(w + t v) over polynomial rings.  The witnesses cover
# k = 2 and 3: by Euler's identity deg * f(v) = grad f(v) . v, a nonzero top
# coefficient f(v) forces a nonzero coefficient at deg - 1 (p > deg), so on
# the cubic line k = 4 is never the smallest failing coefficient
MINIMAL_RRS_DIGESTS = {
    ("cubic-disc", "Q", "1,3,3,1", ()):
        "87670d675ee849dac7cdc3cd4f95cc8b64b6c1461c7a145cc9e704ba8ee3c16d",
    ("symm-det:4", "Fp:7", "1,2,0,0,2,4,0,0,0,0,0,0,0,0,0,0", ()):
        "1203771b0ea6a46edf8b5460f0c2826d5b9af095caa53e5464882405d16ede3b",
    ("skew-pf:4", "Fp:7", "0,1,2,0,6,0,0,0,5,0,0,0,0,0,0,0", ()):
        "68d4a5b5387456a7d3a89c12dee9ff93884f36070ca54610bbf65ed8f3ff32dc",
    ("quadric:3", "Q", "1,1,1", ()):
        "eead7b60f7dbb8b2e40177154b2d31d41dd92997da6ed1a70eda6c3a2a81d684",
    ("symm-det:3", "Q", "1/2,0,0,0,3,0,0,0,0", ()):
        "df045f81b91e53fd2c28a1cdefb0084e87d209b55553e22837379f5010ffd9bb",
    ("symm-det:4", "Fp:7", "1,0,0,0,0,2,0,0,0,0,3,0,0,0,0,4", ()):
        "0d3395ec50185ec9336029907b58c0f4a1d2ecd0b21a689bea08d5f8eeed52c5",
    ("skew-pf:4", "Q", "0,1/2,1/3,0,-1/2,0,0,1,-1/3,0,0,2,0,-1,-2,0", ()):
        "72abe7ad907d4fda5e99c751ac0bd61aa2dfc184b96083a5a09158c788749a86",
    ("cubic-disc", "Fp:7", "0,1,-1,0", ()):
        "29f986435def9ce1b726e6bde5395fefe0d693a55cfdf5dc2340fa9023472257",
    ("cubic-disc", "Q", "1/2,1,2/3,0", ()):
        "ce50cb4e67879777234c1c475a448553af9f00203ba2e5d5fdd97aeb136c390d",
    ("cubic-disc", "Q", "1/2,1,2/3,0", ("--policy", "randomized", "--seed", "5")):
        "27756af9a0fdabb1de0b307adbd5a72e1bd6fb1badcaeda4e1925d3a8d448d16",
    ("cubic-disc", "Q", "1,3,3,1", ("--policy", "randomized", "--seed", "5", "--trials", "16")):
        "fb35964df45cfb2cfbe26b9fb43bfbf28e7d2e918f7466da46e078d055755a39",
    ("symm-det:3", "Q", "1/2,0,0,0,3,0,0,0,0", ("--policy", "randomized", "--seed", "5")):
        "cef9c30142e4556eaa0bd65b0e5389eeeba60f90b721c4e9d364cdb8019635d3",
}


@pytest.mark.parametrize("form,field,vec,extra", sorted(MINIMAL_RRS_DIGESTS))
def test_minimal_rrs_report_bytes_match_recorded_digest(capsys, form, field, vec, extra):
    code, out, _ = run(capsys, "minimal", "--form", form, "--field", field, "--oracle", "rrs",
                       "--vector", json.dumps(vec.split(",")), *extra)
    assert code == 0
    digest = MINIMAL_RRS_DIGESTS[form, field, vec, extra]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# reports recorded while the radical oracle and polarize4 still evaluated f
# on field-element vectors: per form and field a minimal point, a generic
# point and a degenerate one; the Q points are non-integral, the sp6 points
# lie in the contraction kernel
MINIMAL_RADICAL_DIGESTS = {
    ("cubic-disc", "Q", "-2/3,-2,-2,-2/3"):
        "40d00744c1965c00edc282ea2d54a5fa846fea4a408d09ee2fa815fe8cbb960a",
    ("cubic-disc", "Q", "-3,-9/2,9/2,3"):
        "9ea44d22453193b7c6c0171a96daaf1205520e194ee5d76c3693a5c4eed6b5ca",
    ("cubic-disc", "Q", "0,1/2,0,0"):
        "c03ce72bbf421428e58f9594b29a2671ed704823901b402eb04d408ee6ae4cb8",
    ("cubic-disc", "Fp:7", "0,0,0,3"):
        "4c75bf69be34c21717656ae5d228fc5d23b1a787054b0c0b0628f22c0384699d",
    ("cubic-disc", "Fp:7", "4,1,4,4"):
        "6d2e77061d3d62dac670d1cb6a99f5e66f3e96e299397134d71b99db4bd82cbe",
    ("cubic-disc", "Fp:7", "0,3,0,0"):
        "343450dfe4c83e53936c3d01135ed8283f50af4e81cd9d1fbc22391bccb6e329",
    ("hyperdet", "Q", "8/3,16/3,8/3,16/3,0,0,0,0"):
        "72cda8048cf5716090235524b398fc60d1f06b78b6d390ee25ed0eaeaaf2924d",
    ("hyperdet", "Q", "-3,9/2,-3,3/2,9/2,-3/2,-3/2,3/2"):
        "f8e38a3835125ec88a60a703e2826f771ffeea6b67286d67d7f3c9604ae5497d",
    ("hyperdet", "Q", "1/2,0,0,1/2,0,0,0,0"):
        "10e77649e9038a68d98c2217cbfa98275f82af7143f4caaa66eb468025e5ec0b",
    ("hyperdet", "Fp:7", "4,1,3,6,2,4,5,3"):
        "7b0bbde5ceb78331f2428635085e8536fd23ccf5667e5877559b92151246e816",
    ("hyperdet", "Fp:7", "6,3,0,1,0,1,1,3"):
        "88c04fde00d5ab65971888a5f166c3b8ca0e00e30c3d43680fdfffda0cd301c9",
    ("hyperdet", "Fp:7", "1,0,0,3,0,0,0,0"):
        "13d5bb283b56ba3462506c839164d527fc09c239a1489418b1fc779e0fbc4e4d",
    ("mat2n:4", "Q", "0,0,0,0,32/3,0,32/3,0"):
        "8048f1e1fc52214871b7753f824dc741379bd051b360f5bc52fa00946ec2684b",
    ("mat2n:4", "Q", "-9/2,-3,-3/2,-3,0,-9/2,0,0"):
        "9a2c52e923cfdc541fe6745d87710878f8a8ba163a20f71cd30f7b108b6ee526",
    ("mat2n:4", "Q", "1/3,0,0,1/3,2/3,0,0,2/3"):
        "09d33a19650beaf6f89b23b1cbd2637479269f42d3ff62d585a4a8f4f9d4afe9",
    ("mat2n:4", "Fp:7", "0,6,0,1,0,1,0,6"):
        "c3816bd98933b129f39b176e54e49cf9100fadba4947e344ac0031f7cb23debe",
    ("mat2n:4", "Fp:7", "3,2,0,4,2,6,0,6"):
        "0562b176bea10dfd8fcb918f871a2f3ce2ff719d9098604f49348bb4cc6c6dd9",
    ("mat2n:4", "Fp:7", "1,0,0,1,2,0,0,2"):
        "4cbd45a4c315989bf773b4ef477be3d18c0952b7ebe3bbee54bb96dc250e8581",
    ("wedge36", "Q", "-70/3,40/3,-116/3,8,0,0,70/3,0,-40/3,116/3,0,-70/3,0,40/3,0,-8,0,0,-70/3,40/3"):
        "4a37e6e788015afce8bea16e61fa19d1d2d37bc8f9e94f21a94a467eb069555d",
    ("wedge36", "Q", "-9/2,3,-3/2,-9/2,3,0,9/2,9/2,0,9/2,9/2,-9/2,3/2,-3,3/2,-9/2,9/2,9/2,-3/2,0"):
        "496bc5d0d3bfaf91980515f847a1c3b8e148c2fc464e17b274ec79b089133e88",
    ("wedge36", "Q", "1/2,0,0,0,0,0,0,1/2,0,0,0,0,0,0,0,0,0,0,0,0"):
        "ed24d4b650a9bb84a64ff6238cbf1b042e2da8c7e514bfff123497b50bdbe3c0",
    ("wedge36", "Fp:7", "2,3,4,1,4,4,6,5,0,3,6,4,1,1,2,0,3,5,4,1"):
        "677009d18780ca304dea2a250e4524f091026875b9e5ac1d62d016da16a573fb",
    ("wedge36", "Fp:7", "5,6,1,0,0,4,1,3,1,3,6,3,4,3,5,5,4,4,0,2"):
        "e05452add7403a25d0fed5d57242c5f9564c7127dcf2fe74faf7f2ea0f948a6b",
    ("wedge36", "Fp:7", "1,0,0,0,0,0,0,3,0,0,0,0,0,0,0,0,0,0,0,0"):
        "4f6f395dfa96d84df69c1637f133a6c1a0744f65ecbf64ddf3652f7c9a80442c",
    ("sp6", "Q", "0,0,0,0,2/3,0,-2/3,-2/3,0,-2/3,4/3,0,-4/3,-4/3,0,-4/3,0,0,0,0"):
        "0682baf02837abec7917e9459732d38500521bd6dc1d0d989a6c9c1a6bb685cf",
    ("sp6", "Q", "3/2,3/2,0,3/2,3,3,3/2,-3,0,-3,-3/2,0,3,-3/2,-3,3/2,0,-3/2,-3/2,-3/2"):
        "94315d9d8210ac919ffe0e8473358f31dba1103c406f8d1327b8a155a2898c5c",
    ("sp6", "Q", "0,0,1/2,0,0,0,0,0,0,0,0,0,0,0,0,0,-1/2,0,0,0"):
        "642699dc087dc0cef7edc7285ab284e510eb89842faad9e4f48d1a7742022ae6",
    ("sp6", "Fp:7", "4,4,2,3,5,0,4,1,2,2,2,4,2,3,4,5,5,4,3,3"):
        "b685d10d4081b473b2eed1e3e2c4b32081ce591dd76cc9cbc92127978f81e41a",
    ("sp6", "Fp:7", "5,5,6,2,0,1,5,5,1,0,6,2,0,5,0,1,1,5,2,2"):
        "d14e925d5f28da6ae8a4587d7c1d89725c71eb66729405e5a3da94dad35d20c7",
    ("sp6", "Fp:7", "0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,5,0,0,0"):
        "82064dae73864d8dca8eb37f5f36c788580eb587db63d633ddeca80152e95acc",
}

@pytest.mark.parametrize("form,field,vec", sorted(MINIMAL_RADICAL_DIGESTS))
def test_minimal_radical_report_bytes_match_recorded_digest(capsys, form, field, vec):
    code, out, _ = run(capsys, "minimal", "--form", form, "--field", field, "--oracle", "radical",
                       "--vector", json.dumps(vec.split(",")))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MINIMAL_RADICAL_DIGESTS[form, field, vec]


# four points per report, separated by ";", recorded as above
POLARIZE_DIGESTS = {
    ("cubic-disc", "Q", "-2/3,-2,-2,-2/3;-3,-9/2,9/2,3;1/5,1/5,1/5,0;27,81,81,27"):
        "f38223172192a3e834f666d851379ae0511f56a361bffc3b7354e7b23f4e7348",
    ("cubic-disc", "Fp:7", "0,0,0,3;4,1,4,4;6,3,4,0;6,0,0,0"):
        "5ebe0203412cc9422d93d6ef16f2389ae82a9731fd3fa266222b8d95d2a1205c",
    ("hyperdet", "Q", "8/3,16/3,8/3,16/3,0,0,0,0;-3,9/2,-3,3/2,9/2,-3/2,-3/2,3/2;-1/5,0,-2/5,2/5,2/5,2/5,1/5,-1/5;4,8,-6,-12,12,24,-18,-36"):
        "5d098713cc194eb693fac4c30702e9695c54453acac712f4f5d00e66d8d91bd9",
    ("hyperdet", "Fp:7", "4,1,3,6,2,4,5,3;6,3,0,1,0,1,1,3;4,1,5,3,5,3,4,2;1,2,4,1,4,1,2,4"):
        "1db367f4d1ab64125884321a90fd13576141be98b945d3447dd0147f597d240c",
    ("mat2n:4", "Q", "0,0,0,0,32/3,0,32/3,0;-9/2,-3,-3/2,-3,0,-9/2,0,0;-2/5,-1/5,3/5,-1/5,-3/5,-3/5,-2/5,2/5;2,4,-4,8,6,12,-12,24"):
        "1653b9576e8368880ff56a84633654851c4a1c37a150929f2379095c939bfa62",
    ("mat2n:4", "Fp:7", "0,6,0,1,0,1,0,6;3,2,0,4,2,6,0,6;4,5,2,3,0,5,0,4;3,3,2,5,0,0,0,0"):
        "ad781c4ec19678385033b484d9877ee26edb7470dd5ec08b2806d22350aefdda",
    ("wedge36", "Q", "-70/3,40/3,-116/3,8,0,0,70/3,0,-40/3,116/3,0,-70/3,0,40/3,0,-8,0,0,-70/3,40/3;-9/2,3,-3/2,-9/2,3,0,9/2,9/2,0,9/2,9/2,-9/2,3/2,-3,3/2,-9/2,9/2,9/2,-3/2,0;-1/5,2/5,-1/5,0,-1/5,-3/5,0,0,1/5,1/5,3/5,-2/5,-2/5,1/5,1/5,-2/5,0,1/5,-1/5,0;68,84,-98,18,28,24,6,70,0,-15,-96,112,-108,0,-108,126,80,-36,-48,-90"):
        "5805280acac1852c72dd60d0d93cbf3e412194bd4b7d0295767e1a203eaa24a8",
    ("wedge36", "Fp:7", "2,3,4,1,4,4,6,5,0,3,6,4,1,1,2,0,3,5,4,1;5,6,1,0,0,4,1,3,1,3,6,3,4,3,5,5,4,4,0,2;6,0,1,3,3,3,3,2,5,4,6,3,5,6,1,2,1,3,1,5;1,3,1,3,4,6,1,0,5,4,5,3,2,4,5,0,3,3,2,5"):
        "61b573ac8a7dbe73433263ca77f0bc887465281cc98b3e7f318ed7e03a3f3120",
    ("sp6", "Q", "0,0,0,0,2/3,0,-2/3,-2/3,0,-2/3,4/3,0,-4/3,-4/3,0,-4/3,0,0,0,0;3/2,3/2,0,3/2,3,3,3/2,-3,0,-3,-3/2,0,3,-3/2,-3,3/2,0,-3/2,-3/2,-3/2;1/5,2/5,0,1/5,1/5,-1/5,1/5,-1/5,-1/5,-1/5,-1/5,2/5,-2/5,2/5,2/5,1/5,0,-1/5,-1/5,-2/5;1/2,1/2,0,0,0,0,-1/2,0,-1/2,0,0,-1/2,0,-1/2,0,0,0,0,-1/2,-1/2"):
        "a4628c04bd038132d1a53cbe2146d3d5f5dca15290a18aa6a8afc54d6f65810c",
    ("sp6", "Fp:7", "4,4,2,3,5,0,4,1,2,2,2,4,2,3,4,5,5,4,3,3;5,5,6,2,0,1,5,5,1,0,6,2,0,5,0,1,1,5,2,2;1,0,0,1,0,6,0,1,2,0,0,5,5,5,1,0,0,6,6,0;1,1,6,5,0,2,4,2,4,0,3,4,4,0,3,4,1,2,6,6"):
        "0695cf5953f00f08513e5ad25f24fbdfac05b273c69d8684afc5ff426e87d10c",
}


@pytest.mark.parametrize("form,field,points", sorted(POLARIZE_DIGESTS))
def test_polarize_report_bytes_match_recorded_digest(capsys, form, field, points):
    pts = [p.split(",") for p in points.split(";")]
    code, out, _ = run(capsys, "polarize", "--form", form, "--field", field, "--points", json.dumps(pts))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POLARIZE_DIGESTS[form, field, points]


def test_polarize_sp6_rejects_a_point_outside_the_kernel(capsys):
    pts = [p.split(",") for p in next(k for f, fd, k in POLARIZE_DIGESTS if (f, fd) == ("sp6", "Q")).split(";")]
    pts[2] = ["1"] + ["0"] * 19  # e0 ^ e1 ^ e2 contracts to e2
    code, out, err = run(capsys, "polarize", "--form", "sp6", "--field", "Q", "--points", json.dumps(pts))
    assert (code, out) == (2, "")
    assert err == "error: vector has nonzero contraction; outside the restricted space\n"


@pytest.mark.parametrize("cid", ["SL6", "Sp6", "skew.f"])
@pytest.mark.parametrize("field", ["Fp:7", "Q"])
def test_verify_symbolic_covers_every_cell(capsys, cid, field):
    code, out, _ = run(capsys, "verify", "--corollary", cid, "--field", field, "--seed", "3",
                       "--elements", "2", "--policy", "symbolic")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert cells and all(cell["policy"] == "symbolic" and cell["failures"] == 0 for cell in cells)


def test_lattice_bound_is_refused_before_any_point_is_walked():
    # C(29, 5) = 118,755 points on 25 coordinates, above the bound of 10^5 and
    # below 10^6: the bound refuses it before fn runs once.  Kept ahead of the
    # CLI check below, which under a looser bound walks 201,376 points first.
    def walked(x):
        raise AssertionError("simplex_lattice walked a lattice above its bound")

    units = [[int(i == j) for j in range(25)] for i in range(25)]
    with pytest.raises(FormError, match="118755 points, above the bound of 100000"):
        simplex_lattice(walked, units, 5, None, FormError)


def test_minimal_rrs_lattice_point_bound(capsys):
    # skew-pf:8 (dimension 28) walks 406 points at k = 2; symm-det:7 would walk 201,376
    e01 = ["0"] * 64
    e01[1], e01[8] = "1", "-1"
    code, out, _ = run(capsys, "minimal", "--form", "skew-pf:8", "--field", "Fp:7", "--oracle", "rrs",
                       "--vector", json.dumps(e01))
    assert code == 0
    assert json.loads(out)["verdict"]["is_minimal"] is True
    e00 = ["1"] + ["0"] * 48
    code, _, err = run(capsys, "minimal", "--form", "symm-det:7", "--field", "Q", "--oracle", "rrs",
                       "--vector", json.dumps(e00))
    assert code == 2 and "201376 points, above the bound of 100000" in err


def test_cli_paths_do_not_load_the_polynomial_ring():
    # these modules are the production lines; the package imports nothing lazily
    code = "import sys, linpres.cli, linpres.bruteforce; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'linpres'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linpres.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["linpres"] + ["linpres." + m for m in (
        "bruteforce", "cli", "fields", "forms", "linalg", "minimality", "multilinear", "preservers", "sampling")]


# failure reports: paths that pass only when the library is at fault, forced
# here by swapping in elements, verdicts or characters that disagree

@pytest.mark.parametrize("policy", ["auto", "schwartz-zippel"])
@pytest.mark.parametrize("field_desc", ["Fp:7", "Q"])
def test_verify_reports_violators_as_failures(capsys, monkeypatch, field_desc, policy):
    from linpres import preservers
    from linpres.fields import parse_field

    # every drawn element is a violator: each fails, and each cell captures
    # its first one with the point that rejected it and its character
    monkeypatch.setattr(preservers, "sample_group_element", preservers.sample_violator)
    code, out, _ = run(capsys, "verify", "--corollary", "symm.f", "--field", field_desc, "--seed", "5",
                       "--elements", "6", "--policy", policy)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    field = parse_field(field_desc)
    rng = random.Random(5)
    for cell, form in zip(report["cells"], preservers.corollary_forms("symm.f"), strict=True):
        assert (cell["form"], cell["elements"], cell["failures"]) == (form.descriptor(), 2, 2)
        first = preservers.sample_violator("symm.f", form, field, rng)
        verdict = preservers.preserves_form(first, form, policy=policy, rng=rng)
        second = preservers.sample_violator("symm.f", form, field, rng)
        preservers.preserves_form(second, form, policy=policy, rng=rng)
        # every rejection names the point that rejected the element
        assert not verdict.ok
        assert verdict.counterexample is not None
        element = first.to_json_obj()
        assert element["family"] == "congruence" and set(element["params"]) == {"r", "P", "star"}
        assert cell["counterexample"] == {
            "element": element,
            "point": verdict.counterexample,
            "scaling_factor": field.format(first.scaling_factor(form)),
        }
        assert cell["counterexample"]["scaling_factor"] != "1"


@pytest.mark.parametrize("field_desc", ["Fp:7", "Q"])
def test_verify_counts_an_element_off_the_predicted_character(capsys, monkeypatch, field_desc):
    from linpres import preservers
    from linpres.fields import parse_field

    # the elements preserve every form, but their predicted character reads 2:
    # the two disagree, so each element fails, with no rejecting point
    code, clean, _ = run(capsys, "verify", "--corollary", "cubics", "--field", field_desc, "--seed", "4",
                         "--elements", "3")
    assert code == 0 and json.loads(clean)["cells"][0]["failures"] == 0
    monkeypatch.setattr(preservers.PreserverElement, "scaling_factor", lambda self, form: self.field.of(2))
    code, out, _ = run(capsys, "verify", "--corollary", "cubics", "--field", field_desc, "--seed", "4",
                       "--elements", "3")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    (cell,) = report["cells"]
    assert (cell["elements"], cell["failures"]) == (3, 3)
    form = parse_form("cubic-disc")
    first = preservers.sample_group_element("cubics", form, parse_field(field_desc), random.Random(4))
    assert cell["counterexample"] == {"element": first.to_json_obj(), "scaling_factor": "2"}
    assert first.to_json_obj()["family"] == "cubic-substitution"
    # only the cell's failure count, its counterexample and ok differ
    expected = json.loads(clean)
    expected["cells"][0].update(failures=3, counterexample=cell["counterexample"])
    expected["ok"] = False
    assert report == expected


def test_bruteforce_oracle_census_counts_disagreements(capsys, monkeypatch):
    import dataclasses

    from linpres import bruteforce

    # the radical oracle's verdict flips at the 125 cubics with a0 = 1; 5 of
    # the 24 minimal cubics (s x + t y)^3 have a0 = s^3 = 1, at s = 1
    real = bruteforce.minimal_by_radical

    def flipped(form, v):
        verdict = real(form, v)
        return dataclasses.replace(verdict, is_minimal=not verdict.is_minimal) if v.coords[0].value == 1 else verdict

    monkeypatch.setattr(bruteforce, "minimal_by_radical", flipped)
    code, out, _ = run(capsys, "bruteforce", "--case", "cubic-oracles-f5")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["counts"] == {"disagreements": 125, "minimal": 19, "points": 625}


def test_bruteforce_discriminant_census_counts_mismatches(capsys, monkeypatch):
    import dataclasses

    from linpres import bruteforce

    # every pair with c = 1 is reported as not preserving: the 240 such pairs
    # with trivial character become mismatches.  A map c (q o g) is met by
    # the 4 pairs (c l^-3, l g), one per c since cubing permutes F_5^*, so
    # the pairs left still reach all 240 maps
    real = bruteforce.preserves_form

    def flipped(el, form, policy):
        verdict = real(el, form, policy)
        return dataclasses.replace(verdict, ok=False) if el.c.value == 1 else verdict

    monkeypatch.setattr(bruteforce, "preserves_form", flipped)
    code, out, _ = run(capsys, "bruteforce", "--case", "cubic-census-f5")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["counts"] == {
        "character_one_pairs": 960,
        "distinct_preserving_maps": 240,
        "mismatches": 240,
        "pairs_checked": 1920,
        "preserving_pairs": 720,
    }
