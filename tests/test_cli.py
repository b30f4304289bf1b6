import hashlib
import importlib
import inspect
import json
import pkgutil
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

import galdesk
from galdesk import cli
from galdesk.errors import InputError, VerificationFailure
from galdesk import ffield as ff
from galdesk import local_tame as lt
from galdesk import numerology as num
from galdesk import root_datum as rdm
from galdesk import scenarios as sc
from galdesk import selmer as sl
from galdesk import padics as pa
from galdesk import padic_weights as pw
from series_payload import series_payload
from test_documents import DOCUMENTS
from test_reach import EXTRA_DOCUMENTS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_scenario(tmp_path, kind, payload, seed=0, version=1, name="scenario.json"):
    doc = {"version": version, "kind": kind, "seed": seed, "payload": payload}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_list_contains_required_builtins(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "gl2-f5-ramakrishna" in out
    assert "sec9-example-a2" in out


def test_unknown_builtin_exit_2(capsys):
    code = cli.main(["run", "no-such-scenario"])
    assert code == 2


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2
    path.write_text(json.dumps({"version": 99, "kind": "rootdatum", "seed": 0,
                                "payload": {}}))
    assert cli.main(["run", str(path)]) == 2
    path.write_text(json.dumps({"version": 1, "kind": "rootdatum", "payload": {}}))
    assert cli.main(["run", str(path)]) == 2  # missing seed
    path.write_text(json.dumps({"version": 1, "kind": "nope", "seed": 0, "payload": {}}))
    assert cli.main(["run", str(path)]) == 2


def test_rootdatum_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, "rootdatum", {"type": [["A", 2]]})
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["heights"] == [1, 1, 2]
    assert report["minus_w0"] == [1, 0]


def test_rootdatum_bad_family_exit_2(tmp_path, capsys):
    path = write_scenario(tmp_path, "rootdatum", {"type": [["Q", 2]]})
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("rtype,expected", [
    ([["B", 1]], "there is no root system of type B1"),
    ([["C", 1]], "there is no root system of type C1"),
    ([["D", 3]], "there is no root system of type D3"),
    ([["E", 5]], "there is no root system of type E5"),
    ([["E", 9]], "there is no root system of type E9"),
    ([["F", 3]], "there is no root system of type F3"),
    ([["G", 3]], "there is no root system of type G3"),
    ([["F", 5]], "there is no root system of type F5"),
    ([["G", 1]], "there is no root system of type G1"),
    ([["H", 2]], "unrecognized family 'H'"),
    ([["A", 0]], "there is no root system of type A0"),
    ([], "semisimple part is empty"),
    ([["A", 9], ["B", 8]], "ranks must sum to at most 16"),
])
def test_rootdatum_refusals_exit_2(tmp_path, capsys, rtype, expected):
    path = write_scenario(tmp_path, "rootdatum", {"type": rtype})
    assert_one_line_input_error(capsys, path, expected)


@pytest.mark.parametrize("kind,payload", [
    ("local", {"p": 5, "torus_values": [], "q": 3}),
    ("numerology", {"signature": {"kind": "rational"}}),
    ("example", {"r": 3, "p": 19}),
])
def test_empty_type_exit_2_in_every_kind(tmp_path, capsys, kind, payload):
    # A local payload used to report a zero-dimensional module.
    path = write_scenario(tmp_path, kind, {**payload, "root_datum": {"type": []}})
    assert_one_line_input_error(capsys, path, "semisimple part is empty")


def test_rootdatum_gl3_scenario(tmp_path, capsys):
    # Used to exit 2: the descent for w0 started from a vector that is not
    # rho in the GL_n torus model, and stopped short for n >= 3.
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, "rootdatum", {"gl": 3}))
    assert code == 0
    report = json.loads(out)
    assert (report["minus_w0"], report["heights"]) == ([1, 0], [1, 1, 2])


@pytest.mark.parametrize("kind,payload,field", [
    ("rootdatum", {"type": [["A", 2]]}, "central_rank"),
    ("numerology", {"root_datum": {"type": [["B", 2]]},
                    "signature": {"kind": "cm", "degree": 4}}, "h0_at_p"),
])
def test_retired_fields_are_ignored(kind, payload, field):
    # Neither entered a report: central_rank only padded the torus model,
    # and h0 at p cancelled from its own term.
    plain = sc.run_scenario_payload(kind, payload, 0, None)
    for value in (0, 3, "z"):
        assert sc.run_scenario_payload(kind, {**payload, field: value}, 0, None) == plain


def test_local_scenario(tmp_path, capsys):
    payload = {"root_datum": {"gl": 2}, "p": 5, "torus_values": [2], "q": 3, "twist": 0}
    path = write_scenario(tmp_path, "local", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["cohomology"] == [1, 2, 1]
    assert report["ramakrishna"] is True
    assert report["certified_root"] == [1]


def test_local_scenario_large_q(tmp_path, capsys):
    # q = 1000003 = 3 mod 5: the same local package as q = 3, with the
    # duality pairing built in O(p) matrix products.
    payload = {"root_datum": {"gl": 2}, "p": 5, "torus_values": [2], "q": 1000003}
    path = write_scenario(tmp_path, "local", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["cohomology"] == [1, 2, 1]
    assert report["ramakrishna"] is True


def test_local_scenario_twisted_and_irregular(tmp_path, capsys):
    # Twist by one: the GL2/F5 module's twisted fixed space is the g_{-alpha}
    # line, matching h0 of the (1)-twist being one-dimensional.
    payload = {"root_datum": {"gl": 2}, "p": 5, "torus_values": [2], "q": 3, "twist": 1}
    path = write_scenario(tmp_path, "local", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["cohomology"][0] == 1
    # A non-regular torus element is reported, not crashed on.
    payload = {"root_datum": {"gl": 2}, "p": 5, "torus_values": [1], "q": 3}
    path = write_scenario(tmp_path, "local", payload, name="irregular.json")
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["ramakrishna"] is False
    assert "ramakrishna_note" in report


def test_numerology_scenario_imaginary_quadratic(tmp_path, capsys):
    payload = {
        "root_datum": {"gl": 2},
        "signature": {"kind": "cm", "degree": 2},
        "mode": "nearly-ordinary",
    }
    path = write_scenario(tmp_path, "numerology", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["cm_parameter"] == 1
    assert report["difference"] == 1


def test_selmer_scenario_random(tmp_path, capsys):
    payload = {"p": 5, "local_dims": {"a": 3, "b": 2}, "global_dim": 3}
    path = write_scenario(tmp_path, "selmer", payload, seed=11)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["selmer_dim"] == 3  # no conditions: the whole global space
    assert report["status"] == "pass"


def test_selmer_scenario_explicit_matrices(tmp_path, capsys):
    # H = ambient sum with identity restrictions, H' = 0.
    payload = {
        "p": 5,
        "local_dims": {"a": 2, "b": 1},
        "res": {"a": [[1, 0, 0], [0, 1, 0]], "b": [[0, 0, 1]]},
        "res_dual": {"a": [[], []], "b": [[]]},
        "pairing": {"a": [[1, 0], [0, 1]], "b": [[1]]},
        "conditions": {"a": [[1], [0]], "b": [[1]]},
    }
    path = write_scenario(tmp_path, "selmer", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["selmer_dim"] == 2
    assert report["condition_dims"] == {"a": 1, "b": 1}


@pytest.mark.parametrize("p", [1, 6, 9, None])
def test_selmer_scenario_bad_p_exit_2(tmp_path, capsys, p):
    # p = 1 used to hang in random_subspace, p = 6 to compute over Z/6, and a
    # missing p to end in a KeyError traceback.
    payload = {"local_dims": {"a": 2, "b": 1}, "global_dim": 1}
    if p is not None:
        payload["p"] = p
    path = write_scenario(tmp_path, "selmer", payload)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err == "input error: p must be an odd prime\n"


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("p", [2**61 - 1, 4294967311])
def test_selmer_scenario_p_too_large_exit_2(tmp_path, capsys, p, explicit):
    # 2^61 - 1 used to hang in trial division; the prime 4294967311 passed the
    # prime check and then overflowed int64 products.  The global dimension 3
    # is the largest, declared or read off the width of `res`.
    if explicit:
        payload = {"p": p, "local_dims": {"a": 2, "b": 1},
                   "res": {"a": [[1, 0, 0], [0, 1, 0]], "b": [[0, 0, 1]]},
                   "res_dual": {"a": [[], []], "b": [[]]},
                   "pairing": {"a": [[1, 0], [0, 1]], "b": [[1]]}}
    else:
        payload = {"p": p, "local_dims": {"a": 2, "b": 1}, "global_dim": 3}
    path = write_scenario(tmp_path, "selmer", payload)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err == "input error: p is too large: n*p^2 must be below 2^63 at dimension n = 3\n"


RES = {"a": [[1], [0], [0]], "b": [[0]]}
RES_DUAL = {"a": [[0], [1], [0]], "b": [[1]]}


@pytest.mark.parametrize("res,res_dual,expected", [
    # Two rows where local_dims declares three: used to end in a numpy
    # matmul traceback.
    ({**RES, "a": [[1], [0]]}, RES_DUAL, "res at a is not 3 x 1"),
    # Widths 1 and 2: used to be refused as "reciprocity fails".
    ({**RES, "b": [[0, 1]]}, RES_DUAL, "res at b is not 1 x 1"),
    # Widths 1 and 2 on the dual side: used to end in a numpy vstack traceback.
    (RES, {**RES_DUAL, "b": [[1, 0]]}, "res_dual at b is not 1 x 1"),
])
def test_selmer_scenario_res_shape_exit_2(tmp_path, capsys, res, res_dual, expected):
    payload = {"p": 5, "local_dims": {"a": 3, "b": 1}, "res": res, "res_dual": res_dual,
               "pairing": {"a": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [[1]]}}
    path = write_scenario(tmp_path, "selmer", payload)
    assert_one_line_input_error(capsys, path, expected)


# H maps onto the first coordinate of V_a, H' onto the second.
EXPLICIT = {"p": 5, "local_dims": {"a": 2}, "res": {"a": [[1], [0]]},
            "res_dual": {"a": [[0], [1]]}, "pairing": {"a": [[1, 0], [0, 1]]}}


def test_selmer_scenario_degenerate_pairing_exit_2(tmp_path, capsys):
    # Reciprocal, but the pairing kills the second coordinate.
    payload = {**EXPLICIT, "pairing": {"a": [[1, 0], [0, 0]]}}
    path = write_scenario(tmp_path, "selmer", payload)
    assert_one_line_input_error(capsys, path, "pairing at a is degenerate")


def test_selmer_scenario_not_exact_exit_1(tmp_path, capsys):
    # H' restricts to zero, so the image of H is not the whole annihilator
    # of the image of H'.  Used to be refused with exit 2.
    payload = {**EXPLICIT, "res_dual": {"a": [[0], [0]]}}
    path = write_scenario(tmp_path, "selmer", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 1
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert checks == {"exactness": False}


def test_selmer_scenario_unknown_condition_place_exit_2(tmp_path, capsys):
    # Used to exit 0 with the full local space at every place.
    payload = {**EXPLICIT, "conditions": {"x": [[1], [0]]}}
    path = write_scenario(tmp_path, "selmer", payload)
    assert_one_line_input_error(capsys, path,
                                "conditions name 'x', which is not a place of local_dims")


def test_weights_certificate_reports_zeta_mod_p(tmp_path, capsys):
    # The ratio teich(2) (1 + x) meets only the root of unity teich(2), whose
    # residue mod 5^8 is reported mod 5.
    teich = pa.teichmuller(2, 5, 8)
    payload = _weights_payload(5, pw.TruncatedSeries(5, 1, 8, 6, {(0,): teich, (1,): teich}),
                               pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1}))
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, "weights", payload))
    assert code == 0 and json.loads(out)["certificate"]["zeta"] == 2


def test_weights_scenario_certificate(tmp_path, capsys):
    f_w = pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 1})
    f_wbar = pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 2})
    payload = {
        "p": 5, "d": 1, "f": 1, "minus_w0": [0],
        "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                     "f_w": series_payload(f_w), "f_wbar": series_payload(f_wbar)}],
    }
    path = write_scenario(tmp_path, "weights", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "sparsity-certificate"
    # (1 + x)/(1 + 2x) - 1 = -x + ..., so the witness has degree 1 along x.
    assert report["checks"] == []
    assert report["certificate"] == {"place": "w0", "root_index": 0, "gen_index": 0,
                                     "zeta": 1, "var": 0, "degree": 1, "other_zeta": "empty"}


def certificate_report(tmp_path, capsys, p):
    """(path, report) of a one-entry weights payload with f_w = 1 + x, f_wbar = 1."""
    f_w = pw.TruncatedSeries(p, 1, 2, 1, {(0,): 1, (1,): 1})
    f_wbar = pw.TruncatedSeries(p, 1, 2, 1, {(0,): 1})
    payload = {"p": p, "d": 1, "f": 1, "minus_w0": [0],
               "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                            "f_w": series_payload(f_w), "f_wbar": series_payload(f_wbar)}]}
    path = write_scenario(tmp_path, "weights", payload, name=f"weights{p}.json")
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    return path, out


def test_weights_certificate_size_does_not_depend_on_p(tmp_path, capsys):
    """The certificate names its witness once; the p - 2 empty roots of unity
    are not spelled out, so p = 2^31 - 1 runs and reports as p = 5 does."""
    small_path, small = certificate_report(tmp_path, capsys, 5)
    big_path, big = certificate_report(tmp_path, capsys, 2**31 - 1)
    assert len(big) - len(big_path) == len(small) - len(small_path)
    big, small = json.loads(big), json.loads(small)
    assert big.pop("scenario") == big_path and small.pop("scenario") == small_path
    assert big == small and big["verdict"] == "sparsity-certificate"


def test_weights_scenario_parallel(tmp_path, capsys):
    base = pw.TruncatedSeries(5, 2, 8, 6, {(0, 0): 2, (1, 0): 3, (0, 1): 1})
    scaled = base.scale(pa.teichmuller(2, 5, 8))
    payload = {
        "p": 5, "d": 1, "f": 1, "minus_w0": [0],
        "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                     "f_w": series_payload(scaled), "f_wbar": series_payload(base)}],
    }
    path = write_scenario(tmp_path, "weights", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    # passage_dichotomy checks every pair itself, so the report carries no check.
    assert report["verdict"] == "parallel-weights" and report["checks"] == []
    # x = a1 / a0 mod 5 from the linear terms: 3 / 2 = 4 along x_0, 1 / 2 = 3 along x_1.
    assert report["pairs"] == [{"place": "w0", "var": 0, "x_w": [4], "x_wbar": [4]},
                               {"place": "w0", "var": 1, "x_w": [3], "x_wbar": [3]}]


def _weights_payload(p, f_w, f_wbar):
    return {"p": p, "d": 1, "f": 1, "minus_w0": [0],
            "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                         "f_w": series_payload(f_w), "f_wbar": series_payload(f_wbar)}]}


def test_weights_scenario_undetermined_exit_0(tmp_path, capsys):
    # f_w / f_wbar = 1 + 5x has no unit coefficient off the constant term at
    # precision 8; it used to exit 2 as an input error.
    payload = _weights_payload(5, pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 5}),
                               pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1}))
    path = write_scenario(tmp_path, "weights", payload)
    code = cli.main(["run", path])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "undetermined" and report["status"] == "pass"
    assert report["undetermined"] == {"place": "w0", "root_index": 0, "gen_index": 0, "zeta": 1}


def test_weights_mixed_precision_ratio_is_undetermined(tmp_path, capsys):
    # f_w = 1 + 0 x + 25 x^2 with the x term known mod 5 alone.  25 x^2 is
    # known to precision 10, so f_w / 1 is not constant, and no axis term is
    # a unit; the quotient f_w * (1/1) once read 25 x^2 at the precision 1 of
    # the pair x * x and reported parallel-weights.
    f_w = pw.TruncatedSeries(5, 1, 10, 2, {(0,): 1, (1,): pa.PadicInt(5, 0, 1), (2,): 25})
    payload = _weights_payload(5, f_w, pw.TruncatedSeries(5, 1, 10, 2, {(0,): 1}))
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, "weights", payload))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "undetermined"
    assert report["undetermined"] == {"place": "w0", "root_index": 0, "gen_index": 0, "zeta": 1}


@pytest.mark.parametrize("first", ["w0", "w1"])
def test_weights_verdict_does_not_depend_on_entry_order(tmp_path, capsys, first):
    # w0's ratio is 1 at precision 2.  w1's is 1 + 5^3 at precision 16, which
    # is not a root of unity there, though it is one at w0's precision 2.
    def entry(place, f_w, f_wbar, prec):
        return {"place": place, "root_index": 0, "gen_index": 0,
                "f_w": series_payload(pw.TruncatedSeries(5, 1, prec, 2, {(0,): f_w})),
                "f_wbar": series_payload(pw.TruncatedSeries(5, 1, prec, 2, {(0,): f_wbar}))}

    entries = [entry("w0", 1, 1, 2), entry("w1", 1 + 5**3, 1, 16)]
    if first == "w1":
        entries.reverse()
    path = write_scenario(tmp_path, "weights",
                          {"p": 5, "d": 1, "f": 1, "minus_w0": [0], "entries": entries})
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "undetermined"
    assert report["undetermined"] == {"place": "w1", "root_index": 0, "gen_index": 0, "zeta": 1}


def test_weights_scenario_over_budget_exit_2(tmp_path, capsys):
    one = {"p": 5, "nvars": 8, "prec": 8, "degree_cap": 40, "coeffs": [[[0] * 8, "1", 8]]}
    payload = {"p": 5, "d": 1, "f": 1, "minus_w0": [0],
               "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                            "f_w": one, "f_wbar": one}]}
    path = write_scenario(tmp_path, "weights", payload)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "budget" in err and len(err.strip().splitlines()) == 1


def test_weights_scenario_mixed_primes_exit_2(tmp_path, capsys):
    five = pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 1})
    seven = pw.TruncatedSeries(7, 1, 8, 6, {(0,): 1, (1,): 2})
    for p, f_w, f_wbar in [(5, five, seven), (5, seven, seven)]:
        path = write_scenario(tmp_path, "weights", _weights_payload(p, f_w, f_wbar))
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "Z_5" in err and "Traceback" not in err


def test_weights_scenario_no_entries_exit_2(tmp_path, capsys):
    payload = {"p": 5, "d": 1, "f": 1, "minus_w0": [0], "entries": []}
    path = write_scenario(tmp_path, "weights", payload)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "at least one entry" in err and len(err.strip().splitlines()) == 1


def test_weights_scenario_zero_precision_coefficient_exit_2(tmp_path, capsys):
    f_w = pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 1})
    payload = _weights_payload(5, f_w, f_w)
    payload["entries"][0]["f_w"]["coeffs"] = [[[0], "1", 0]]
    path = write_scenario(tmp_path, "weights", payload)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "precision" in err and len(err.strip().splitlines()) == 1


def assert_one_line_input_error(capsys, path, expected):
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err == f"input error: {expected}\n"


def test_local_scenario_p_too_large_exit_2(tmp_path, capsys):
    # Used to spin in trial division; the bound is checked first, at twice
    # the adjoint dimension 3 of GL2 (the pairing matrix is 2n x 2n).
    payload = {"root_datum": {"gl": 2}, "p": 2**61 - 1, "torus_values": [2], "q": 3}
    path = write_scenario(tmp_path, "local", payload)
    assert_one_line_input_error(
        capsys, path, "p is too large: n*p^2 must be below 2^63 at dimension n = 6")


LOCAL = {"root_datum": {"gl": 2}, "p": 5, "torus_values": [2], "q": 3}


@pytest.mark.parametrize("field,value,expected", [
    # Each used to end in a ValueError or TypeError traceback from int().
    ("p", "x", "p must be an integer, got 'x'"),
    ("q", [3], "q must be an integer, got [3]"),
    ("twist", "one", "twist must be an integer, got 'one'"),
    ("torus_values", ["x"], "torus_values entry must be an integer, got 'x'"),
    ("torus_values", 2, "torus_values must be a list of integers, got 2"),
])
def test_local_scenario_non_integer_field_exit_2(tmp_path, capsys, field, value, expected):
    path = write_scenario(tmp_path, "local", {**LOCAL, field: value})
    assert_one_line_input_error(capsys, path, expected)


@pytest.mark.parametrize("explicit", [False, True])
def test_selmer_scenario_no_places_exit_2(tmp_path, capsys, explicit):
    # Used to end in a StopIteration traceback from SelmerSystem.dim_h.
    payload = {"p": 5, "local_dims": {}}
    payload.update({"res": {}, "res_dual": {}, "pairing": {}} if explicit
                   else {"global_dim": 0})
    path = write_scenario(tmp_path, "selmer", payload)
    assert_one_line_input_error(capsys, path, "a Selmer system needs at least one place")


@pytest.mark.parametrize("key", ["res", "res_dual", "pairing"])
def test_selmer_scenario_ragged_rows_exit_2(tmp_path, capsys, key):
    # Used to end in a numpy ValueError traceback ("inhomogeneous shape").
    payload = {"p": 5, "local_dims": {"a": 2}, "res": {"a": [[1, 0], [0, 1]]},
               "res_dual": {"a": [[0, 0], [0, 0]]}, "pairing": {"a": [[1, 0], [0, 1]]}}
    payload[key] = {"a": [[1, 0], [1]]}
    path = write_scenario(tmp_path, "selmer", payload)
    assert_one_line_input_error(
        capsys, path, f"{key} at a must be a matrix of integers with rows of one length")


def test_weights_scenario_p_too_large_exit_2(tmp_path, capsys):
    f_w = pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 1})
    path = write_scenario(tmp_path, "weights", _weights_payload(2**61 - 1, f_w, f_w))
    assert_one_line_input_error(
        capsys, path, "p is too large: n*p^2 must be below 2^63 at dimension n = 1")


def test_numerology_unknown_mode_exit_2(tmp_path, capsys):
    payload = {"root_datum": {"gl": 2}, "signature": {"kind": "rational"}, "mode": "bogus"}
    path = write_scenario(tmp_path, "numerology", payload)
    assert_one_line_input_error(capsys, path, "unknown mode 'bogus'")


NUMEROLOGY = {"root_datum": {"gl": 2}, "signature": {"kind": "rational"}}


@pytest.mark.parametrize("field,value,expected", [
    # Each used to end in a ValueError or TypeError traceback.
    ("signature", {"kind": "cm", "degree": "x"}, "signature degree must be an integer, got 'x'"),
    ("signature", {"kind": "totally_real", "degree": [2]},
     "signature degree must be an integer, got [2]"),
    ("finite_places", [["a", 1]], "finite_places entry must be an integer, got 'a'"),
    ("finite_places", [[1]], "finite_places must be a list of pairs, got [[1]]"),
    ("finite_places", 5, "finite_places must be a list of pairs, got 5"),
])
def test_numerology_non_integer_field_exit_2(tmp_path, capsys, field, value, expected):
    path = write_scenario(tmp_path, "numerology", {**NUMEROLOGY, field: value})
    assert_one_line_input_error(capsys, path, expected)


def test_numerology_integer_fields_still_read(tmp_path, capsys):
    payload = {**NUMEROLOGY, "finite_places": [["1", 1]]}
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, "numerology", payload))
    assert code == 0 and json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("signature,expected", [
    ({"kind": "totally_real", "degree": 2, "local_degrees": [1, 2]},
     "local degrees above p must sum to the degree"),
    ({"kind": "totally_real", "degree": 2, "local_degrees": [2, 0]},
     "local degrees above p must be positive"),
    ({"kind": "cm", "degree": 4, "pair_degrees": [1]}, "pair degrees must sum to half the degree"),
    ({"kind": "cm", "degree": 0}, "CM degree must be even, between 2 and 10000"),
    ({"kind": "cm", "degree": 3}, "CM degree must be even, between 2 and 10000"),
])
def test_numerology_signature_refusals_exit_2(tmp_path, capsys, signature, expected):
    path = write_scenario(tmp_path, "numerology", {**NUMEROLOGY, "signature": signature})
    assert_one_line_input_error(capsys, path, expected)


def test_weights_scenario_missing_entries_exit_2(tmp_path, capsys):
    # Used to say only 'entries'.
    path = write_scenario(tmp_path, "weights", {"p": 5, "d": 1, "f": 1, "minus_w0": [0]})
    assert_one_line_input_error(capsys, path, "weights payload misses the field 'entries'")


@pytest.mark.parametrize("changes,expected", [
    # Used to say "malformed dimensions: 'str' object has no attribute 'values'".
    ({"local_dims": "x"}, "local_dims must map places to integers, got 'x'"),
    ({"local_dims": ["a"]}, "local_dims must map places to integers, got ['a']"),
    ({"local_dims": {"a": "x"}}, "local_dims at a must be an integer, got 'x'"),
    ({"global_dim": "q"}, "global_dim must be an integer, got 'q'"),
])
def test_selmer_scenario_bad_dimensions_exit_2(tmp_path, capsys, changes, expected):
    payload = {"p": 5, "local_dims": {"a": 2, "b": 1}, "global_dim": 1, **changes}
    path = write_scenario(tmp_path, "selmer", payload)
    assert_one_line_input_error(capsys, path, expected)


def test_rootdatum_gl1_exit_2(tmp_path, capsys):
    path = write_scenario(tmp_path, "rootdatum", {"gl": 1})
    assert_one_line_input_error(capsys, path, "gl_datum requires n >= 2")


@pytest.mark.parametrize("seed", ["a", None, [1]])
def test_non_integer_seed_exit_2(tmp_path, capsys, seed):
    path = write_scenario(tmp_path, "rootdatum", {"gl": 2}, seed=seed)
    assert_one_line_input_error(capsys, path, f"seed must be an integer, got {seed!r}")


def test_every_error_class_is_an_input_error_or_a_verification_failure():
    # cli catches exactly these two; any other error class would escape it.
    for info in pkgutil.iter_modules(galdesk.__path__):
        module = importlib.import_module(f"galdesk.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__:
                assert issubclass(obj, (InputError, VerificationFailure)), f"{info.name}.{name}"


@pytest.mark.parametrize("kind,payload,expected", [
    # A TameModuleError raised outside the runner's try: a traceback, exit 1.
    ("local", {**LOCAL, "p": 7, "q": 14}, "q must be prime to p"),
    ("numerology", {**NUMEROLOGY, "signature": 5}, "signature must be an object, got 5"),
    ("numerology", {**NUMEROLOGY, "signature": {"kind": "totally_real", "degree": 2,
                                                "local_degrees": "ab"}},
     "local_degrees must be a list of integers, got 'ab'"),
    ("weights", {"p": 5, "d": 1, "f": 1, "minus_w0": [0], "entries": 5},
     "entries must be a list of objects with a string place, got 5"),
    # Used to run as twist 1.
    ("local", {**LOCAL, "twist": 1.5}, "twist must be an integer, got 1.5"),
    # Used to be read as [[1], [0]].
    ("selmer", {"p": 5, "local_dims": {"a": 2}, "global_dim": 1,
                "conditions": {"a": [[1.7], [0.2]]}},
     "condition at a entry must be an integer, got 1.7"),
    # q is the size of a residue field; each used to report cohomology.
    ("local", {**LOCAL, "q": 1}, "q must be at least 2"),
    ("local", {**LOCAL, "q": -1}, "q must be at least 2"),
    ("local", {**LOCAL, "q": -3}, "q must be at least 2"),
    # An undocumented string form of {"gl": 2}.
    ("local", {**LOCAL, "root_datum": "GL2"}, "root_datum must be an object, got 'GL2'"),
])
def test_malformed_payload_exit_2(tmp_path, capsys, kind, payload, expected):
    assert_one_line_input_error(capsys, write_scenario(tmp_path, kind, payload), expected)


WEIGHTS = {"p": 5, "d": 1, "f": 1, "minus_w0": [0], "entries": [
    {"place": "w0", "root_index": 0, "gen_index": 0,
     "f_w": series_payload(pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 1})),
     "f_wbar": series_payload(pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 2}))}]}


@pytest.mark.parametrize("kind,payload,expected", [
    # Each used to hang, or to allocate an array of the size it names.
    ("rootdatum", {"gl": 10**6}, "ranks must sum to at most 16"),
    ("numerology", {**NUMEROLOGY, "signature": {"kind": "totally_real", "degree": 10**19}},
     "degree must be between 1 and 10000"),
    ("selmer", {"p": 5, "local_dims": {"a": 10**6}, "global_dim": 1},
     "local dimensions must be >= 0 with a sum of at most 256"),
    # The bound of ff.odd_prime at twice GL2's adjoint dimension 3.
    ("local", {**LOCAL, "p": 2**31 - 1},
     "p is too large: n*p^2 must be below 2^63 at dimension n = 6"),
    ("weights", {**WEIGHTS, "d": 10**19}, "minus_w0 must be a permutation of the simple indices"),
    ("weights", {**WEIGHTS, "f": 10**19},
     "family must carry one entry per (place, root, generator)"),
])
def test_resource_ceiling_exit_2(tmp_path, capsys, kind, payload, expected):
    assert_one_line_input_error(capsys, write_scenario(tmp_path, kind, payload), expected)


@pytest.mark.parametrize("payload", [
    {**LOCAL, "p": 1000003},  # used to exceed a table budget of (p + 1) n^2 <= 10^6
    # A Ramakrishna GL2 (its root at 3^-1) near the n*p^2 bound, twisted.
    {**LOCAL, "p": 10**9 + 7, "torus_values": [pow(3, -1, 10**9 + 7)], "twist": 1},
])
def test_local_payload_at_a_large_prime_passes(tmp_path, capsys, payload):
    start = time.perf_counter()
    code, out = run_cli(capsys, "run", write_scenario(tmp_path, "local", payload))
    report = json.loads(out)
    assert code == 0 and report["status"] == "pass" and time.perf_counter() - start < 1
    assert report["cohomology"] == ([1, 1, 0] if payload["torus_values"] == [2] else [1, 2, 1])


def test_verification_failure_exit_1(monkeypatch, capsys):
    def fail(*args):
        raise VerificationFailure("dual Selmer did not drop")

    monkeypatch.setattr(sc, "run_builtin", fail)
    assert cli.main(["run", "selmer-annihilation-suite"]) == 1
    assert capsys.readouterr().err == "verification failure: dual Selmer did not drop\n"


def test_precision_ceiling_exit_2(capsys):
    # Used to run for more than 20 s.
    assert cli.main(["run", "padic-log-suite", "--precision", "1000"]) == 2
    assert capsys.readouterr().err == "input error: precision must be between 2 and 256\n"


def test_payload_defaults():
    run = sc.run_scenario_payload
    assert run("local", LOCAL, 0, None) == run("local", {**LOCAL, "twist": 0}, 0, None)
    # A coefficient without a precision has the series' own.
    series = sc._series({"p": 5, "nvars": 1, "prec": 8, "degree_cap": 2,
                         "coeffs": [[[0], 3], [[1], 2, 4]]}, "f_w", 5)
    assert series.terms() == {(0,): pa.PadicInt(5, 3, 8), (1,): pa.PadicInt(5, 2, 4)}
    # An empty condition is a basis with no column, at a place of dimension 0.
    payload = {"p": 5, "local_dims": {"a": 2, "b": 0}, "global_dim": 1, "conditions": {"b": []}}
    assert run("selmer", payload, 0, None)["condition_dims"] == {"a": 2, "b": 0}


def test_cm_parameter_check_only_when_nearly_ordinary_without_finite_places():
    cm = {"root_datum": {"type": [["A", 2]]}, "signature": {"kind": "cm", "degree": 2}}
    for extra, present in (({"mode": "nearly-ordinary"}, True), ({}, False),
                           ({"mode": "nearly-ordinary", "finite_places": [[1, 0]]}, False)):
        report = sc.run_scenario_payload("numerology", {**cm, **extra}, 0, None)
        names = [c["name"] for c in report["checks"]]
        assert ("difference equals the CM parameter" in names) == present


def test_payload_runner_refuses_unknown_kinds():
    with pytest.raises(sc.ScenarioError, match="unknown scenario kind 'group'"):
        sc.run_scenario_payload("group", {}, 0, None)
    with pytest.raises(sc.ScenarioError, match="unknown signature kind 'imaginary'"):
        sc.run_scenario_payload("numerology", {"root_datum": {"gl": 2},
                                               "signature": {"kind": "imaginary"}}, 0, None)


def test_precision_is_read_by_padic_log_suite_alone(tmp_path, capsys):
    for entry in sc.list_builtins():
        if entry["id"] != "padic-log-suite":
            assert cli.main(["run", entry["id"], "--precision", "12"]) == 2, entry["id"]
            assert capsys.readouterr().err == (
                f"input error: precision applies only to padic-log-suite, not to {entry['id']}\n")
    path = write_scenario(tmp_path, "rootdatum", {"type": [["A", 2]]})
    assert cli.main(["run", path, "--precision", "12"]) == 2
    assert capsys.readouterr().err == (
        "input error: precision applies only to padic-log-suite, not to a scenario file\n")
    # 1 + 5 randrange(1, 5^(n - 1)) needs n >= 2; the precision is used as given.
    for low in ("0", "1"):
        assert cli.main(["run", "padic-log-suite", "--precision", low]) == 2
        assert capsys.readouterr().err == "input error: precision must be between 2 and 256\n"
    assert cli.main(["run", "padic-log-suite", "--precision", "2"]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "run", "padic-log-suite", "--precision", "3")
    assert code == 0
    log_6 = pa.log_one_unit(pa.PadicInt(5, 6, 3)).serialize()  # log(1 + p) at precision 3
    assert json.loads(out)["checks"][2]["value"] == log_6


def test_example_scenario(tmp_path, capsys):
    payload = {"root_datum": {"type": [["A", 2]]}, "r": 2, "p": 29}
    path = write_scenario(tmp_path, "example", payload)
    code, out = run_cli(capsys, "run", path)
    assert code == 0
    report = json.loads(out)
    assert report["local_dims"] == [0, 1, 0]
    assert report["sqrt_in_base_field"] is True


def test_example_scenario_invalid_r(tmp_path, capsys):
    payload = {"root_datum": {"type": [["A", 1]]}, "r": 1, "p": 19}
    path = write_scenario(tmp_path, "example", payload)
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("p,expected", [
    # p = 9 used to end in a RootDatumError traceback, and 2^61 - 1 to hang
    # in trial division.
    (9, "p must be an odd prime"),
    (2**61 - 1, "p is too large: n*p^2 must be below 2^63 at dimension n = 1"),
])
def test_example_scenario_bad_p_exit_2(tmp_path, capsys, p, expected):
    payload = {"root_datum": {"type": [["A", 1]]}, "r": 3, "p": p}
    path = write_scenario(tmp_path, "example", payload)
    assert_one_line_input_error(capsys, path, expected)


# Each layer that takes a p, with its own error class and a call that
# reaches its check of p.
GL2 = rdm.gl_datum(2)
PRIME_BOUNDARIES = {
    "TameGaloisModule": (lt.TameModuleError, lambda p: lt.TameGaloisModule(p, ff.eye(1), 3)),
    "TruncatedSeries": (pw.SeriesError, lambda p: pw.TruncatedSeries(p, 1, 8, 4, {(0,): 1})),
    "FiniteGroupAction": (sl.SelmerError, lambda p: sl.FiniteGroupAction(p, [ff.eye(2)])),
    "SelmerSystem": (sl.SelmerError, lambda p: sl.SelmerSystem(
        p, ("v",), {"v": 1}, {"v": ff.eye(1)}, {"v": ff.eye(1)}, {"v": ff.eye(1)})),
    "TorusElement": (rdm.RootDatumError, lambda p: rdm.TorusElement(GL2, p, (2,))),
    "very_good_prime": (rdm.RootDatumError, lambda p: rdm.very_good_prime(GL2, p)),
    "example_local_dims": (num.NumerologyError, lambda p: num.example_local_dims(3, p)),
    "scenarios._prime": (sc.ScenarioError, lambda p: sc._prime({"p": p}, 1)),
    "InflationFamily": (sl.SelmerError, lambda p: sl.InflationFamily(
        p, ff.eye(2)[:, :1], [ff.eye(2)], ff.eye(2))),
    "build_inflation_family": (sl.SelmerError, lambda p: sl.build_inflation_family(
        random.Random(0), p, 1, [1])),
    "build_annihilation_scenario": (sl.SelmerError, lambda p: sl.build_annihilation_scenario(0, p)),
    "build_avoidance_scenario": (sl.SelmerError, lambda p: sl.build_avoidance_scenario(0, p)),
}


NEGATIVE_SIZES = {
    "base_dim": lambda rng: sl.build_inflation_family(rng, 5, -1, [1]),
    "added": lambda rng: sl.build_inflation_family(rng, 5, 1, [2, -1]),
    "extra_selmer": lambda rng: sl.build_annihilation_scenario(0, extra_selmer=-2),
}


@pytest.mark.parametrize("size", NEGATIVE_SIZES)
def test_selmer_builders_refuse_negative_sizes_before_drawing(monkeypatch, size):
    """build_inflation_family used to return a family for base_dim = -1, and
    build_annihilation_scenario drew before it failed at extra_selmer = -2."""
    rng = random.Random(0)
    state = rng.getstate()
    monkeypatch.setattr(ff, "random_matrix", lambda *args: pytest.fail("drew"))
    with pytest.raises(sl.SelmerError, match="must be at least"):
        NEGATIVE_SIZES[size](rng)
    assert rng.getstate() == state


def test_inflation_family_at_the_smallest_sizes():
    """base_dim = 0 and an enlargement adding 0 dimensions are a family."""
    family = sl.build_inflation_family(random.Random(0), 5, 0, [0, 1])
    assert family.base.shape[1] == 0 and family.enlargements[0].shape[1] == 0
    assert sl.inflation_decomposition_check(family)


def test_annihilation_scenario_at_the_smallest_extra_selmer():
    """extra_selmer = -1 is a scenario, with L0 one-dimensional."""
    s = sl.build_annihilation_scenario(0, extra_selmer=-1)
    assert s.system.local_dims == {"v0": 2, "w0": 2} and s.conditions.dims()["v0"] == 1
    w = s.special[0]
    _, report = sl.annihilation_step(s.system, s.conditions, w, s.ram[w], s.phi, s.psi)
    assert report.dual_after == report.dual_before - 1
    assert report.selmer_after == report.selmer_before


@pytest.mark.parametrize("p", [1, 2, 9, 25, 3_215_031_751, 2**61 - 1])
@pytest.mark.parametrize("layer", PRIME_BOUNDARIES)
def test_every_layer_refuses_a_bad_p_at_once(layer, p):
    """SelmerSystem used to accept every p here, and the other constructors
    ran trial division for minutes on 2^61 - 1."""
    error, build = PRIME_BOUNDARIES[layer]
    expected = ("p must be an odd prime" if p < 2**31 else
                r"p is too large: n\*p\^2 must be below 2\^63 at dimension n = \d+")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(error) as err:
            build(p)
        times.append(time.perf_counter() - start)
        assert type(err.value) is error and re.fullmatch(expected, str(err.value))
    assert min(times) < 1e-3


A2 = rdm.build_root_datum([("A", 2)])


def _tame(p):
    m = lt.TameGaloisModule(p, np.diag([2, 3]), 10)
    return type(m.p), lt.cohomology_dims(m), lt.pairing_gram(m)[0].tolist()


def _torus(p):
    t = rdm.TorusElement(A2, p, (2, 3))
    return type(t.p), [t.root_value(r) for r in A2.all_roots()]


def _series(p):
    s = pw.TruncatedSeries(p, 1, 8, 2, {(0,): 3, (1,): 5})
    return type(s.p), s.inverse().terms()


def _selmer_system(p):
    s = sl.SelmerSystem(p, ("v", "w"), {"v": 1, "w": 1}, {"v": ff.eye(1), "w": ff.eye(1)},
                        {"v": ff.eye(1), "w": 6 * ff.eye(1)}, {"v": ff.eye(1), "w": ff.eye(1)})
    return type(s.p), s.exactness_holds()


def _exact_system(p):
    s = sl.build_exact_system(random.Random(5), p, {"a": 3, "b": 2}, 2)
    return type(s.p), s.exactness_holds(), [s.res[v].tolist() for v in s.places]


def _group(p):
    g = sl.FiniteGroupAction(p, [[[1, 1], [0, 1]]])
    return type(g.p), g.order, sl.finite_cohomology(g, 1)[0]


# A call past each constructor that takes a p, and the p it is made at.
NUMPY_P_CALLS = {
    "TameGaloisModule": (7, _tame),
    "TorusElement": (7, _torus),
    "TruncatedSeries": (10**9 + 7, _series),
    "SelmerSystem": (7, _selmer_system),
    "build_exact_system": (7, _exact_system),
    "FiniteGroupAction": (7, _group),
}


@pytest.mark.parametrize("layer", NUMPY_P_CALLS)
def test_a_numpy_integer_p_works_as_its_int(layer):
    """Each constructor keeps the int that ff.odd_prime returns: a numpy p
    used to fail at a three-argument pow or at p.bit_length()."""
    p, call = NUMPY_P_CALLS[layer]
    expected = call(p)
    assert expected[0] is int
    assert call(np.int64(p)) == expected


def test_example_scenario_empty_type_exit_2(tmp_path, capsys):
    # Used to exit 0: both checks ran over zero simple roots.
    payload = {"root_datum": {"type": []}, "r": 3, "p": 19}
    path = write_scenario(tmp_path, "example", payload)
    assert_one_line_input_error(capsys, path, "semisimple part is empty")


@pytest.mark.parametrize("kind,payload", [
    ("local", {"p": 5, "torus_values": [2], "q": 3}),
    ("numerology", {"signature": {"kind": "rational"}}),
    ("example", {"r": 3, "p": 19}),
])
def test_missing_root_datum_exit_2(tmp_path, capsys, kind, payload):
    # Used to end in a KeyError traceback: the field was read outside the try.
    path = write_scenario(tmp_path, kind, payload)
    assert_one_line_input_error(capsys, path, "'root_datum'")


def test_example_scenario_large_prime_is_fast(tmp_path, capsys):
    # p = 2^31 - 1 used to spin in a search of F_p for a square root.
    payload = {"root_datum": {"type": [["A", 1]]}, "r": 1000002, "p": 2147483647}
    path = write_scenario(tmp_path, "example", payload)
    start = time.monotonic()
    code, out = run_cli(capsys, "run", path)
    assert code == 0 and time.monotonic() - start < 5
    report = json.loads(out)
    assert report["status"] == "pass" and report["sqrt_in_base_field"] is True


def _module(m):
    return m.p, m.q, m.twist, m.phi.tolist(), m.tau.tolist()


# A seeded builtin reports counts of passes, which are the same for every corpus
# its identities hold on; so the corpus itself, as the builtin hands it to
# the layer below at seed 1, is pinned here.  {builtin: (module, function,
# what is recorded of each call, sha256 prefix)}
CORPORA = {
    "tame-cohomology-random": ("local_tame", "cohomology_dims", _module, "a09e100ae6d86d7c"),
    "tate-duality-suite": ("local_tame", "annihilator_subspace",
                           lambda m, sub: (_module(m), sub.basis.tolist()), "ae9a7552989dbf63"),
    "selmer-annihilation-suite": ("selmer", "build_annihilation_scenario",
                                  lambda **kw: sorted(kw.items()), "486666b8a6578435"),
    "selmer-avoidance-suite": ("selmer", "build_avoidance_scenario",
                               lambda **kw: sorted(kw.items()), "6bae1c5d48065640"),
    "selmer-inflation-checks": ("selmer", "build_inflation_family",
                                lambda rng, *args, **kw: (args, sorted(kw.items())),
                                "4cd6c006d154e344"),
    "weights-parallel-functional-suite": (
        "padic_weights", "algebraic_weight",
        lambda model, exps, prec, torsion=None: (sorted(exps.items()), prec, torsion),
        "0e4a5e56af1686f6"),
    "padic-log-suite": ("padics", "log_one_unit", lambda u: (u.residue, u.prec),
                        "1547024c5fdce484"),
    "weights-dichotomy-corpus": ("padic_weights", "passage_dichotomy",
                                 lambda fam: [(e.f_w.residues.tolist(), e.f_wbar.residues.tolist())
                                              for e in fam.entries], "d5d628e53c47b860"),
}


@pytest.mark.parametrize("builtin", sorted(CORPORA))
def test_builtin_corpora_are_pinned(monkeypatch, builtin):
    module, name, describe, digest = CORPORA[builtin]
    layer = importlib.import_module(f"galdesk.{module}")
    real, seen = getattr(layer, name), []

    def recorder(*args, **kwargs):
        seen.append(describe(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(layer, name, recorder)
    sc.run_builtin(builtin, 1, None)
    assert seen and hashlib.sha256(repr(seen).encode()).hexdigest()[:16] == digest


def test_module_draws_are_pinned():
    # A draw range one wider changes a draw only rarely: pin 400 of each kind.
    rng = random.Random(0)
    drawn = [_module(draw(rng)) for draw in (sc._random_module, sc._rich_module)
             for _ in range(400)]
    assert hashlib.sha256(repr(drawn).encode()).hexdigest()[:16] == "10adb17b7223ab54"


def test_report_determinism(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, "run", "weights-dichotomy-corpus", "--seed", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_out_flag_and_table_format(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["run", "rootdatum-profiles", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["status"] == "pass"
    code, out = run_cli(capsys, "run", "rootdatum-profiles", "--format", "table")
    assert code == 0
    assert "[PASS] profile A2" in out


def test_table_format_is_pinned(capsys):
    # The separator and the report's keys without checks, status, scenario
    # and seed; then a check's extras without its name and pass.
    code, out = run_cli(capsys, "run", "sec9-example-a1", "--format", "table")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0deca7177ef91a10b84fa1b87507cacfaa6a13f2e89219718534facd3b924641"
    code, out = run_cli(capsys, "run", "numerology-large-image", "--format", "table")
    assert code == 0
    assert '[PASS] A2 bound 29    {"got": 29}' in out.splitlines()


def test_list_json_is_the_catalog(capsys):
    code, out = run_cli(capsys, "list", "--format", "json")
    assert code == 0
    assert out == json.dumps(sc.list_builtins(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc,expected", [
    ([1], "scenario document must be a JSON object"),
    ({"version": 2}, "unsupported schema version 2"),
    ({"version": True}, "unsupported schema version True"),
])
def test_malformed_document_exit_2(tmp_path, capsys, doc, expected):
    if isinstance(doc, dict):  # the rest of the document is valid
        doc = {"kind": "rootdatum", "seed": 0, "payload": {"type": [["A", 2]]}, **doc}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert_one_line_input_error(capsys, str(path), expected)


def test_seed_flag_overrides_the_document(tmp_path, capsys):
    payload = {"p": 7, "local_dims": {"a": 3, "b": 2}, "global_dim": 2}
    path = write_scenario(tmp_path, "selmer", payload, seed=3)
    code, out = run_cli(capsys, "run", path, "--seed", "5")
    assert code == 0
    expected = sc.run_scenario_payload("selmer", payload, 5, None)
    assert json.loads(out) == {**expected, "scenario": path, "seed": 5}


def test_builtin_runs_at_seed_0_by_default(capsys):
    code, out = run_cli(capsys, "run", "selmer-inflation-checks")
    assert code == 0 and json.loads(out)["seed"] == 0
    assert out == run_cli(capsys, "run", "selmer-inflation-checks", "--seed", "0")[1]


def test_every_builtin_exits_zero(capsys):
    # sha256 of each report's stdout, so reports stay byte-identical.
    golden = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
    ids = [entry["id"] for entry in sc.list_builtins()]
    assert sorted(ids) == sorted(golden)
    for builtin in ids:
        code, out = run_cli(capsys, "run", builtin, "--seed", "1")
        assert code == 0, builtin
        assert hashlib.sha256(out.encode()).hexdigest() == golden[builtin], builtin


def test_every_document_report_is_pinned(tmp_path, monkeypatch, capsys):
    # sha256 of the json report of each document at seed 3, run from its own
    # directory so that the report's scenario field, the path, is its name.
    golden = json.loads((Path(__file__).parent / "golden_documents.json").read_text())
    documents = DOCUMENTS + EXTRA_DOCUMENTS
    assert sorted(golden) == sorted(f"doc{i}.json" for i in range(len(documents)))
    monkeypatch.chdir(tmp_path)
    for i, (kind, payload) in enumerate(documents):
        name = f"doc{i}.json"
        write_scenario(tmp_path, kind, payload, seed=3, name=name)
        code, out = run_cli(capsys, "run", name)
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == golden[name], (name, kind)
