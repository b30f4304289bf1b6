"""Every function in src/galdesk runs on a `galdesk` user path.

The corpus is what a user can run: every builtin at seed 0, `galdesk list`
in both formats, a table report, and one valid scenario document of each
kind (those of test_documents, a rational numerology signature, and weights
payloads with an undetermined verdict and a certificate at a large p), each
through `cli.main`.  It runs under a call-only `sys.settrace`, and a
function in src/galdesk that no call reaches fails the test, unless EXEMPT
names it with its reason.
"""

import contextlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import galdesk
from galdesk import cli
from galdesk import padic_weights as pw
from galdesk import scenarios as sc
from series_payload import series_payload
from test_documents import DOCUMENTS

SRC = Path(galdesk.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PERF = "named in perfbench/; removal waits for ROADMAP item 1"
# Degree 2 shifts by a coinduced module only when p^2 divides |G|, and no
# builtin or document kind builds such a group; test_selmer checks the shift
# against the bar and coinduced oracles.
API = "the Python API's degree-2 shift for p^2 | |G|; no user input reaches it"
EXEMPT = {
    "ffield.QuotientSpace.coords": PERF,
    "ffield.QuotientSpace.coords_matrix": PERF,
    "local_tame.tate_pairing": PERF,
    "local_tame.tate_pairing.<locals>.pair": PERF,
    "selmer.SelmerSystem.stacked_res_dual": PERF,
    "selmer.SelmerSystem.block_pairing": PERF,
    "selmer.ConditionAssignment.l_perp": PERF,
    "padic_weights.TruncatedSeries.__add__": PERF,
    "padic_weights.TruncatedSeries.__neg__": PERF,
    "padic_weights.TruncatedSeries.__sub__": PERF,
    "padic_weights.TruncatedSeries.inverse": PERF,
    "padic_weights.TruncatedSeries.divide": PERF,
    "padic_weights.TruncatedSeries.specialize_to_axis": PERF,
    "padic_weights.SparsityCertificate.per_zeta": PERF,
    "selmer._multiplier": API,
    "selmer._multiplier.<locals>.times": API,
    "selmer._p_prime_subgroup": API,
    "selmer._right_cosets": API,
    "selmer._subgroup": API,
}

BIG_P = 2**31 - 1
EXTRA_DOCUMENTS = [
    ("numerology", {"root_datum": {"gl": 2}, "signature": {"kind": "rational"}}),
    # f_w / f_wbar = 1 + 5x has no unit coefficient off the constant term at
    # precision 8, so the dichotomy cannot decide it.
    ("weights", {"p": 5, "d": 1, "f": 1, "minus_w0": [0],
                 "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                              "f_w": series_payload(pw.TruncatedSeries(5, 1, 8, 6,
                                                                       {(0,): 1, (1,): 5})),
                              "f_wbar": series_payload(pw.TruncatedSeries(5, 1, 8, 6,
                                                                          {(0,): 1}))}]}),
    # f_w / f_wbar = 1 + x: a sparsity certificate with its witness at zeta = 1,
    # at a p where spelling out all p - 1 roots of unity would take gigabytes
    # (test_documents' certificate has p = 5).
    ("weights", {"p": BIG_P, "d": 1, "f": 1, "minus_w0": [0],
                 "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                              "f_w": series_payload(pw.TruncatedSeries(BIG_P, 1, 2, 1,
                                                                       {(0,): 1, (1,): 1})),
                              "f_wbar": series_payload(pw.TruncatedSeries(BIG_P, 1, 2, 1,
                                                                          {(0,): 1}))}]}),
]


# Documents the corpus runs but golden_documents.json does not pin: the
# adjoint module of A8 at p = 7 is 80-dimensional, tall enough for ffield's
# chunked elimination.
REACH_DOCUMENTS = [
    ("local", {"root_datum": {"type": [["A", 8]]}, "p": 7, "torus_values": [1] * 8, "q": 2}),
]


def defined_functions() -> dict:
    """{(file name, first line): dotted name} for every function and method
    defined in src/galdesk; class bodies, lambdas and comprehensions are not
    functions here."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), f"{path.stem}.")]
        while stack:
            code, prefix = stack.pop()
            function = code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<")
            if function:
                out[(path.name, code.co_firstlineno)] = prefix + code.co_name
            inner = prefix + code.co_name + (".<locals>." if function else ".")
            stack.extend((c, prefix if code.co_name == "<module>" else inner)
                         for c in code.co_consts if isinstance(c, types.CodeType))
    return out


def run_corpus(tmp_path) -> set:
    """(file name, first line) of every galdesk function the corpus calls."""
    argvs = [["run", entry["id"], "--seed", "0"] for entry in sc.list_builtins()]
    argvs += [["run", "padic-log-suite", "--format", "table"], ["list"],
              ["list", "--format", "json"]]
    for i, (kind, payload) in enumerate(DOCUMENTS + EXTRA_DOCUMENTS + REACH_DOCUMENTS):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps({"version": 1, "kind": kind, "seed": 3, "payload": payload}))
        argvs.append(["run", str(path)])
    # A cached function that an earlier test filled would not be called.
    for name, module in list(sys.modules.items()):
        if name.startswith("galdesk."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    called = set()
    src = str(SRC)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(src):
            called.add((Path(code.co_filename).name, code.co_firstlineno))
        # No local trace function: only calls are seen.

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(argvs)
    return called


def test_every_function_runs_on_a_user_path(tmp_path):
    functions = defined_functions()
    called = run_corpus(tmp_path)
    unreached = {name for key, name in functions.items() if key not in called}
    assert sorted(unreached - set(EXEMPT)) == []
    # An exemption names a function that exists and that the corpus misses.
    assert sorted(set(EXEMPT) - unreached) == []


def test_exemptions_are_named_in_perfbench():
    text = "".join(path.read_text() for path in PERFBENCH.glob("*.py"))
    for name, reason in EXEMPT.items():
        # A nested function goes with the function that defines it.
        if reason == PERF:
            assert name.split(".<locals>.")[0].split(".")[-1] in text, name
