"""A fuzzer over scenario documents: one valid document of each kind, with
one field changed.  Whatever the change, `galdesk run` must exit 0, 1 or 2
in bounded time, with no exception and at most one line on stderr."""

import contextlib
import copy
import io
import json
import signal

from hypothesis import given, settings, strategies as st

from galdesk import cli
from galdesk import padic_weights as pw
from series_payload import series_payload

F_W = series_payload(pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 1}))
F_WBAR = series_payload(pw.TruncatedSeries(5, 1, 8, 6, {(0,): 1, (1,): 2}))
DOCUMENTS = [
    ("rootdatum", {"type": [["A", 2]], "central_rank": 1}),
    ("local", {"root_datum": {"gl": 2}, "p": 5, "torus_values": [2], "q": 3, "twist": 1}),
    ("numerology", {"root_datum": {"type": [["A", 1]]},
                    "signature": {"kind": "totally_real", "degree": 2, "local_degrees": [1, 1]},
                    "mode": "ordinary", "finite_places": [[1, 1]], "h0_at_p": 0}),
    ("numerology", {"root_datum": {"gl": 2},
                    "signature": {"kind": "cm", "degree": 4, "pair_degrees": [1, 1]},
                    "mode": "nearly-ordinary"}),
    ("selmer", {"p": 5, "local_dims": {"a": 2, "b": 1},
                "res": {"a": [[1, 0, 0], [0, 1, 0]], "b": [[0, 0, 1]]},
                "res_dual": {"a": [[], []], "b": [[]]},
                "pairing": {"a": [[1, 0], [0, 1]], "b": [[1]]},
                "conditions": {"a": [[1], [0]], "b": [[1]]}}),
    ("selmer", {"p": 7, "local_dims": {"a": 3, "b": 2}, "global_dim": 2,
                "conditions": {"a": [[1], [0], [2]]}}),
    ("weights", {"p": 5, "d": 1, "f": 1, "minus_w0": [0],
                 "entries": [{"place": "w0", "root_index": 0, "gen_index": 0,
                              "f_w": F_W, "f_wbar": F_WBAR}]}),
    ("example", {"root_datum": {"type": [["A", 1]]}, "r": 3, "p": 19}),
]
DELETE = object()
# Wrong types, then negative, zero and huge values.
VALUES = ["x", "", 1.5, True, None, [], {}, [1], {"x": 1}, "12",
          -1, -(10**19), 0, 10**6, 2**31 - 1, 10**19, 2**64, 1e300, float("inf")]
SECONDS_PER_DOCUMENT = 1.0


def field_paths(node, prefix=()):
    """The path of every dict value and list item below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@st.composite
def mutated_documents(draw):
    kind, payload = draw(st.sampled_from(DOCUMENTS))
    doc = {"version": 1, "kind": kind, "seed": 3, "payload": copy.deepcopy(payload)}
    path = draw(st.sampled_from(list(field_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = draw(st.sampled_from([DELETE, *VALUES]))
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _timed_out(signum, frame):
    raise TimeoutError(f"a document ran for more than {SECONDS_PER_DOCUMENT} s")


def test_every_document_is_valid_as_given(tmp_path):
    for kind, payload in DOCUMENTS:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"version": 1, "kind": kind, "seed": 3, "payload": payload}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(path)]) == 0, kind


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_documents_exit_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_DOCUMENT)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
