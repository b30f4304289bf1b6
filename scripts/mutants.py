#!/usr/bin/env python3
"""Mutation sweep over src/galdesk, with the standard library and pytest alone.

    python3 scripts/mutants.py [MODULE ...]

MODULE names a file of src/galdesk (default: all nine that hold code, every
file but __init__ and errors).  Each mutant changes one site:

    compare  flip one comparison operator (< to >=, == to !=, in to not in, ...)
    raise    disable an `if ...: raise` (its test becomes False)
    mod-p    drop one `% p` or `%= p`, where the modulus is p or an attribute .p
    const    change an integer constant n to n + 1
    not      drop a `not`

The checkout is copied to a temporary directory (TMPDIR), and every mutant
is written there, never into the checkout.  One traced run of the test suite
first maps each galdesk function to the tests that call it, with galdesk's
caches cleared before each test.  It watches calls as tests/test_reach.py
does, but through `sys.setprofile`, because test_reach installs a
`sys.settrace` of its own.  A mutant inside a function then runs only those
tests, fastest first, stopping at the first failure.  A site outside every
function runs the tests of the functions that read the name assigned there,
or else the tests that call any function of its module.  Two mutants
run at once, each in its own copy.

A mutant that no test kills survives.  EQUIVALENT lists the survivors that
no test can kill, each with its reason, and these are not run.  The sweep
prints every other survivor and exits 1 when there is one.
"""

from __future__ import annotations

import ast
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "ffield", "local_tame", "numerology", "padic_weights", "padics", "root_datum",
           "scenarios", "selmer")
# Each mutant's tests run in an address space of at most this many bytes, so
# that a mutated size bound fails fast instead of filling the machine.  The
# suite runs well within it; a mutated Cartan matrix whose reflection closure
# never ends fills whatever it is given.
MEMORY_LIMIT = 1 << 30

FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}

KERNEL = "where rref's kernels and chunks meet; every choice returns the same canonical R"

NONSPLIT = ("on g_alpha (Frobenius 3, tau 1) the coboundaries are the (2m, 0), so a "
            "cocycle splits exactly when its tau value is 0, whatever its sigma value and q")

SPOT = ("a spot check of a builtin whose verdict, all its report records, is the same "
        "for the changed example: the trivial group over any odd prime, H^1 = H^2 = 0 for "
        "a group of order prime to p, and H^1 = H^2 = 1 for the adjoint SL2(F_5)")

WEIERSTRASS = ("a spot example whose Newton polygon vertices, degree and slopes, all the check "
               "records, are the same for the changed series")

BOUNDED = ("p divides |G| <= MAX_ORDER = 10^5 and the enumeration keeps |G| n^2 <= 10^7, so a "
           "product of factors with entries below n p^2 and p sums below n^2 p^3 <= 10^17, "
           "inside int64, and the reduction that follows gives the same")

SECOND_GENERATOR = ("the suite sets exponents and torsion, and its norm-one elements take exponents, "
                    "at generator 0 alone; a second generator at a place has exponent 0 and value "
                    "1, which no functional reads, so the report is the same")

# (module.function, operator, site): the reason no test can kill the mutant.
# A function's name is dotted through its classes and enclosing functions,
# and "<module>" is module level.  The site is the first line of the mutated
# expression without its comment, with the expression between « and » (» ends
# a line it runs past) and the whitespace collapsed.
EQUIVALENT: dict[tuple[str, str, str], str] = {
    ("ffield.<module>", "const", "_SMALL_CELLS = «256»"): KERNEL,
    ("ffield.<module>", "const", "_SPARSE_CELLS = «1024»"): KERNEL,
    ("ffield.<module>", "const", "_SPARSE_NONZEROS = «128»"): KERNEL,
    ("ffield.<module>", "const", "_SPARSE_PRIMES = «2»**15"): KERNEL,
    ("ffield.<module>", "const", "_SPARSE_PRIMES = 2**«15»"): KERNEL,
    ("ffield.<module>", "const", "_CHUNK_ROWS = «64»"): KERNEL,
    ("ffield.<module>", "const", "_CHUNK_CELLS = «4096»"): KERNEL,
    ("ffield._reduce", "const",
     "r.size <= _SPARSE_CELLS and max(m, n) <= «16» * min(m, n) and p < _SPARSE_PRIMES"):
        KERNEL,
    ("ffield._reduce", "const", "step = max(_CHUNK_ROWS, _CHUNK_CELLS // max(n, «1»))"): KERNEL,
    ("ffield._reduce", "compare", "if «m <= step»:"): KERNEL,
    ("ffield._subtract_product", "const",
     "limit, dtype = (2**53, np.float64) if p * p <= 2**53 else (2**63 - «1», np.int64)"):
        "the int64 branch has p^2 > 2^53, and 2^63 - 1 has no square factor but 7^2, so "
        "limit // p^2 is the same for 2^63 - 2",
    ("ffield.<module>", "const", "_MAX_DRAWS = «1000»"):
        "the cap is reached only for a p that is not prime, where any cap ends in the "
        "same refusal",
    ("ffield.is_prime", "const", "return n > «1»"):
        "n = 2 has returned at the division by 2, so no n that reaches this line lies "
        "in (1, 2]",
    ("ffield.is_prime", "const", "s = ((n - 1) & («1» - n)).bit_length() - 1"):
        "n is odd, so n - 3 = (n - 1) - 2 has bit s clear and agrees with n - 1 above it: "
        "(n - 1) & (2 - n) = (n - 1) & ~(n - 3) is 2^s as well",
    ("padic_weights.<module>", "const", "@functools.lru_cache(maxsize=«32»)"):
        "a cache size: a layout is the same whether it is cached or rebuilt",
    ("padic_weights._layout", "const", "if nvars > «62» or (cap + 1) ** nvars > 2**62:"):
        "at 63 variables (cap + 1)^63 >= 2^63 refuses as well; the first test only "
        "spares a huge nvars the power",
    ("padic_weights._layout", "const",
     "return _Layout(monomials, index, degrees, np.searchsorted(degrees, np.arange(cap + «2»)),"):
        "an offset past degree cap + 1 is never read",
    ("padic_weights.<module>", "const", "@functools.lru_cache(maxsize=«64»)"):
        "a cache size: the powers of p are the same whether cached or rebuilt",
    ("padic_weights._powers", "const",
     "return np.array([p**k for k in range(prec + «1»)], dtype=object)"):
        "p^(prec + 1) is never read: no term's precision passes prec",
    ("numerology.large_image_prime_bound", "const",
     "if ff.is_prime(p) and p - «1» > threshold and very_good_prime(rd, p):"):
        "the threshold is even (8 z, (2h - 2) z, or (h - 1) z with z even), so p - 1 "
        "and p - 2 pass it at different p only at p = threshold + 2, which is even",
    ("scenarios.builtin_gl2_f5_ramakrishna", "const",
     "ramified = lt.nonsplit_check(rd, 5, 3, (frob,), (1,), («0»,), (1,))"):
        NONSPLIT,
    ("scenarios.builtin_gl2_f5_ramakrishna", "const",
     "ramified = lt.nonsplit_check(rd, 5, 3, (frob,), (1,), (0,), («1»,))"):
        NONSPLIT,
    ("scenarios.builtin_gl2_f5_ramakrishna", "const",
     "unramified = lt.nonsplit_check(rd, 5, «3», (frob,), (1,), (1,), (0,))"):
        NONSPLIT,
    ("scenarios.builtin_gl2_f5_ramakrishna", "const",
     "unramified = lt.nonsplit_check(rd, 5, 3, (frob,), (1,), («1»,), (0,))"):
        NONSPLIT,
    ("scenarios.builtin_finite_cohomology", "const",
     'and sl.finite_cohomology(trivial, «1»)[0] == 0))'):
        SPOT,
    ("scenarios.builtin_finite_cohomology", "const",
     'minus = sl.FiniteGroupAction(5, [(-«1») * ff.eye(1) % 5])'):
        SPOT,
    ("scenarios.builtin_finite_cohomology", "const",
     'minus = sl.FiniteGroupAction(5, [(-1) * ff.eye(«1») % 5])'):
        SPOT,
    ("scenarios.builtin_finite_cohomology", "const",
     'checks.append(check("order-2 action: H1 = 0", sl.finite_cohomology(minus, «1»)[0] == 0))'):
        SPOT,
    ("scenarios.builtin_finite_cohomology", "const",
     'sl.finite_cohomology(g5, «1»)[0] == 1, order=g5.order))'):
        SPOT,
    ("scenarios._sl2_adjoint", "const", "e = np.array([[1, «1»], [0, 1]], dtype=np.int64)"):
        "[[1, 2], [0, 1]] and f generate the same SL2(F_p), so the same adjoint group",
    ("scenarios._sl2_adjoint", "const", "f = np.array([[1, 0], [«1», 1]], dtype=np.int64)"):
        "e and [[1, 0], [2, 1]] generate the same SL2(F_p), so the same adjoint group",
    ("scenarios.builtin_numerology_wiles", "const",
     'control = rdm.parallel_cocharacter_check(gl2, («1», 0), (1, 0), (0, 0))'):
        "the control fails for the changed pair too: (2, 0) or (1, 1) against (1, 0), "
        "in either order, is not parallel for omega = 0",
    ("scenarios.builtin_numerology_wiles", "const",
     'control = rdm.parallel_cocharacter_check(gl2, (1, «0»), (1, 0), (0, 0))'):
        "the control fails for the changed pair too: (2, 0) or (1, 1) against (1, 0), "
        "in either order, is not parallel for omega = 0",
    ("scenarios.builtin_numerology_wiles", "const",
     'control = rdm.parallel_cocharacter_check(gl2, (1, 0), («1», 0), (0, 0))'):
        "the control fails for the changed pair too: (2, 0) or (1, 1) against (1, 0), "
        "in either order, is not parallel for omega = 0",
    ("scenarios.builtin_numerology_wiles", "const",
     'control = rdm.parallel_cocharacter_check(gl2, (1, 0), (1, «0»), (0, 0))'):
        "the control fails for the changed pair too: (2, 0) or (1, 1) against (1, 0), "
        "in either order, is not parallel for omega = 0",
    ("scenarios.builtin_numerology_large_image", "const", 'b2 = rdm.build_root_datum([("B", «2»)])'):
        "B3's prime bound is 19 as well, the value the check compares",
    ("scenarios.builtin_sec9_a2", "const",
     'return _example_report("A2: ", rdm.build_root_datum([("A", «2»)]), r=2, p=29)'):
        "the example's conditions hold for A3 at r = 2, p = 29 as well, with the same "
        "report bytes",
    ("scenarios.builtin_sec9_a1", "const",
     'return _example_report("A1: ", rdm.build_root_datum([("A", «1»)]), r=3, p=19)'):
        "the example's conditions hold for A2 at r = 3, p = 19 as well, with the same "
        "report bytes",
    ("scenarios.builtin_weights_parallel_functional", "const",
     'model = pw.UnitsModel(5, (("w0", "wbar0", «1»), ("w1", "wbar1", 1)))'):
        SECOND_GENERATOR,
    ("scenarios.builtin_weights_parallel_functional", "const",
     'model = pw.UnitsModel(5, (("w0", "wbar0", 1), ("w1", "wbar1", «1»)))'):
        SECOND_GENERATOR,
    ('scenarios.builtin_weierstrass', 'const',
     'g = pw.TruncatedSeries(5, 1, «8», 6, {(1,): 5, (2,): 10, (3,): 10, (4,): 5, (5,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g = pw.TruncatedSeries(5, 1, 8, «6», {(1,): 5, (2,): 10, (3,): 10, (4,): 5, (5,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g = pw.TruncatedSeries(5, 1, 8, 6, {(1,): 5, («2»,): 10, (3,): 10, (4,): 5, (5,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g = pw.TruncatedSeries(5, 1, 8, 6, {(1,): 5, (2,): 10, («3»,): 10, (4,): 5, (5,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g = pw.TruncatedSeries(5, 1, 8, 6, {(1,): 5, (2,): 10, (3,): 10, («4»,): 5, (5,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g = pw.TruncatedSeries(5, 1, 8, 6, {(1,): 5, (2,): 10, (3,): 10, (4,): 5, (5,): «1»})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g2 = pw.TruncatedSeries(5, 1, «8», 6, {(0,): -5, (2,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g2 = pw.TruncatedSeries(5, 1, 8, «6», {(0,): -5, (2,): 1})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g2 = pw.TruncatedSeries(5, 1, 8, 6, {(0,): -5, (2,): «1»})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g3 = pw.TruncatedSeries(5, 1, «8», 6, {(0,): 3})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g3 = pw.TruncatedSeries(5, 1, 8, «6», {(0,): 3})'):
        WEIERSTRASS,
    ('scenarios.builtin_weierstrass', 'const',
     'g3 = pw.TruncatedSeries(5, 1, 8, 6, {(0,): «3»})'):
        WEIERSTRASS,
    ('scenarios._prime', 'const',
     'return ff.odd_prime(_int(_field(payload, "p", «0»), "p"), ScenarioError, n)'):
        "a missing p is refused as not prime, at 0 and at 1 alike",
    ('scenarios._run_selmer', 'const',
     'global_dim = _int(_field(payload, "global_dim", «0» if explicit else _REQUIRED), "global_dim")'):
        "global_dim enters only the bound on p, as one of the dimensions whose maximum "
        "is taken, next to the local dims and widths of an explicit system",
    ('scenarios._run_selmer', 'const',
     'widths = [len(rows[0]) for block in blocks[:«2»] for rows in block.values()'):
        "the pairing blocks are local_dims[v] wide, which the maximum already counts",
    ("selmer.<module>", "const", "_ENUM_ROWS = «256»"):
        "a batch size: the queue is walked first in, first out, so the breadth-first "
        "order, every index, the step table and the tree are the same in batches of "
        "any size (test_enumeration_overflow_guard)",
    ("selmer._p_prime_subgroup", "const", "for y in range(«1», k):"):
        "skipping a candidate grows another subgroup H of order prime to p, and "
        "every such H gives the same H^2 (Shapiro's lemma)",
    ("selmer._p_prime_subgroup", "const", "gens, members = [], np.zeros(«1», dtype=np.int64)"):
        "[0, 0] lists the identity twice, which changes no membership test; the "
        "count reaches limit = 1 only where no candidate can join",
    ("selmer._tate_h2", "mod-p",
     "twisted = «(b[:, None, None] * g.elements - ff.eye(n))[b > 0] % p»"): BOUNDED,
    ("selmer._tate_h2", "mod-p", "rows = («e @ twisted % p» @ z).reshape(-1, z.shape[1])"):
        BOUNDED,
    ("selmer._tate_h2", "const", "rows = (e @ twisted % p @ z).reshape(-«1», z.shape[1])"):
        "numpy reads any negative size as the one dimension it infers",
    ("selmer._sylow_twists", "mod-p",
     "powers = np.concatenate([powers, powers[: p - len(powers)] @ («powers[-1] @ x % p») % p])"):
        BOUNDED,
    ("selmer._sylow_twists", "mod-p", "conj = ((«inverse @ x % p») @ g.elements % p).tobytes()"):
        BOUNDED,
    ("selmer._dress", "mod-p", "res[v] = «(g @ blocks[0][v]) % p»"):
        "every column of a builder's canonical image has at most one 1 among a "
        "place's rows, so g @ block is already reduced",
    ("selmer._dress", "const", "gh = ff.random_gl(rng, res[places[«0»]].shape[1], p)"):
        "every place's block has dim H columns, and both builders have two places",
    ("selmer._dress", "const", "gh_dual = ff.random_gl(rng, res_dual[places[«0»]].shape[1], p)"):
        "every place's dual block has dim H' columns, and both builders have two places",
    ("selmer.build_annihilation_scenario", "const",
     "psi_vec = e[:, s0 - «1»] + e[:, n0::2].sum(axis=1)"):
        "psi may thread any plain coordinate of v0 outside the ghosts; s0 - 2 "
        "gives a scenario of the same shape",
    ("selmer.build_avoidance_scenario", "const", "e[:, selmer_dim - «1»] + e[:, n0],"):
        "the Selmer vector through the unramified line may start from any plain "
        "coordinate of v0; selmer_dim - 2 gives a scenario of the same shape",
    ("selmer.build_inflation_family", "const", "ambient = base_dim + sum(added) + «2»"):
        "slack columns lie outside every enlargement; any number of them will do",
}


@dataclass
class Mutant:
    module: str
    function: str  # dotted name within the module
    line: int  # first line of that function, as code objects number it
    site: int  # line of the mutated expression
    marked: str  # that line, the expression marked; see EQUIVALENT
    operator: str
    segment: str  # the source of the mutated expression
    start: int  # byte offsets of the segment in the module's source
    end: int
    replacement: str

    @property
    def key(self) -> tuple[str, str, str]:
        return f"{self.module}.{self.function}", self.operator, self.marked

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.replacement.encode() + source[self.end :]


def _is_modulus_p(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "p"
            or isinstance(node, ast.Attribute) and node.attr == "p")


def mutants(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    # The byte offset of each line's comment, which the site leaves out.
    comments = {t.start[0]: len(lines[t.start[0] - 1].decode()[: t.start[1]].encode())
                for t in tokenize.tokenize(io.BytesIO(source).readline)
                if t.type == tokenize.COMMENT}
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    out = []

    def offset(line, col):
        return starts[line - 1] + col

    def add(scope, node, operator, replacement):
        start = offset(node.lineno, node.col_offset)
        end = offset(node.end_lineno, node.end_col_offset)
        segment = " ".join(source[start:end].decode().split())
        line = lines[node.lineno - 1]
        code = line[: comments.get(node.lineno, len(line))].rstrip()
        cut = node.end_col_offset if node.end_lineno == node.lineno else len(code)
        marked = (code[: node.col_offset] + "«".encode() + code[node.col_offset : cut]
                  + "»".encode() + code[cut:]).decode()
        out.append(Mutant(module, scope[0], scope[1], node.lineno, " ".join(marked.split()),
                          operator, segment, start, end, f"({replacement})"))

    def visit(node, prefix, scope, in_fstring=False):
        """prefix dots the names of the enclosing defs; scope is the
        (name, first line) of the innermost function, or module level."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for d in node.decorator_list:
                visit(d, prefix, scope)
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):  # a class body runs where it stands
                scope = (name, min([node.lineno] + [d.lineno for d in node.decorator_list]))
            for child in node.body:
                visit(child, name + ".", scope)
            return
        in_fstring = in_fstring or isinstance(node, ast.JoinedStr)
        if not in_fstring:
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    flipped = ast.Compare(node.left, list(node.ops), node.comparators)
                    flipped.ops[i] = FLIP[type(op)]()
                    add(scope, node, "compare", ast.unparse(flipped))
            elif isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise):
                add(scope, node.test, "raise", "False")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                    and _is_modulus_p(node.right):
                add(scope, node, "mod-p", ast.unparse(node.left))
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod) \
                    and _is_modulus_p(node.value):
                add(scope, node, "mod-p", ast.unparse(node.target))  # x %= p becomes (x)
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                add(scope, node, "const", str(node.value + 1))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                add(scope, node, "not", ast.unparse(node.operand))
        for child in ast.iter_child_nodes(node):
            visit(child, prefix, scope, in_fstring)

    visit(tree, "", ("<module>", 0))
    return out


# ---------------------------------------------------------------------------
# The test map
# ---------------------------------------------------------------------------

# A pytest plugin, written next to the copy's tests: it records, per test, the
# galdesk functions called and the seconds taken.
PLUGIN = '''
import json, os, sys, time
from pathlib import Path

import pytest

SRC = os.environ["MUTANTS_SRC"]
calls = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    for name, module in list(sys.modules.items()):
        if name.startswith("galdesk."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    called = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(SRC) \
                and not code.co_name.startswith("<"):
            called.add((Path(code.co_filename).stem, code.co_firstlineno))

    sys.setprofile(on_call)
    start = time.perf_counter()
    try:
        yield
    finally:
        sys.setprofile(None)
    calls[item.nodeid] = [time.perf_counter() - start, sorted(called)]


def pytest_sessionfinish(session):
    Path(os.environ["MUTANTS_MAP"]).write_text(json.dumps(calls))
'''


def _env(copy: Path, **extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # No bytecode cache: a mutant of the same size written within the same
    # second as the original would otherwise run the stale .pyc.
    env.update(PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy / 'tests'}",
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", **extra)
    return env


def build_test_map(copy: Path) -> dict:
    """{(module stem, first line): [(seconds, test id), ...]} from one traced run."""
    (copy / "tests" / "_mutants_trace.py").write_text(PLUGIN)
    out = copy / "test_map.json"
    env = _env(copy, MUTANTS_SRC=str(copy / "src" / "galdesk"), MUTANTS_MAP=str(out))
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "-p", "_mutants_trace", "tests"], cwd=copy, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    (copy / "tests" / "_mutants_trace.py").unlink()
    test_map = {}
    for test, (seconds, called) in json.loads(out.read_text()).items():
        for stem, line in called:
            test_map.setdefault((stem, line), []).append((seconds, test))
    return test_map


def readers(source: bytes) -> dict:
    """{line: first lines of the functions that read a name assigned there}
    for the lines of each module-level assignment."""
    tree = ast.parse(source)
    reads = {min([f.lineno] + [d.lineno for d in f.decorator_list]):
             {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}
             for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            for line in range(stmt.lineno, stmt.end_lineno + 1):
                out[line] = [first for first, read in reads.items() if read & names]
    return out


def tests_for(mutant: Mutant, test_map: dict, lines: list) -> list[tuple[float, str]]:
    """The tests that call the functions in `lines`, fastest first; for a
    function that no test calls, or an empty `lines`, every test that calls
    a function of the module."""
    found = {t for line in lines for t in test_map.get((mutant.module, line), ())}
    if not found:
        found = {t for (stem, _), tests in test_map.items() if stem == mutant.module
                 for t in tests}
    return sorted(found)


# ---------------------------------------------------------------------------
# Running mutants
# ---------------------------------------------------------------------------


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_mutant(copy: Path, mutant: Mutant, tests: list[tuple[float, str]]) -> str:
    """"killed", "timeout" or "survived", with the mutant written into the copy
    and the original restored afterwards."""
    if not tests:
        return "survived"
    path = copy / "src" / "galdesk" / f"{mutant.module}.py"
    original = path.read_bytes()
    # Hypothesis would replay the examples that failed an earlier mutant.
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    path.write_bytes(mutant.apply(original))
    budget = 30 + 3 * sum(seconds for seconds, _ in tests)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(test for _, test in tests)]
    try:
        proc = subprocess.Popen(cmd, cwd=copy, env=_env(copy), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True,
                                preexec_fn=_limit_memory)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    finally:
        path.write_bytes(original)
    return "survived" if code == 0 else "killed"


def sweep(copies: list[Path], modules, test_map: dict, equivalent=EQUIVALENT,
          log=lambda line: print(line, flush=True)) -> dict:
    """Run every mutant of the modules that `equivalent` does not list.
    Returns {"killed": n, "timeout": n, "equivalent": [keys], "survived": [mutants]}."""
    todo, listed, lines = [], [], {}
    for module in modules:
        source = (copies[0] / "src" / "galdesk" / f"{module}.py").read_bytes()
        read = readers(source)
        for m in mutants(module, source):
            (listed if m.key in equivalent else todo).append(m)
            # A module-level site runs the tests of the functions that read its name.
            lines[id(m)] = read.get(m.site, []) if m.function == "<module>" else [m.line]
    result = {"killed": 0, "timeout": 0, "equivalent": [m.key for m in listed], "survived": []}
    free = list(copies)

    def one(m):
        copy = free.pop()
        try:
            return m, run_mutant(copy, m, tests_for(m, test_map, lines[id(m)]))
        finally:
            free.append(copy)

    with ThreadPoolExecutor(len(copies)) as pool:
        for i, (m, status) in enumerate(pool.map(one, todo), 1):
            if status == "survived":
                result["survived"].append(m)
                log(f"[{i}/{len(todo)}] SURVIVED {m.module}.py:{m.site} {m.key} "
                    f"-> {m.replacement}")
            else:
                result[status] += 1
            if i % 100 == 0:
                log(f"[{i}/{len(todo)}] killed {result['killed']}, timeout "
                    f"{result['timeout']}, survived {len(result['survived'])}")
    return result


def copy_checkout(root: Path, dest: Path) -> Path:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"))
    return dest


def main(argv=None) -> int:
    modules = (argv if argv is not None else sys.argv[1:]) or list(MODULES)
    unknown = [m for m in modules if not (ROOT / "src" / "galdesk" / f"{m}.py").exists()]
    if unknown:
        print(f"no module src/galdesk/{unknown[0]}.py", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="galdesk-mutants-") as tmp:
        copies = [copy_checkout(ROOT, Path(tmp) / f"copy{i}") for i in range(2)]
        t0 = time.monotonic()
        test_map = build_test_map(copies[0])
        print(f"test map: {len(test_map)} functions in {time.monotonic() - t0:.0f} s")
        result = sweep(copies, modules, test_map)
    total = result["killed"] + result["timeout"] + len(result["survived"])
    print(f"modules: {' '.join(modules)}")
    print(f"mutants run: {total}, killed: {result['killed']}, timeout: {result['timeout']}, "
          f"survived: {len(result['survived'])}, listed equivalent: {len(result['equivalent'])}")
    return 1 if result["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
