"""The compiled backend's entry points under bad input and long runs.

Each check runs in a child process, so a crash fails the test instead of
ending the session.  Its agreement with the pure code is checked in
``test_kernels.py`` (``canon_form``, ``max_clique``, ``color_with`` and
``induced_cycles`` against their ``pure_`` entries) and
``test_enumeration.py`` (``augment`` against ``pure_augment``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clawlab import kernels

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(kernels.BACKEND != "c", reason="clawlab._augment did not build")

# Shared by both child scripts: seeded rows of graphs and patterns.
PRELUDE = r"""
import json, random, resource, sys
from clawlab import _augment
from clawlab.patterns import pattern_graph

rng = random.Random(int(sys.argv[1]))
PATTERNS = [(p.n, p.adj) for p in map(pattern_graph, ("K1_3", "P5", "Z2", "C4", "B", "2K2"))]


def rows(n, p=None):
    p = rng.random() if p is None else p
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


def some_patterns():
    return rng.sample(PATTERNS, rng.randrange(0, 3))


NOT_INTS = [1.5, "3", None, [1], (), b"1", object()]


def bad_row(n):
    return rng.choice([
        -1,
        -(2 ** rng.randrange(1, 90)),
        1 << rng.randrange(n, 90),
        (1 << n) | rng.getrandbits(max(n, 1)),
        2 ** 64,
        rng.choice(NOT_INTS),
    ])


def corrupted(adj, n):
    adj = list(adj)
    adj[rng.randrange(n)] = bad_row(n)
    return adj


class Unsure:
    def __bool__(self):
        raise RuntimeError("no truth value")


def must_reject(fn, *args):
    # a ValueError, and nothing else, for input out of range
    try:
        fn(*args)
    except ValueError:
        return "rejected"
    raise AssertionError(f"accepted {fn.__name__}{args!r}")


def may_reject(fn, *args):
    # odd but well-typed input is answered; malformed input raises
    try:
        fn(*args)
        return "answered"
    except (ValueError, TypeError, RuntimeError):
        return "rejected"


class Boom(Exception):
    pass


def tally_of(cases, count):
    tally = {}
    for i in range(count):
        outcome = cases[i % len(cases)]()
        tally[outcome] = tally.get(outcome, 0) + 1
    return tally
"""

MALFORMED = PRELUDE + r"""
def canon_case():
    n = rng.randrange(1, 65)
    adj = rows(n)
    kind = rng.randrange(4)
    if kind == 0:
        return must_reject(_augment.canon_form, rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70)]), adj)
    if kind == 1:
        return must_reject(_augment.canon_form, n, corrupted(adj, n))
    if kind == 2:
        return must_reject(_augment.canon_form, n, adj[:-1] if rng.random() < 0.5 else adj + (0,))
    # loops and one-sided rows are within range: answered, not crashed
    odd = [row | rng.getrandbits(n) & rng.getrandbits(n) for row in adj]
    bad = rng.choice([None, 1.5, "3", n])
    return may_reject(_augment.canon_form, rng.choice([n, bad]), rng.choice([odd, odd, 7, None]))


def augment_case():
    m = rng.randrange(0, 9)
    adj = rows(m)
    pats = some_patterns()
    a = rng.randrange(0, 5)
    conn = rng.random() < 0.5
    kind = rng.randrange(7)
    if kind == 0:
        return must_reject(_augment.augment, rng.choice([-1, 64, 65, 2 ** 70]), adj, pats, a, conn)
    if kind == 1 and m:
        return must_reject(_augment.augment, m, corrupted(adj, m), pats, a, conn)
    if kind == 2:
        pn = rng.randrange(17, 40)
        return must_reject(_augment.augment, m, adj, pats + [(pn, (0,) * pn)], a, conn)
    if kind == 3:
        pn, padj = rng.choice(PATTERNS)
        return must_reject(_augment.augment, m, adj, pats + [(pn, corrupted(padj, pn))], a, conn)
    if kind == 4:
        return must_reject(_augment.augment, m, adj, pats, rng.choice([-1, -5, -(2 ** 70)]), conn)
    if kind == 5:
        # well-typed oddities: loops, one-sided rows, huge min_alpha
        odd = tuple(row | rng.getrandbits(m) & rng.getrandbits(m) for row in adj)
        return may_reject(_augment.augment, m, odd, pats, rng.choice([a, 2 ** 70]), conn)
    junk = [None, 1.5, "x", [(3, (1, 2))], [(2, (2, 1), 0)], [[2, (2, 1)]], [(2, (1, 1))], Unsure()]
    args = [m, adj, pats, a, conn]
    args[rng.randrange(5)] = rng.choice(junk)
    call = rng.choice([args, args[:4], args + [0]])
    return may_reject(_augment.augment, *call)


print(json.dumps(tally_of([augment_case, canon_case], 3000)))
"""

PREDICATES_MALFORMED = PRELUDE + r"""
def predicate_case():
    n = rng.randrange(0, 13)
    adj = rows(n)
    name = rng.choice(["max_clique", "color_with", "induced_cycles"])
    fn = getattr(_augment, name)
    extra = {
        "max_clique": [],
        "color_with": [rng.randrange(-2, n + 3)],
        "induced_cycles": [rng.randrange(0, 8), rng.randrange(0, n + 2), lambda cycle: None],
    }[name]
    kind = rng.randrange(6)
    if kind == 0:
        return must_reject(fn, rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)]), adj, *extra)
    if kind == 1 and n:
        return must_reject(fn, n, corrupted(adj, n), *extra)
    if kind == 2:
        return must_reject(fn, n, adj[:-1] if n and rng.random() < 0.5 else adj + (0,), *extra)
    if kind == 3 and extra:
        bad = list(extra)
        bad[rng.randrange(min(len(extra), 2))] = rng.choice(NOT_INTS)
        return must_reject(fn, n, adj, *bad)
    if kind == 4 and name == "induced_cycles":
        return visit_case(n, adj)
    # loops and one-sided rows are within range: answered, not crashed
    odd = tuple(row | rng.getrandbits(n) & rng.getrandbits(n) for row in adj) if n else adj
    return may_reject(fn, n, odd, *extra)


def visit_case(n, adj):
    kind = rng.randrange(3)
    if kind == 0:
        # an exception raised in visit ends the search and comes out unchanged
        err, at, seen = Boom(), rng.randrange(1, 4), []

        def visit(cycle):
            seen.append(cycle)
            if len(seen) == at:
                raise err

        try:
            _augment.induced_cycles(n, adj, 3, n, visit)
        except Boom as e:
            assert e is err and len(seen) == at
            return "raised"
        return "answered"
    if kind == 1:
        # a visit that is not callable, or returns a truthy non-int, is a TypeError
        bad_reply = rng.choice([1.5, "x", [1], object()])
        visit = rng.choice([None, 3, "visit", (), object(), lambda cycle: bad_reply])
        try:
            _augment.induced_cycles(n, adj, 3, n, visit)
        except TypeError:
            return "rejected"
        assert callable(visit) and not _augment.induced_cycles(n, adj, 3, n, lambda cycle: True), visit
        return "answered"
    # a visit that runs the search again gets the same nested result
    want = []
    _augment.induced_cycles(n, adj, 3, n, want.append)
    nested = []

    def visit(cycle):
        inner = []
        stopped = _augment.induced_cycles(n, adj, 3, n, inner.append)
        nested.append(stopped is False and inner == want)
        return len(nested) >= 20

    _augment.induced_cycles(n, adj, 3, n, visit)
    assert len(nested) == min(len(want), 20) and all(nested)
    return "nested"


print(json.dumps(tally_of([predicate_case], 3000)))
"""

LONG_RUN = PRELUDE + r"""
def rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


graphs = [rows(rng.randrange(6, 13)) for _ in range(500)]
parents = [_augment.canon_form(len(g), g)[0] for g in graphs]
configs = [(some_patterns(), rng.randrange(0, 4), rng.random() < 0.5) for _ in range(500)]


def raising(cycle):
    raise Boom(cycle)


def run(canon_calls, augment_calls, predicate_calls):
    for i in range(canon_calls):
        g = graphs[i % len(graphs)]
        _augment.canon_form(len(g), g)
    for i in range(augment_calls):
        p = parents[i % len(parents)]
        pats, a, conn = configs[i % len(configs)]
        _augment.augment(len(p), p, pats, a, conn)
        try:
            _augment.augment(len(p), p + (1,), pats, a, conn)
        except ValueError:
            pass
    for i in range(predicate_calls):
        g = graphs[i % len(graphs)]
        n = len(g)
        omega = _augment.max_clique(n, g).bit_count()
        _augment.color_with(n, g, omega)
        _augment.color_with(n, g, omega - 1)
        cycles = []
        _augment.induced_cycles(n, g, 3, n, cycles.append)
        try:
            _augment.induced_cycles(n, g, 3, n, raising)
        except Boom:
            pass
        try:
            _augment.color_with(n, g + (1,), omega)
        except ValueError:
            pass


run(10_000, 1_000, 1_000)
before = rss_kib()
run(100_000, 10_000, 10_000)
print(json.dumps({"before_kib": before, "growth_kib": rss_kib() - before}))
"""


def run_child(script, seed):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(seed)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_malformed_input_is_rejected_not_crashed():
    # n outside 0..64, rows negative, not ints or too wide, patterns over 16
    # vertices and negative min_alpha raise ValueError; the rest of the
    # malformed calls raise and the well-typed odd ones are answered
    tally = run_child(MALFORMED, 20261018)
    assert tally["rejected"] > 2000 and tally["answered"] > 100, tally


def test_predicates_reject_malformed_input_and_keep_visit_errors():
    # n outside 0..64, a wrong row count, a row bit >= n and a non-int row,
    # k or length raise ValueError; an exception raised in visit comes out
    # unchanged, a visit that is not callable or returns a truthy non-int
    # raises TypeError, and a visit that searches again gets the same
    # nested result
    tally = run_child(PREDICATES_MALFORMED, 20261019)
    assert tally["rejected"] > 1500 and tally["answered"] > 300, tally
    assert tally["raised"] > 20 and tally["nested"] > 20, tally


def test_long_runs_keep_memory_flat():
    # 100k canon_form and 10k augment calls (plus 10k rejected ones), and
    # 10k rounds of the predicates (a clique, two colourings, a full cycle
    # search, a search whose visit raises and a rejected call) on 6-12
    # vertex graphs after warm-up: the peak RSS grows by at most 1 MiB
    out = run_child(LONG_RUN, 7)
    assert out["growth_kib"] <= 1024, out
