"""The compiled backend's entry points under bad input, long runs and the
undefined-behaviour sanitizer.

Each check runs in a child process, so a crash fails the test instead of
ending the session.  Every entry takes ints and rows and returns values;
none takes a callable.  Its agreement with the pure code is checked in
``test_kernels.py`` (``canon_form``, ``max_clique``, ``color_with``,
``induced_cycles``, ``odd_hole``, ``graph6`` and ``first_embedding``
against their ``pure_`` entries), ``test_verify.py`` (``flag_level``) and
``test_enumeration.py`` (``augment`` against ``pure_augment``).
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from clawlab import kernels

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(kernels.BACKEND != "c", reason="clawlab._augment did not build")

# Shared by both child scripts: seeded rows of graphs and patterns.
PRELUDE = r"""
import json, random, resource, sys
from clawlab import _augment
from clawlab.kernels import obstruction_plans
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


def some_plans():
    return obstruction_plans(rng.sample(PATTERNS, rng.randrange(0, 3)))


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


def must_reject(fn, field, *args):
    # a ValueError about the field under test, and nothing else, for input
    # out of range
    try:
        fn(*args)
    except ValueError as e:
        assert str(e).startswith(field), (field, str(e), fn.__name__, args)
        return "rejected"
    raise AssertionError(f"accepted {fn.__name__}{args!r}")


def may_reject(fn, *args):
    # odd but well-typed input is answered; malformed input raises
    try:
        fn(*args)
        return "answered"
    except (ValueError, TypeError, RuntimeError):
        return "rejected"


def tally_of(name, cases, count):
    # each tally draws from its own seed, so adding or removing one leaves
    # the inputs of the others as they were
    rng.seed(f"{sys.argv[1]}:{name}")
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
        return must_reject(_augment.canon_form, "n must", rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70)]), adj)
    if kind == 1:
        return must_reject(_augment.canon_form, "adj row", n, corrupted(adj, n))
    if kind == 2:
        return must_reject(_augment.canon_form, "adj must hold", n, adj[:-1] if rng.random() < 0.5 else adj + (0,))
    # loops and one-sided rows are within range: answered, not crashed
    odd = [row | rng.getrandbits(n) & rng.getrandbits(n) for row in adj]
    bad = rng.choice([None, 1.5, "3", n])
    return may_reject(_augment.canon_form, rng.choice([n, bad]), rng.choice([odd, odd, 7, None]))


def graph6_case():
    n = rng.randrange(0, 65)
    adj = rows(n)
    kind = rng.randrange(4)
    if kind == 0:
        bad_n = rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)])
        return must_reject(_augment.graph6, "n must", bad_n, adj)
    if kind == 1 and n:
        return must_reject(_augment.graph6, "adj row", n, corrupted(adj, n))
    if kind == 2:
        return must_reject(_augment.graph6, "adj must hold", n, adj[:-1] if n and rng.random() < 0.5 else adj + (0,))
    # loops and one-sided rows are within range: answered, not crashed
    odd = tuple(row | rng.getrandbits(n) & rng.getrandbits(n) for row in adj) if n else adj
    bad = rng.choice([None, 1.5, "3", n])
    return may_reject(_augment.graph6, rng.choice([n, bad]), rng.choice([odd, odd, 7, None]))


def random_plan(k):
    # a well-formed plan on k positions, seldom one a pattern gives
    return (
        tuple(rng.randrange(0, 17) for t in range(k)),
        tuple(tuple(s for s in range(t) if rng.random() < 0.4) for t in range(k)),
        tuple(tuple(s for s in range(t) if rng.random() < 0.4) for t in range(k)),
        tuple(rng.randrange(-1, t) for t in range(k)),
        tuple(rng.random() < 0.5 for t in range(k)),
    )


def broken_plan(most=15):
    # a plan with one defect, and the start of the message it must get; a
    # plan may hold at most `most` positions
    k = rng.randrange(1, most + 1)
    plan = list(random_plan(k))
    t = rng.randrange(k)
    kind = rng.randrange(8)
    if kind == 0:
        return random_plan(rng.randrange(most + 1, 40)), "plan positions"
    if kind == 1:
        degs = list(plan[0])
        degs[t] = rng.choice([17, 18, 2 ** 70, -1, -(2 ** 70), rng.choice(NOT_INTS)])
        plan[0], field = tuple(degs), "plan degree"
    elif kind == 2:
        # an up or down position that is not earlier than its own
        f = rng.choice([1, 2])
        positions = list(plan[f])
        extra = rng.choice([t, t + 1, 15, 16, 2 ** 70, -1, -(2 ** 70), rng.choice(NOT_INTS)])
        positions[t] += (extra,)
        plan[f], field = tuple(positions), ("plan up position", "plan down position")[f - 1]
    elif kind == 3:
        after = list(plan[3])
        after[t] = rng.choice([t, t + 1, 15, -2, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)])
        plan[3], field = tuple(after), "plan after position"
    elif kind == 4:
        near = list(plan[4])
        near[t] = rng.choice([2, -1, 2 ** 70, rng.choice(NOT_INTS)])
        plan[4], field = tuple(near), "plan near flag"
    elif kind == 5:
        f = rng.randrange(5)
        plan[f] = plan[f][:-1] if rng.random() < 0.5 else plan[f] + plan[f][:1]
        field = "plan fields"
    elif kind == 6:
        f = rng.randrange(5)
        plan[f], field = rng.choice([list(plan[f]), None, 3, "abc"]), "plan fields"
    else:
        # one position's ups or downs not a tuple
        f = rng.choice([1, 2])
        positions = list(plan[f])
        positions[t] = rng.choice([list(positions[t]), None, 3, {0}])
        plan[f], field = tuple(positions), ("plan up position", "plan down position")[f - 1]
    if rng.random() < 0.1:
        # the plan itself not a 5-tuple
        return rng.choice([plan, tuple(plan[:4]), (*plan, ()), None, 5]), "plan must"
    return tuple(plan), field


def augment_case():
    m = rng.randrange(0, 9)
    parents = [rows(m) for _ in range(rng.randrange(1, 4))]
    plans = some_plans()
    a = rng.randrange(0, 5)
    conn = rng.random() < 0.5
    i = rng.randrange(len(parents))
    kind = rng.randrange(10)
    if kind == 0:
        m = rng.choice([-1, 64, 65, 2 ** 70, rng.choice(NOT_INTS)])
        return must_reject(_augment.augment, "m must", m, parents, plans, a, conn)
    if kind == 1 and m:
        parents[i] = corrupted(parents[i], m)
        return must_reject(_augment.augment, "parent row", m, parents, plans, a, conn)
    if kind == 2:
        # a parent with the wrong row count, or not a sequence
        wrong = rng.choice([parents[i][:-1] if m else (0,), parents[i] + (0,), None, 3])
        parents[i] = wrong
        return must_reject(_augment.augment, "parent must", m, parents, plans, a, conn)
    if kind == 3:
        return must_reject(_augment.augment, "parents must", m, rng.choice([None, 3, 1.5]), plans, a, conn)
    if kind == 4:
        return must_reject(_augment.augment, "min_alpha", m, parents, plans, rng.choice([-1, -5, -(2 ** 70)]), conn)
    if kind == 5:
        return must_reject(_augment.augment, "plans must", m, parents, rng.choice([list(plans), None, 3]), a, conn)
    if kind == 6:
        plan, field = broken_plan()
        at = rng.randrange(len(plans) + 1)
        return must_reject(_augment.augment, field, m, parents, plans[:at] + (plan,) + plans[at:], a, conn)
    if kind == 7:
        # well-formed plans a pattern never gives are answered
        plans = tuple(random_plan(rng.randrange(0, 16)) for _ in range(rng.randrange(1, 4)))
        _augment.augment(m, parents, plans, a, conn)
        return "answered"
    if kind == 8:
        # well-typed oddities: loops, one-sided rows, huge min_alpha
        odd = [tuple(row | rng.getrandbits(m) & rng.getrandbits(m) for row in p) for p in parents]
        return may_reject(_augment.augment, m, odd, plans, rng.choice([a, 2 ** 70]), conn)
    junk = [None, 1.5, "x", [(3, (1, 2))], [[2, (2, 1)]], ((2, 1),), Unsure()]
    args = [m, parents, plans, a, conn]
    args[rng.randrange(5)] = rng.choice(junk)
    call = rng.choice([args, args[:4], args + [0]])
    return may_reject(_augment.augment, *call)


def flag_level_case():
    # up to 64 vertices for the rejected calls, whose good graphs are
    # edgeless past 12 vertices (the screens grow with n), and up to 12 for
    # the answered ones
    kind = rng.randrange(6)
    n = rng.randrange(0, 65 if kind < 4 else 13)
    level = [rows(n, None if n < 13 else 0.0) for _ in range(rng.randrange(1, 4))]
    test = rng.randrange(2)
    i = rng.randrange(len(level))
    fn = _augment.flag_level
    if kind == 0:
        return must_reject(fn, "n must", rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)]), level, test)
    if kind == 1 and n:
        level[i] = corrupted(level[i], n)
        return must_reject(fn, "graph row", n, level, test)
    if kind == 2:
        # a graph with the wrong row count, or not a sequence
        level[i] = rng.choice([level[i][:-1] if n else (0,), level[i] + (0,), None, 3])
        return must_reject(fn, "graph must", n, level, test)
    if kind == 3:
        if rng.random() < 0.5:
            return must_reject(fn, "level must", n, rng.choice([None, 3, 1.5]), test)
        return must_reject(fn, "test must", n, level, rng.choice([-1, 2, 3, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)]))
    # loops and one-sided rows are within range: answered, not crashed
    odd = [tuple(row | rng.getrandbits(n) & rng.getrandbits(n) for row in g) if n else g for g in level]
    if kind == 4:
        fn(n, odd, test)
        return "answered"
    args = [rng.choice([n, None, 1.5]), rng.choice([odd, 7, None]), rng.choice([test, None, "0"])]
    return may_reject(fn, *rng.choice([args, args[:2], args + [0]]))


def first_embedding_case():
    # up to 64 vertices for the rejected calls, whose good graphs are
    # edgeless past 12 vertices, and up to 12 for the answered ones; a plan
    # of up to 16 positions, the whole pattern's at the kernel bound
    kind = rng.randrange(6)
    n = rng.randrange(0, 65 if kind < 4 else 13)
    adj = rows(n, None if n < 13 else 0.0)
    plan = random_plan(rng.randrange(0, 17))
    fn = _augment.first_embedding
    if kind == 0:
        return must_reject(fn, "n must", rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)]), adj, plan)
    if kind == 1 and n:
        return must_reject(fn, "adj row", n, corrupted(adj, n), plan)
    if kind == 2:
        return must_reject(fn, "adj must hold", n, adj[:-1] if n and rng.random() < 0.5 else adj + (0,), plan)
    if kind == 3:
        bad, field = broken_plan(16)
        return must_reject(fn, field, n, adj, bad)
    # loops and one-sided rows are within range: answered, not crashed
    odd = tuple(row | rng.getrandbits(n) & rng.getrandbits(n) for row in adj) if n else adj
    if kind == 4:
        fn(n, odd, plan)
        return "answered"
    args = [rng.choice([n, None, 1.5]), rng.choice([odd, 7, None]), rng.choice([plan, None, [plan]])]
    return may_reject(fn, *rng.choice([args, args[:2], args + [0]]))


print(json.dumps({
    "augment_canon": tally_of("augment_canon", [augment_case, canon_case], 3000),
    "graph6": tally_of("graph6", [graph6_case], 1500),
    "flag_level": tally_of("flag_level", [flag_level_case], 1500),
    "first_embedding": tally_of("first_embedding", [first_embedding_case], 1500),
}))
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
        "induced_cycles": [rng.randrange(0, 8), rng.randrange(0, n + 2)],
    }[name]
    kind = rng.randrange(6)
    if kind == 0:
        return must_reject(fn, "n must", rng.choice([-1, 65, 66, 2 ** 70, -(2 ** 70), rng.choice(NOT_INTS)]), adj, *extra)
    if kind == 1 and n:
        return must_reject(fn, "adj row", n, corrupted(adj, n), *extra)
    if kind == 2:
        return must_reject(fn, "adj must hold", n, adj[:-1] if n and rng.random() < 0.5 else adj + (0,), *extra)
    if kind == 3 and extra:
        bad = list(extra)
        junk = rng.choice(NOT_INTS)
        at = rng.randrange(min(len(extra), 2))
        bad[at] = junk
        field = {"color_with": ("k",), "induced_cycles": ("min_len", "max_len")}[name][at]
        return must_reject(fn, field + " must", n, adj, *bad)
    # loops and one-sided rows are within range: answered, not crashed
    odd = tuple(row | rng.getrandbits(n) & rng.getrandbits(n) for row in adj) if n else adj
    return may_reject(fn, n, odd, *extra)


print(json.dumps(tally_of("predicates", [predicate_case], 3000)))
"""

LONG_RUN = PRELUDE + r"""
from clawlab.kernels import _search_plans


def rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


graphs = [rows(rng.randrange(6, 13)) for _ in range(500)]
parents = [_augment.canon_form(len(g), g)[0] for g in graphs]
configs = [(some_plans(), rng.randrange(0, 4), rng.random() < 0.5) for _ in range(500)]
# after[1] is not earlier than position 1
BAD_PLAN = ((0, 0), ((), ()), ((), ()), (-1, 1), (0, 0))
WHOLE_PLANS = [_search_plans(pn, padj)[0] for pn, padj in PATTERNS]


def run(canon_calls, augment_calls, predicate_calls):
    for i in range(canon_calls):
        g = graphs[i % len(graphs)]
        _augment.canon_form(len(g), g)
    for i in range(augment_calls):
        p = parents[i % len(parents)]
        plans, a, conn = configs[i % len(configs)]
        _augment.augment(len(p), [p], plans, a, conn)
        # rejected: a bad parent after a good one, or a bad plan
        bad = ([p, p + (1,)], plans) if i % 2 else ([p], plans + (BAD_PLAN,))
        try:
            _augment.augment(len(p), *bad, a, conn)
        except ValueError:
            pass
    for i in range(predicate_calls):
        g = graphs[i % len(graphs)]
        n = len(g)
        omega = _augment.max_clique(n, g).bit_count()
        _augment.max_clique(n, g, True)
        _augment.color_with(n, g, omega)
        _augment.color_with(n, g, omega - 1)
        _augment.induced_cycles(n, g, 3, n)
        _augment.flag_level(n, [g, g], i % 2)
        _augment.odd_hole(n, g, False)
        _augment.odd_hole(n, g, True)
        _augment.graph6(n, g)
        _augment.first_embedding(n, g, WHOLE_PLANS[i % len(WHOLE_PLANS)])
        try:
            _augment.color_with(n, g + (1,), omega)
        except ValueError:
            pass
        try:
            _augment.first_embedding(n, g, BAD_PLAN)
        except ValueError:
            pass
        try:
            _augment.graph6(n, g[:-1])
        except ValueError:
            pass


run(10_000, 1_000, 1_000)
before = rss_kib()
run(100_000, 10_000, 10_000)
print(json.dumps({"before_kib": before, "growth_kib": rss_kib() - before}))
"""

# The module built with the undefined-behaviour sanitizer (its path is the
# second argument) against the pure references, on seeded inputs: a
# one-vertex pattern, whose pair has S = 0, and m = 0 among them.
SANITIZED = PRELUDE + r"""
import importlib.machinery
import importlib.util
from clawlab import kernels

loader = importlib.machinery.ExtensionFileLoader("_augment", sys.argv[2])
ub = importlib.util.module_from_spec(importlib.util.spec_from_loader("_augment", loader))
loader.exec_module(ub)
K1 = [(1, (0,))]
for _ in range(300):
    n = rng.randrange(0, 13)
    adj = rows(n)
    assert ub.canon_form(n, adj) == kernels.pure_canon_form(n, adj), adj
    assert ub.graph6(n, adj) == kernels.pure_graph6(n, adj), adj
    for complement in (False, True):
        assert ub.max_clique(n, adj, complement) == kernels.pure_max_clique(n, adj, complement), adj
        assert ub.odd_hole(n, adj, complement) == kernels.pure_odd_hole(n, adj, complement), adj
    k = rng.randrange(-1, n + 2)
    assert ub.color_with(n, adj, k) == kernels.pure_color_with(n, adj, k), (adj, k)
    lo, hi = rng.randrange(0, 8), rng.randrange(0, n + 2)
    assert ub.induced_cycles(n, adj, lo, hi) == kernels.pure_induced_cycles(n, adj, lo, hi), adj
    level = [adj, rows(n)]
    for test in (0, 1):
        assert ub.flag_level(n, level, test) == kernels.pure_flag_level(n, level, test), level
calls = 0
for m in range(8):
    for i in range(8):
        parents = sorted({kernels.pure_canon_form(m, rows(m))[0] for _ in range(rng.randrange(1, 3))})
        plans = obstruction_plans(rng.sample(PATTERNS, rng.randrange(0, 3)) + (K1 if i == 0 else []))
        for a, connected in ((rng.randrange(0, 4), False), (rng.randrange(0, 4), True)):
            want = kernels.pure_augment(m, parents, plans, a, connected)
            assert ub.augment(m, parents, plans, a, connected) == want, (m, parents, a, connected)
            calls += 1
# both plan orders of each pattern and of a random one of up to 16
# vertices, the kernel bound
searches = 0
for _ in range(100):
    n = rng.randrange(0, 13)
    adj = rows(n)
    big = rows(rng.randrange(0, 17))
    for pn, padj in (*PATTERNS, (len(big), big)):
        for plan in (kernels._search_plans(pn, padj)[0], kernels._plan(padj, tuple(range(pn)))):
            assert ub.first_embedding(n, adj, plan) == kernels.pure_first_embedding(n, adj, plan), (adj, padj)
            searches += 1
try:
    ub.first_embedding(2, (2, 1), ((0, 0), ((), ()), ((), ()), (-1, 1), (0, 0)))
except ValueError:
    pass
else:
    raise AssertionError("a plan whose after[1] is 1 was taken")
print(json.dumps({"augment_calls": calls, "first_embedding_calls": searches}))
"""


def run_child(script, seed, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(seed), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_malformed_input_is_rejected_not_crashed():
    # n or m out of range, rows negative, not ints or too wide, a wrong row
    # count, parents or plans of the wrong type, a plan of unequal fields,
    # over 15 positions, a degree over 16 or a position not earlier than
    # its own, and negative min_alpha raise ValueError about that field,
    # in augment, canon_form, graph6, flag_level and first_embedding (each
    # of the last three with its own tally; each tally has its own seed;
    # flag_level also rejects a level that is not a sequence and a test
    # other than 0 or 1, and first_embedding takes one plan of up to 16
    # positions); the rest of the
    # malformed calls raise, and the well-typed odd ones (loops and
    # one-sided rows among them) and well-formed plans no pattern gives
    # are answered
    tally = run_child(MALFORMED, 20261018)
    pair, g6 = tally["augment_canon"], tally["graph6"]
    assert pair["rejected"] > 2000 and pair["answered"] > 100, tally
    assert g6["rejected"] > 1200 and g6["answered"] > 80, tally
    flags = tally["flag_level"]
    assert flags["rejected"] > 1000 and flags["answered"] > 200, tally
    firsts = tally["first_embedding"]
    assert firsts["rejected"] > 1000 and firsts["answered"] > 200, tally


def test_predicates_reject_malformed_input_and_keep_visit_errors():
    # n outside 0..64, a wrong row count, a row bit >= n and a non-int row,
    # k or length raise ValueError, and well-typed odd calls (loops and
    # one-sided rows) are answered
    tally = run_child(PREDICATES_MALFORMED, 20261019)
    assert tally["rejected"] > 1500 and tally["answered"] > 300, tally


def test_long_runs_keep_memory_flat():
    # 100k canon_form and 10k augment calls (plus 10k rejected ones, by a
    # bad parent after a good one or by a bad plan), and 10k rounds of the
    # predicates (a clique and an independent set, two colourings, a full
    # cycle search, one level screen of two graphs, each test in turn, the
    # odd hole and odd antihole searches, a graph6 string, one first
    # embedding of a whole pattern and three rejected calls, one of them a
    # first embedding with a bad plan) on 6-12 vertex graphs after
    # warm-up: the peak RSS grows by at most 1 MiB
    out = run_child(LONG_RUN, 7)
    assert out["growth_kib"] <= 1024, out


def test_sanitized_build_matches_pure(tmp_path):
    # _augment.c built with -fsanitize=undefined -fno-sanitize-recover=all,
    # so any undefined behaviour on the way (clz of zero, a shift past the
    # word, a signed overflow) ends the child with the sanitizer's report;
    # its nine entries give the pure references' answers, and a bad plan is
    # rejected
    include = Path(sysconfig.get_paths()["include"])
    gcc = shutil.which("gcc")
    if gcc is None or not (include / "Python.h").exists():
        pytest.skip("gcc or the Python headers are missing")
    ubsan = subprocess.run([gcc, "-print-file-name=libubsan.so"], capture_output=True, text=True).stdout.strip()
    if not Path(ubsan).is_absolute():
        pytest.skip("libubsan is missing")
    built = tmp_path / f"_augment{sysconfig.get_config_var('EXT_SUFFIX')}"
    flags = ["-shared", "-fPIC", "-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all", f"-I{include}"]
    source = ROOT / "src" / "clawlab" / "_augment.c"
    proc = subprocess.run([gcc, *flags, str(source), "-o", str(built)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert run_child(SANITIZED, 20261020, str(built)) == {"augment_calls": 128, "first_embedding_calls": 1400}
