"""Seeded inputs for the three benchmark workloads, with their oracle answers.

Every expected answer is known by construction, by a closed form, or by a
small brute-force checker in this file.  Nothing here calls the solver under
test, so a wrong verdict from `cqc` cannot hide in its own oracle.
"""

import random


class Struct:
    """A finite relational structure: universe 0..size-1 and named relations."""

    __slots__ = ("size", "rels")

    def __init__(self, size, rels):
        self.size = size
        self.rels = rels  # name -> (arity, list of tuples)

    def text(self):
        out = [f"size {self.size}"]
        for name, (arity, _) in self.rels.items():
            out.append(f"rel {name} {arity}")
        for name, (_, tuples) in self.rels.items():
            out.extend(f"{name} " + " ".join(map(str, t)) for t in tuples)
        return "\n".join(out) + "\n"

    def facts(self):
        return sum(len(ts) for _, ts in self.rels.values())


def graph(n, edges, symmetric=True):
    tuples = set()
    for u, v in edges:
        tuples.add((u, v))
        if symmetric:
            tuples.add((v, u))
    return Struct(n, {"E": (2, sorted(tuples))})


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def tournament(k):
    """Transitive tournament T_k: i -> j for i < j (a DAG)."""
    return graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)], symmetric=False)


def random_tree_edges(rng, n):
    return [(rng.randrange(v), v) for v in range(1, n)]


def relabel(rng, s):
    """The same structure under a random permutation of its universe."""
    perm = list(range(s.size))
    rng.shuffle(perm)
    rels = {
        name: (arity, sorted(tuple(perm[x] for x in t) for t in tuples))
        for name, (arity, tuples) in s.rels.items()
    }
    return Struct(s.size, rels)


def hom_checker(a, b):
    """A fast repeated witness check for one (A, B) pair."""
    allowed = {name: set(ts) for name, (_, ts) in b.rels.items()}
    facts = [(allowed.get(name, set()), ts) for name, (_, ts) in a.rels.items()]

    def check(h):
        if len(h) != a.size or any(not 0 <= x < b.size for x in h):
            return False
        return all(tuple(h[x] for x in t) in ok for ok, ts in facts for t in ts)

    return check


# --------------------------------------------------------------------------
# Brute-force oracles (small instances only)


def colourable(n, edges, k):
    """Is the undirected graph k-colourable?  Backtracking with forward
    checking and most-constrained-first ordering."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            return False
        adj[u].add(v)
        adj[v].add(u)
    full = (1 << k) - 1
    domain = [full] * n
    colour = [-1] * n

    def pick():
        best, best_count = -1, k + 1
        for v in range(n):
            if colour[v] < 0:
                c = bin(domain[v]).count("1")
                if c < best_count:
                    best, best_count = v, c
        return best

    def go():
        v = pick()
        if v < 0:
            return True
        d = domain[v]
        while d:
            bit = d & -d
            d ^= bit
            changed = []
            ok = True
            for w in adj[v]:
                if colour[w] < 0 and domain[w] & bit:
                    domain[w] ^= bit
                    changed.append(w)
                    if domain[w] == 0:
                        ok = False
                        break
            if ok:
                colour[v] = bit
                if go():
                    return True
                colour[v] = -1
            for w in changed:
                domain[w] |= bit
        return False

    return go()


def longest_dag_path(n, edges):
    """Edges of the longest directed path, or None when there is a cycle."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    depth = [0] * n
    for u in order:
        for v in succ[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return max(depth) if len(order) == n else None


def cq_contained(q1, q2):
    """Chandra-Merlin: Q1 <= Q2 iff a homomorphism maps Q2's body into Q1's
    body and Q2's head onto Q1's head.  Queries are (head vars, atoms)."""
    head1, atoms1 = q1
    head2, atoms2 = q2
    if len(head1) != len(head2):
        return False
    facts = {}
    for pred, args in atoms1:
        facts.setdefault(pred, set()).add(args)
    binding = {}
    for x, y in zip(head2, head1):
        if binding.setdefault(x, y) != y:
            return False
    atoms = sorted(atoms2, key=lambda at: -len(set(at[1])))

    def go(i):
        if i == len(atoms):
            return True
        pred, args = atoms[i]
        for fact in facts.get(pred, ()):
            added = []
            ok = True
            for x, y in zip(args, fact):
                bound = binding.get(x)
                if bound is None:
                    binding[x] = y
                    added.append(x)
                elif bound != y:
                    ok = False
                    break
            if ok and go(i + 1):
                return True
            for x in added:
                del binding[x]
        return False

    return go(0)


def cq_text(q):
    head, atoms = q
    body = ", ".join(f"{p}({','.join(args)})" for p, args in atoms)
    return f"Q({','.join(head)}) :- {body}."


# --------------------------------------------------------------------------
# Instance families


def boolean_target(kind):
    """Boolean targets: Horn (T, F, I, H) or bijunctive (T, F, I, O, N)."""
    bits2 = [(x, y) for x in (0, 1) for y in (0, 1)]
    rels = {
        "T": (1, [(1,)]),
        "F": (1, [(0,)]),
        "I": (2, [t for t in bits2 if t != (1, 0)]),
    }
    if kind == "horn":
        bits3 = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        rels["H"] = (3, [t for t in bits3 if t != (1, 1, 0)])
    else:
        rels["O"] = (2, [t for t in bits2 if t != (0, 0)])
        rels["N"] = (2, [t for t in bits2 if t != (1, 1)])
    return Struct(2, rels)


def boolean_source(rng, kind, n, clauses, sat):
    """A CNF over a Horn or bijunctive target.  Satisfiable instances keep
    only clauses a planted assignment satisfies; unsatisfiable ones embed a
    forcing chain that ends in a contradiction, hidden among random clauses."""
    target = boolean_target(kind)
    allowed = {name: set(ts) for name, (_, ts) in target.rels.items()}
    plant = [rng.randrange(2) for _ in range(n)]
    names = [name for name in target.rels if name not in ("T", "F")]
    facts = {name: set() for name in target.rels}
    while sum(len(f) for f in facts.values()) < clauses:
        name = rng.choice(names)
        arity = target.rels[name][0]
        t = tuple(rng.sample(range(n), arity))
        if tuple(plant[x] for x in t) in allowed[name]:
            facts[name].add(t)
    for _ in range(max(1, n // 8)):
        x = rng.randrange(n)
        facts["T" if plant[x] else "F"].add((x,))
    if not sat:
        # x0 is forced true, a chain of implications forces the last link
        # true, and a final clause forbids it.
        chain = rng.sample(range(n), max(3, n // 6))
        facts["T"].add((chain[0],))
        facts["F"].discard((chain[0],))
        for u, v in zip(chain, chain[1:]):
            facts["I"].add((u, v))
        facts["F"].add((chain[-1],))
        facts["T"].discard((chain[-1],))
    rels = {name: (target.rels[name][0], sorted(ts)) for name, ts in facts.items()}
    return Struct(n, rels), target


def partial_ktree(rng, n, k, keep):
    cliques = [tuple(range(k))]
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for v in range(k, n):
        base = rng.choice(cliques)
        edges.extend((u, v) for u in base)
        for drop in range(k):
            cliques.append(tuple(x for i, x in enumerate(base) if i != drop) + (v,))
    return [e for e in edges if rng.random() < keep]


def blown_cycle(m, copies):
    """E19's dominated blow-up of C_m: each vertex becomes copies+1 twins."""
    cls = copies + 1
    edges = []
    for i in range(m):
        j = (i + 1) % m
        for c in range(cls):
            for d in range(cls):
                edges.append((i * cls + c, j * cls + d))
    return graph(m * cls, edges)


def random_cq(rng, variables, atoms):
    names = [f"X{i}" for i in range(variables)]
    body = set()
    while len(body) < atoms:
        pred = rng.choice("EER")
        body.add((pred, (rng.choice(names), rng.choice(names))))
    body = sorted(body)
    used = sorted({x for _, args in body for x in args})
    return ((rng.choice(used),), body)


def cq_pair(rng, variables, atoms):
    """A containment pair: either Q2 is a renamed sub-body of Q1 (contained
    by construction) or an independent random query (checked by brute
    force)."""
    q1 = random_cq(rng, variables, atoms)
    if rng.random() < 0.5:
        head, body = q1
        keep = [at for at in body if at[1][0] == head[0] or at[1][1] == head[0]][:1]
        keep += rng.sample(body, rng.randint(1, len(body) - 1))
        names = sorted({x for _, args in keep for x in args} | set(head))
        fresh = dict(zip(names, [f"Y{i}" for i in rng.sample(range(len(names)), len(names))]))
        q2 = ((fresh[head[0]],), sorted({(p, tuple(fresh[x] for x in args)) for p, args in keep}))
    else:
        q2 = random_cq(rng, variables, max(2, atoms - 2))
    return q1, q2, cq_contained(q1, q2)


def solve_case(family, a, b, expect):
    return {"op": "solve", "family": family, "a": a, "b": b, "expect": expect}


# Sizes per scale.  "tiny" keeps every family but shrinks it, for the
# benchmark's own self-test.
SCALES = {
    "full": {"cycle": 301, "gnp_n": 20, "ktree_n": 60, "tree_n": 120, "bool_n": 120,
             "blow": 3, "dag_n": 14, "cq_atoms": 6},
    "tiny": {"cycle": 21, "gnp_n": 12, "ktree_n": 12, "tree_n": 12, "bool_n": 16,
             "blow": 1, "dag_n": 8, "cq_atoms": 4},
}


def solve_portfolio(seed, scale):
    """The one-shot corpus: cheap polynomial families (most instances, so
    they set the median) and hard ones that fall to search (the tail)."""
    rng = random.Random(seed)
    p = SCALES[scale]
    cases = []
    # Sizes are fixed per instance; the seed only draws shapes and labels,
    # so every seed costs about the same.
    for i in range(6):
        n = p["cycle"] + 16 * i + (i % 2)
        cases.append(solve_case("odd-cycle-k22", relabel(rng, cycle(n)), cycle(4), n % 2 == 0))
        cases.append(solve_case("cycle-k2", relabel(rng, cycle(n + 1)), clique(2), n % 2 == 1))
    for m, k in ((3, 5), (4, 7), (5, 7), (4, 9)):
        cases.append(solve_case("clique-cycle", clique(m), relabel(rng, cycle(k)), False))
    for kind in ("horn", "2sat"):
        for i in range(6):
            n = p["bool_n"]
            a, b = boolean_source(rng, kind, n, 3 * n, sat=i % 2 == 0)
            cases.append(solve_case(kind, a, b, i % 2 == 0))
    for _ in range(4):
        n = p["tree_n"]
        cases.append(solve_case("acyclic-k3", graph(n, random_tree_edges(rng, n)), clique(3), True))
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in random_tree_edges(rng, n)]
        k = rng.randint(4, 7)
        depth = longest_dag_path(n, edges)
        cases.append(solve_case("oriented-tree-tournament", graph(n, edges, symmetric=False),
                                tournament(k), depth <= k - 1))
    for i in range(6):
        n = p["ktree_n"]
        edges = partial_ktree(rng, n, 2 + i % 2, 0.85)
        cases.append(solve_case("ktree-k3", graph(n, edges), clique(3), colourable(n, edges, 3)))
    for i in range(4):
        # Dense digraphs (treewidth above the DP cap) into a tournament:
        # with a directed cycle, arc consistency refutes; without one, a
        # tournament as long as the longest path admits the map.
        n = p["dag_n"]
        order = rng.sample(range(n), n)
        edges = [(order[u], order[v]) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        if i % 2 == 0:
            edges.append((order[-1], order[0]))
            cases.append(solve_case("pebble-dag", graph(n, edges, symmetric=False),
                                    tournament(n - 2), False))
        else:
            depth = longest_dag_path(n, edges)
            cases.append(solve_case("pebble-dag", graph(n, edges, symmetric=False),
                                    tournament(depth + 1), True))
    for copies in range(1, p["blow"] + 1):
        cases.append(solve_case("blowup-c5-c7", relabel(rng, blown_cycle(5, copies)), cycle(7), False))
    # Pigeonhole cliques: deterministic search trees, the corpus's slowest
    # instances, so they (not a lucky random draw) set the tail.
    for m in ((5, 6, 7) if scale == "full" else (4, 5)):
        cases.append(solve_case("clique-pigeonhole", clique(m), clique(m - 1), False))
    # Many mid-sized G(n,p) graphs rather than a few large ones: at n = 22
    # one unlucky draw could cost as much as the rest of the corpus.  Each
    # random family alternates yes and no instances (redrawing until the
    # oracle agrees), so every seed has the same mix of verdicts.
    for i in range(10):
        n = p["gnp_n"]
        prob = 4.4 / n
        while True:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
            if colourable(n, edges, 3) == (i % 2 == 0):
                break
        cases.append(solve_case("gnp-k3", graph(n, edges), clique(3), i % 2 == 0))
    for i in range(10):
        while True:
            q1, q2, expect = cq_pair(rng, 5, p["cq_atoms"])
            if expect == (i % 2 == 0):
                break
        cases.append({"op": "contain", "family": "cq-contain", "q1": cq_text(q1),
                      "q2": cq_text(q2), "expect": expect})
    return cases


def count_enumerate(seed, scale):
    """Paths, trees and cycles into cliques, where the answer counts have
    closed forms, plus a K5-with-tail source that only backtracking
    enumerates.  Count ops outnumber enumerate ops (19 to 11), but the
    enumerate ops, which stream every answer, take most of the CPU."""
    rng = random.Random(seed)
    full = scale == "full"
    cases = []

    def add(op, family, a, b, expect):
        cases.append({"op": op, "family": f"{op}-{family}", "a": a, "b": b, "expect": expect})

    def path_like(q, n):
        return [("path", relabel(rng, path(n)), q * (q - 1) ** (n - 1)),
                ("tree", graph(n, random_tree_edges(rng, n)), q * (q - 1) ** (n - 1)),
                ("cycle", relabel(rng, cycle(n)), (q - 1) ** n + (-1) ** n * (q - 1))]

    # Streamed: 1.6e4 to 4.9e4 answers each.
    for q, n in ((3, 14), (4, 9), (5, 7)):
        for family, a, expect in path_like(q, n if full else 4):
            add("enumerate", family, a, clique(q), expect)
            add("count", family, a, clique(q), expect)
    n = 15 if full else 5
    add("enumerate", "path", relabel(rng, path(n)), clique(3), 3 * 2 ** (n - 1))
    # K5 plus a pendant path of `tail` vertices into K6: 6!/1! * 5^tail.
    tail = 2 if full else 0
    edges = list(clique(5).rels["E"][1]) + [(4 + i, 5 + i) for i in range(tail)]
    a = graph(5 + tail, edges)
    add("enumerate", "k5-tail-backtracking", a, clique(6), 720 * 5 ** tail)
    add("count", "k5-tail-backtracking", a, clique(6), 720 * 5 ** tail)
    # Counted only: answer sets far too large to stream.
    for q, n in ((3, 40), (4, 30), (5, 26)):
        for family, a, expect in path_like(q, n if full else 6):
            add("count", family + "-large", a, clique(q), expect)
    return cases


def complete_bipartite(a, b):
    return graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def serve_cached(seed, scale, requests=3000):
    """A request stream for the daemon.  Templates (the target side) come
    from a pool of 96, more than the daemon's 64-entry cache, drawn with a
    Zipf-like skew so hits, misses and evictions all occur.  Every template
    is a cheap-route target (bipartite, small odd cycle, small tournament)
    whose cache build stays cheap, and sources are small."""
    rng = random.Random(seed)
    pool = [("bipartite", cycle(2 * k)) for k in range(2, 50)]
    pool += [("bipartite", complete_bipartite(a, b)) for a in range(1, 8) for b in range(a, 8)]
    pool += [("odd-cycle", cycle(2 * k + 1)) for k in range(2, 10)]
    pool += [("tournament", tournament(k)) for k in range(3, 15)]
    # The popularity order is fixed, not drawn from the seed, so every
    # seed has the same hot set and the same mix of ops.
    random.Random(0).shuffle(pool)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    n_lo, n_hi = (6, 20) if scale == "full" else (4, 8)
    contain_pairs = [cq_pair(rng, 4, 4) for _ in range(24)]
    if scale != "full":
        requests = 120
    cases = []
    for _ in range(requests):
        roll = rng.random()
        if roll < 0.15:
            q1, q2, expect = rng.choice(contain_pairs)
            cases.append({"op": "contain", "q1": cq_text(q1), "q2": cq_text(q2), "expect": expect})
            continue
        kind, b = rng.choices(pool, weights)[0]
        n = rng.randint(n_lo, n_hi)
        if kind == "tournament":
            edges = [(u, v) if rng.random() < 0.7 else (v, u) for u, v in random_tree_edges(rng, n)]
            a = graph(n, edges, symmetric=False)
            expect = longest_dag_path(n, edges) <= b.size - 1
        elif roll < 0.30 and b.facts() == 2 * b.size:
            # Paths into a cycle: m * 2^(n-1) answers, always above the limit.
            a = relabel(rng, path(n))
            cases.append({"op": "enumerate", "a": a, "b": b, "limit": rng.randint(4, 16),
                          "expect": b.size * 2 ** (n - 1)})
            continue
        else:
            # Odd-cycle targets get acyclic sources only: a cycle source
            # there falls to the treewidth DP, which is not a cheap route.
            shape = rng.randrange(2 if kind == "odd-cycle" else 3)
            a = relabel(rng, [path(n), graph(n, random_tree_edges(rng, n)), cycle(n)][shape])
            expect = shape != 2 or n % 2 == 0
        cases.append({"op": "solve", "a": a, "b": b, "expect": expect})
    return cases
