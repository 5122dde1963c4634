"""Shared fixtures: a grammar corpus and brute-force oracles.

Everything here is independent of the implementation under test: oracles work
by exhaustive enumeration or explicit expansion, so agreement with the library
is meaningful evidence of correctness.
"""

from __future__ import annotations

import random
import time
from itertools import product

from parikhbound import (Cfg, GlobalConfiguration, PushdownNetwork, eb,
                         enumerate_words, parikh_image, parikh_of_word, trim)
from parikhbound.boundedgen import bounded_for_linear, bounded_for_substitution
from parikhbound.diophantine import solve_nonneg
from parikhbound.grammar import (LinearGrammar, _new_names, binarize, cfg,
                                 finite_cfg, is_empty_language, simplify,
                                 to_cnf)
from parikhbound.newton import build_kfold, suggested_depth, v_symbol
from parikhbound.pdn import acceptor_to_cfg, encode_to_acceptors
from parikhbound.semilinear import (lin_membership, linear_set, prune,
                                    sl_empty, sl_minkowski, sl_star, sl_union,
                                    wit_minkowski, wit_singleton)
from parikhbound.symbols import alphabet


class Budget:
    """Context manager that fails the test when its body takes longer than
    `seconds` of wall-clock time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, \
                f"exceeded time budget: {elapsed:.1f}s > {self.seconds}s"


# ---------------------------------------------------------------------------
# Named grammars

# Running example: X0 -> a X1 | a ; X1 -> X0 b | a X1 b X0
G_EX = cfg({"X0", "X1"}, ["a", "b"],
           [("X0", ("a", "X1")), ("X0", ("a",)),
            ("X1", ("X0", "b")), ("X1", ("a", "X1", "b", "X0"))],
           "X0")

# Balanced brackets over one bracket pair (nonempty words).
DYCK1 = cfg({"D"}, ["a", "b"],
            [("D", ("a", "b")), ("D", ("a", "D", "b")),
             ("D", ("D", "D"))],
            "D")

# { a^n b^n : n >= 1 }
ANBN = cfg({"S"}, ["a", "b"],
           [("S", ("a", "S", "b")), ("S", ("a", "b"))],
           "S")

# Even-length palindromes over {a, b} (linear).
PALIN = cfg({"P"}, ["a", "b"],
            [("P", ("a", "P", "a")), ("P", ("b", "P", "b")), ("P", ())],
            "P")

# Odd-length "marked-center" palindrome-like linear grammar.
PALIN_C = cfg({"P"}, ["a", "b", "c"],
              [("P", ("a", "P", "a")), ("P", ("b", "P", "b")),
               ("P", ("c",))],
              "P")

CORE_CORPUS = [G_EX, DYCK1, ANBN, PALIN, PALIN_C]


# ---------------------------------------------------------------------------
# Seeded random grammars


def random_grammar(rng: random.Random, n_vars: int) -> Cfg:
    variables = [f"X{i}" for i in range(n_vars)]
    terminals = ["a", "b"]
    symbols = terminals + variables
    prods = set()
    for x in variables:
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(0, 3)
            rhs = tuple(rng.choice(symbols if rng.random() < 0.4 else terminals)
                        for _ in range(length))
            prods.add((x, rhs))
    return cfg(set(variables), terminals, prods, "X0")


def random_linear_grammar(rng: random.Random, n_vars: int) -> Cfg:
    """A random grammar whose right-hand sides hold at most one variable."""
    variables = [f"X{i}" for i in range(n_vars)]
    prods = set()
    for x in variables:
        for _ in range(rng.randint(2, 3)):
            rhs = [rng.choice("ab") for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.7:
                rhs.insert(rng.randint(0, len(rhs)), rng.choice(variables))
            prods.add((x, tuple(rhs)))
    return cfg(set(variables), ["a", "b"], prods, "X0")


def random_corpus(count: int, seed: int = 20260826, max_vars: int = 3,
                  make=random_grammar) -> list[Cfg]:
    """`count` nonempty seeded random grammars with 2..max_vars variables,
    each drawn by `make`."""
    rng = random.Random(seed)
    out: list[Cfg] = []
    while len(out) < count:
        g = make(rng, rng.randint(2, max_vars))
        if is_empty_language(g):
            continue
        t = trim(g)
        # keep the corpus interesting: skip languages that are a single word
        if len(enumerate_words(t, 6)) < 2:
            continue
        out.append(g)
    return out


def full_corpus() -> list[Cfg]:
    """At least 20 grammars: the 5 named ones plus seeded random grammars."""
    return CORE_CORPUS + random_corpus(15)


def two_thread_networks() -> list:
    """Small two-thread pushdown networks as (network, initial, target)."""
    out = []

    def two_threads(rules1, rules2, stacks, init_g, target_g):
        rules = list(rules1) + list(rules2)
        globals_ = sorted({r[0] for r in rules} | {r[2] for r in rules}
                          | {init_g, target_g})
        stack = sorted({r[1] for r in rules}
                       | {s for r in rules for s in r[3]}
                       | {s for st in stacks for s in st})
        out.append((PushdownNetwork(tuple(globals_), tuple(stack),
                                    (tuple(rules1), tuple(rules2))),
                    GlobalConfiguration(init_g, tuple(map(tuple, stacks))),
                    GlobalConfiguration(target_g, ((), ()))))

    # both threads just drain their stacks
    two_threads([("g0", "A", "g0", ())], [("g0", "B", "g0", ())],
                (("A",), ("B",)), "g0", "g0")
    # thread 2 must run first to enable thread 1's pop
    two_threads([("g1", "A", "g1", ())], [("g0", "B", "g1", ())],
                (("A",), ("B",)), "g0", "g1")
    # deadlock: each thread waits for a global only the other would set
    two_threads([("g1", "A", "g2", ())], [("g2", "B", "g1", ())],
                (("A",), ("B",)), "g0", "g2")
    return out


def corpus_and_acceptors():
    """full_corpus() and the six acceptor grammars of two_thread_networks()."""
    return full_corpus() + [acceptor_to_cfg(a)
                            for net in two_thread_networks()
                            for a in encode_to_acceptors(*net)]


# ---------------------------------------------------------------------------
# Reference constructions


def greedy_collapse(words) -> list:
    """Keep each word unless it is a power of the last word kept, one word
    at a time."""
    out = []
    for w in words:
        if out:
            n, r = divmod(len(w), len(out[-1]))
            if r == 0 and w == out[-1] * n:
                continue
        out.append(w)
    return out


def reference_bounded_for_substitution(b, sigma_map, tau_map, out_alphabet,
                                       memo=None):
    """``bounded_for_substitution`` computed word by word: each word of b is
    looked up in, or added to, the memo in turn, emptiness is decided per
    word, and every join is a ``greedy_collapse``."""
    memo = {} if memo is None else memo
    words = []
    for wi in b.words:
        if wi not in memo:
            memo[wi] = _reference_substitute_word(wi, sigma_map, tau_map,
                                                  out_alphabet)
        words.extend(memo[wi])
    return eb(greedy_collapse(words))


def _reference_substitute_word(wi, sigma_map, tau_map, out_alphabet) -> list:
    if all(a not in sigma_map for a in wi):
        return [wi]
    if any(is_empty_language(sigma_map[a]) for a in wi if a in sigma_map):
        return []
    image = None
    for a in wi:
        part = (parikh_image(sigma_map[a]) if a in sigma_map
                else wit_singleton(parikh_of_word((a,), out_alphabet), (a,)))
        image = part if image is None else wit_minkowski(image, part)
    ti = greedy_collapse(w for a in wi
                         for w in tau_map.get(a, eb([(a,)])).words)
    # B' = u1* ... ul* Ti^m, m the number of chains of nested period spans
    witnesses = [w for _, w in image.components if w]
    return greedy_collapse(witnesses + ti * reference_chain_count(image))


def reference_chain_count(image) -> int:
    """The number of chains in ``_powers_from_image``'s greedy cover of the
    periodic components, with span containment decided by its definition:
    every period of a component is a natural combination of the periods of
    the chain's last element."""
    periodic = sorted((comp for comp, _ in image.components if comp.periods),
                      key=lambda c: (-len(c.periods), c.periods, c.constant))
    chains = []
    for comp in periodic:
        k = next((k for k, last in enumerate(chains)
                  if all(solve_nonneg(last.periods, p) is not None
                         for p in comp.periods)), None)
        if k is None:
            chains.append(comp)
        else:
            chains[k] = comp
    return len(chains)


def reference_solve_nonneg(columns, target):
    """``solve_nonneg`` as a search on tuples, before vectors were packed:
    the same depth-first order over the columns, each coefficient from 0
    up to the remainder's bound, with a failure memo and the prune of a
    remainder nonzero where no later column is."""
    q = len(columns)
    if any(t < 0 for t in target):
        return None

    def support(v):
        return sum(1 << i for i, x in enumerate(v) if x)

    suffix_support = [0] * (q + 1)
    for j in range(q - 1, -1, -1):
        suffix_support[j] = suffix_support[j + 1] | support(columns[j])
    dead = set()

    def rec(j, rest):
        if not any(rest):
            return (0,) * (q - j)
        if j == q or support(rest) & ~suffix_support[j]:
            return None
        if (j, rest) in dead:
            return None
        col = columns[j]
        bound = min((r // c for r, c in zip(rest, col) if c > 0), default=None)
        if bound is None:  # zero column contributes nothing
            tail = rec(j + 1, rest)
            return None if tail is None else (0,) + tail
        for k in range(bound + 1):
            reduced = tuple(r - k * c for r, c in zip(rest, col))
            tail = rec(j + 1, reduced)
            if tail is not None:
                return (k,) + tail
        dead.add((j, rest))
        return None

    return rec(0, tuple(target))


def reference_witness_for_vector(g, v):
    """``witness_for_vector`` on tuples, before vectors were packed: the
    same semi-naive join in the same loop order, so the same first word
    for each vector."""
    v = tuple(v)
    g = trim(g)
    cnf = to_cnf(g)
    if not any(v):
        return () if cnf.eps_in_language else None
    index = {a: i for i, a in enumerate(g.terminals.symbols)}
    table = {}
    for x, a in cnf.unary:
        if a not in index:
            continue
        e = tuple(1 if i == index[a] else 0 for i in range(len(v)))
        if all(x1 <= x2 for x1, x2 in zip(e, v)):
            table.setdefault(x, {})[e] = (a,)
    joined = {}
    changed = True
    while changed:
        changed = False
        for r, (x, y, z) in enumerate(cnf.binary):
            ys = table.get(y)
            zs = table.get(z)
            if not ys or not zs:
                continue
            cell = table.setdefault(x, {})
            old_y, old_z = joined.get(r, (0, 0))
            joined[r] = len(ys), len(zs)
            for i, (u1, w1) in enumerate(list(ys.items())):
                for u2, w2 in list(zs.items())[old_z if i < old_y else 0:]:
                    s = tuple(a + b for a, b in zip(u1, u2))
                    if any(a > b for a, b in zip(s, v)) or s in cell:
                        continue
                    cell[s] = w1 + w2
                    changed = True
    return table.get(cnf.start, {}).get(v)


def reference_lin_subsumed(a, b) -> bool:
    """``_lin_subsumed`` by its definition, without the rejects before any
    search: a's constant lies in b, and b's periods span each of a's."""
    return lin_membership(b, a.constant) and all(
        solve_nonneg(b.periods, p) is not None for p in a.periods)


def reference_merge_pair(a, b):
    """``_merge_pair`` by its definition: d = b.constant - a.constant,
    natural and nonzero, and span(b.periods) = span(a.periods + {d})."""
    d = tuple(y - x for x, y in zip(a.constant, b.constant))
    if not any(d) or min(d) < 0:
        return None
    merged = a.periods + (d,)
    if all(solve_nonneg(b.periods, p) is not None for p in merged) and \
       all(solve_nonneg(merged, q) is not None for q in b.periods):
        return linear_set(a.constant, merged)
    return None


def reference_prune_pairs(pairs) -> list:
    """``_prune_pairs`` with every pair tested, by the plain definitions of
    subsumption and merge: drop a component contained in a kept one (and the
    kept ones of equal constant it contains), merge the first mergeable pair,
    and start again until nothing merges."""
    def key(cw):
        c = cw[0]
        return (sum(c.constant), c.constant, -len(c.periods), c.periods)

    comps = list(dict(reversed(pairs)).items())  # first payload wins
    while True:
        comps.sort(key=key)
        kept = []
        for c, w in comps:
            if any(reference_lin_subsumed(c, d) for d, _ in kept):
                continue
            kept = [(d, v) for d, v in kept
                    if d.constant != c.constant
                    or not reference_lin_subsumed(d, c)]
            kept.append((c, w))
        merge = next(((i, j, m) for i in range(len(kept))
                      for j in range(i + 1, len(kept))
                      for m in [reference_merge_pair(kept[i][0], kept[j][0])]
                      if m is not None), None)
        if merge is None:
            return kept
        i, j, m = merge
        kept[i] = (m, kept[i][1])
        del kept[j]
        comps = kept


def reference_minkowski_pairs(a, b) -> list:
    """The (component, witness) pairs of the full Minkowski product of two
    witnessed sets, before any pruning."""
    return [(linear_set(tuple(map(sum, zip(x.constant, y.constant))),
                        x.periods + y.periods), wx + wy)
            for x, wx in a.components for y, wy in b.components]


def reference_solve_block(block, matrix, rhs, dim):
    """``_solve_block`` with its pivots taken in name order: the least
    solution of x = M x + b on one block by Gaussian elimination, each
    variable's star substituted into the later ones, then back-substitution."""
    matrix = dict(matrix)
    rhs = dict(rhs)
    order = sorted(block)
    rows = {}
    for n, k in enumerate(order):
        star_kk = sl_star(matrix.pop((k, k), sl_empty(dim)))
        row = {j: sl_minkowski(star_kk, matrix.pop((k, j)))
               for j in order[n + 1:] if (k, j) in matrix}
        rows[k] = (row, sl_minkowski(star_kk, rhs[k]))
        for i in order[n + 1:]:
            if (i, k) in matrix:
                mik = matrix.pop((i, k))
                for j, rv in row.items():
                    add = sl_minkowski(mik, rv)
                    cur = matrix.get((i, j))
                    matrix[(i, j)] = prune(sl_union(cur, add)) if cur else add
                rhs[i] = prune(sl_union(rhs[i], sl_minkowski(mik, rows[k][1])))
    values = {}
    for k in reversed(order):
        row, bk = rows[k]
        values[k] = prune(sl_union(bk, *(sl_minkowski(rv, values[j])
                                         for j, rv in row.items())))
    return values


def reference_transducer_product(g, t, out_sigma, emit):
    """``transducer_product`` built bottom-up: a production for every run
    along which each right-hand symbol derives, then a trim of the result."""
    g = binarize(trim(g))
    if not g.productions:
        return Cfg(frozenset({g.start}), out_sigma, frozenset(), g.start)
    outputs: dict[str, dict] = {a: {} for a in g.terminals}  # a -> (q, q2) -> word
    for a, succ in t.moves.items():
        if a in outputs:
            for q, q2s in succ.items():
                for q2 in q2s:
                    outputs[a][q, q2] = emit(q, a, q2)
    # rel[s] = set of (q, q2) such that [q,s,q2] derives a word
    rel = {a: set(moves) for a, moves in outputs.items()}
    rel.update((x, set()) for x in g.variables)

    def runs(rhs):
        """State sequences q0..qn along which every symbol of rhs derives."""
        if not rhs:
            return [(q,) for q in t.states]
        if len(rhs) == 1:
            return rel[rhs[0]]
        by_src: dict = {}
        for q1, q2 in rel[rhs[1]]:
            by_src.setdefault(q1, []).append(q2)
        return [(q0, q1, q2) for q0, q1 in rel[rhs[0]] for q2 in by_src.get(q1, ())]

    # a naive fixpoint, independent of the library's engine: every
    # production is joined again on every pass until no relation grows
    grew = True
    while grew:
        grew = False
        for x, rhs in g.productions:
            pairs = {(run[0], run[-1]) for run in runs(rhs)}
            if not pairs <= rel[x]:
                rel[x] |= pairs
                grew = True

    def tv(x, q, q2):
        return f"[{q},{x},{q2}]"

    prods: set = set()
    for x, rhs in g.productions:
        moves = [outputs.get(s) for s in rhs]  # None for a variable
        for run in runs(rhs):
            body = sum(((tv(s, q, q2),) if out is None else out[q, q2]
                        for s, out, q, q2 in zip(rhs, moves, run, run[1:])), ())
            prods.add((tv(x, run[0], run[-1]), body))
    heads = {lhs for lhs, _ in prods}
    start = next(_new_names("S", heads))
    for qi in t.initial:
        for qf in t.accepting:
            if (qi, qf) in rel[g.start]:
                prods.add((start, (tv(g.start, qi, qf),)))
    variables = frozenset(heads | {start})
    return trim(Cfg(variables, out_sigma, frozenset(prods), start))


def level_symbol(x: str, level: int) -> str:
    """v_x tagged with the composition level it belongs to."""
    return f"v_{x}@{level}"


def cfg_rename_terminals(g: Cfg, ren: dict[str, str]) -> Cfg:
    """Apply a symbol-to-symbol homomorphism on terminals."""
    syms = list(dict.fromkeys(ren.get(a, a) for a in g.terminals.symbols))
    prods = {(l, tuple(ren.get(s, s) if s in g.terminals else s for s in r))
             for l, r in g.productions}
    return Cfg(g.variables, alphabet(syms), frozenset(prods), g.start)


def reference_parikh_equivalent_bounded(g):
    """``parikh_equivalent_bounded`` with every variable's chain substituted
    at every composition level, keeping the start variable's at the end.
    Each level has its own alphabet: v_Y at level i is renamed v_Y@i, and
    every level's maps and memo are built afresh."""
    g = trim(g)
    if not g.productions:
        return eb([])
    g = simplify(g)
    kf = build_kfold(g, suggested_depth(g))
    gt = kf.differential
    variables = sorted(kf.base.variables)
    btilde = {x: bounded_for_linear(LinearGrammar(gt.variables, gt.terminals,
                                                  gt.productions, x))
              for x in variables}
    if kf.depth == 0:
        return eb(kf.base_words(g.start))

    def renamed(b, i):
        ren = {v_symbol(y): level_symbol(y, i) for y in variables}
        return eb([tuple(ren.get(a, a) for a in w) for w in b.words])

    current = {x: renamed(btilde[x], kf.depth - 1) for x in variables}
    for i in range(kf.depth - 2, -1, -1):
        ren = {v_symbol(y): level_symbol(y, i) for y in variables}
        out_sigma = alphabet(sorted(kf.base.terminals.symbols)
                             + [level_symbol(y, i) for y in variables])
        sig, tau = {}, {}
        for y in variables:
            rooted = cfg_rename_terminals(
                LinearGrammar(gt.variables, gt.terminals, gt.productions, y),
                ren)
            sig[level_symbol(y, i + 1)] = Cfg(rooted.variables, out_sigma,
                                              rooted.productions, y)
            tau[level_symbol(y, i + 1)] = renamed(btilde[y], i)
        current = {x: bounded_for_substitution(current[x], sig, tau, out_sigma)
                   for x in variables}
    sig0 = {level_symbol(y, 0): finite_cfg(list(kf.base_words(y)),
                                           kf.base.terminals)
            for y in variables}
    tau0 = {level_symbol(y, 0): eb(kf.base_words(y)) for y in variables}
    return {x: bounded_for_substitution(current[x], sig0, tau0,
                                        kf.base.terminals)
            for x in variables}[g.start]


# ---------------------------------------------------------------------------
# Enumeration oracles


def per_length_parikh(g: Cfg, max_length: int,
                      sigma=None) -> dict[int, set]:
    """Map word length -> set of Parikh vectors of L(g), by enumeration."""
    t = trim(g)
    sigma = sigma if sigma is not None else t.terminals
    out: dict[int, set] = {}
    for w in enumerate_words(t, max_length):
        out.setdefault(len(w), set()).add(parikh_of_word(w, sigma))
    return out


def parikh_vectors(g: Cfg, max_length: int, sigma=None) -> set:
    t = trim(g)
    sigma = sigma if sigma is not None else t.terminals
    return {parikh_of_word(w, sigma) for w in enumerate_words(t, max_length)}


def eb_words(b, max_length: int) -> set:
    """All words of the elementary bounded language w1*...wk* up to a length,
    generated directly from the definition (independent of eb_to_nfa)."""
    out = set()

    def rec(prefix, i):
        out.add(prefix)
        if i == len(b.words):
            return
        w = b.words[i]
        rec(prefix, i + 1)
        cur = prefix
        while len(cur) + len(w) <= max_length:
            cur = cur + w
            rec(cur, i + 1)

    rec((), 0)
    return out


def expand_semilinear(s, max_sum: int) -> set:
    """All vectors of a semilinear set with coefficient sum <= max_sum,
    by explicit expansion of each linear component."""
    out = set()
    for comp in s.components:
        frontier = {comp.constant}
        seen = set(frontier)
        while frontier:
            nxt = set()
            for v in frontier:
                if sum(v) <= max_sum:
                    out.add(v)
                for p in comp.periods:
                    u = tuple(a + b for a, b in zip(v, p))
                    if sum(u) <= max_sum and u not in seen:
                        seen.add(u)
                        nxt.add(u)
            frontier = nxt
    return {v for v in out if sum(v) <= max_sum}


def naive_lin_member(constant, periods, v, budget: int = 200_000) -> bool:
    """Brute-force membership of v in {constant + sum li*pi} by bounded
    search over coefficient tuples."""
    if any(x > y for x, y in zip(constant, v)):
        return False
    rest = tuple(y - x for x, y in zip(constant, v))
    if not any(rest):
        return True
    bounds = []
    for p in periods:
        if not any(p):
            bounds.append(0)
            continue
        bounds.append(min((r // c if c else 10 ** 9)
                          for r, c in zip(rest, p) if c) if any(p) else 0)
    count = 0
    for coeffs in product(*[range(b + 1) for b in bounds]):
        count += 1
        if count > budget:
            raise RuntimeError("naive membership budget exhausted")
        total = list(constant)
        for l, p in zip(coeffs, periods):
            for i, c in enumerate(p):
                total[i] += l * c
        if tuple(total) == v:
            return True
    return False
