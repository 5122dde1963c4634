"""Reference computations the benchmark checks the library against.

Nothing here calls into ``parikhbound``: grammars are read only through their
data fields (``variables``, ``terminals``, ``productions``, ``start``), and
networks through theirs.  The algorithms are deliberately different from the
library's: words are enumerated and membership is decided straight from the
productions (no Chomsky normal form), bounded-language membership makes one
pass over the block list, and network reachability is an explicit search over
configurations.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque


# ---------------------------------------------------------------------------
# Grammars


def _symbol_words(s, variables, table, n):
    """Words of a grammar symbol grouped by length (a terminal is itself)."""
    if s in variables:
        return table[s]
    return {1: {(s,)}} if n >= 1 else {}


def words_upto(g, n: int) -> set:
    """Every word of L(g) of length at most n.

    A least fixpoint over the productions as written: a variable's words of
    each length are the concatenations, along any of its right-hand sides, of
    words of the symbols whose lengths add up.  Empty and unit productions need
    no special treatment because the iteration runs until nothing changes.
    """
    variables = set(g.variables)
    table: dict[str, dict[int, set]] = {x: {} for x in variables}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            combos: dict[int, set] = {0: {()}}
            for s in rhs:
                part = _symbol_words(s, variables, table, n)
                nxt: dict[int, set] = {}
                for l1, us in combos.items():
                    for l2, vs in part.items():
                        if l1 + l2 > n:
                            continue
                        bucket = nxt.setdefault(l1 + l2, set())
                        for u in us:
                            for v in vs:
                                bucket.add(u + v)
                combos = nxt
                if not combos:
                    break
            target = table[lhs]
            for length, ws in combos.items():
                have = target.setdefault(length, set())
                if not ws <= have:
                    have |= ws
                    changed = True
    return {w for ws in table[g.start].values() for w in ws}


def derives(g, w) -> bool:
    """Whether the start symbol of g derives the word w.

    Computes, for every variable, the spans w[i:j] it derives, as a least
    fixpoint over the productions as written.
    """
    w = tuple(w)
    n = len(w)
    variables = set(g.variables)
    # ends[x][i]: the positions j such that x derives w[i:j]
    ends: dict[str, list[set]] = {x: [set() for _ in range(n + 1)]
                                  for x in variables}

    def step(s, i):
        if s in variables:
            return ends[s][i]
        return (i + 1,) if i < n and w[i] == s else ()

    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            for i in range(n + 1):
                positions = {i}
                for s in rhs:
                    positions = {j for p in positions for j in step(s, p)}
                    if not positions:
                        break
                if not positions <= ends[lhs][i]:
                    ends[lhs][i] |= positions
                    changed = True
    return n in ends[g.start][0]


def parikh(w, sigma) -> tuple:
    """Symbol counts of w in the order of the tuple sigma."""
    return tuple(w.count(s) for s in sigma)


def parikh_by_length(words, sigma) -> dict:
    """Map each word length to the set of Parikh vectors of that length."""
    out: dict[int, set] = {}
    for w in words:
        out.setdefault(len(w), set()).add(parikh(w, sigma))
    return out


# ---------------------------------------------------------------------------
# Elementary bounded languages w1* ... wk*


class BoundedMembership:
    """Membership in w1* ... wk*, given its block words in order.

    Building the index is one pass over the blocks: for each distinct word,
    the increasing list of block positions holding it.  A query then tracks,
    for every prefix length of the candidate, the earliest block that can end
    a factorization of that prefix; the earliest block is always the best one,
    because every later factor must come from that block or a later one.
    """

    def __init__(self, blocks):
        """blocks: the words w1 ... wk, each a tuple of symbols."""
        self.index: dict[tuple, list[int]] = {}
        for i, w in enumerate(blocks):
            if w:
                self.index.setdefault(w, []).append(i)
        self.lengths = sorted({len(w) for w in self.index})

    def accepts(self, u) -> bool:
        u = tuple(u)
        n = len(u)
        earliest = [None] * (n + 1)
        earliest[0] = 0
        for p in range(n):
            if earliest[p] is None:
                continue
            for length in self.lengths:
                q = p + length
                if q > n:
                    break
                positions = self.index.get(u[p:q])
                if positions is None:
                    continue
                k = bisect_left(positions, earliest[p])
                if k == len(positions):
                    continue
                block = positions[k]
                if earliest[q] is None or block < earliest[q]:
                    earliest[q] = block
        return earliest[n] is not None


# ---------------------------------------------------------------------------
# Pushdown networks


class SearchLimit(Exception):
    """The configuration space is larger than the search may explore."""


def pdn_reachable(pdn, init, target, max_states: int = 200_000,
                  max_height: int = 64) -> bool:
    """Exact reachability of the target configuration by breadth-first search.

    A step of thread i rewrites the global g and the top gamma of stack i by a
    rule (g, gamma, g2, push).  The search explores every reachable
    configuration, so a False answer is a proof of unreachability; it raises
    SearchLimit instead of answering when the space exceeds the limits.
    """
    start = (init.global_state, tuple(tuple(s) for s in init.stacks))
    goal = (target.global_state, tuple(tuple(s) for s in target.stacks))
    seen = {start}
    queue = deque([start])
    while queue:
        conf = queue.popleft()
        if conf == goal:
            return True
        g, stacks = conf
        for i, rules in enumerate(pdn.threads):
            stack = stacks[i]
            if not stack:
                continue
            for rg, gamma, g2, push in rules:
                if rg != g or gamma != stack[0]:
                    continue
                new_stack = tuple(push) + stack[1:]
                if len(new_stack) > max_height:
                    raise SearchLimit("stack height limit exceeded")
                nxt = (g2, stacks[:i] + (new_stack,) + stacks[i + 1:])
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > max_states:
                        raise SearchLimit("configuration limit exceeded")
                    queue.append(nxt)
    return False


def _parse_switch(symbol: str) -> tuple[str, int]:
    """Split a schedule symbol "(g,j)" into the global g and the thread j."""
    g, j = symbol[1:-1].rsplit(",", 1)
    return g, int(j)


def replay_schedule(pdn, init, target, schedule,
                    max_states: int = 200_000) -> bool:
    """Whether the network can follow the schedule from init to target.

    Thread 1 is active first.  Between switches only the active thread moves;
    a switch (g, j) needs the global to be g and hands control to another
    thread j, which continues from g.  The schedule is accepted when some run
    ends in the target global with every stack empty.
    """
    def closure(confs):
        seen = set(confs)
        queue = deque(confs)
        while queue:
            g, stacks, active = queue.popleft()
            stack = stacks[active]
            if not stack:
                continue
            for rg, gamma, g2, push in pdn.threads[active]:
                if rg != g or gamma != stack[0]:
                    continue
                new_stack = tuple(push) + stack[1:]
                nxt = (g2, stacks[:active] + (new_stack,)
                       + stacks[active + 1:], active)
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > max_states:
                        raise SearchLimit("configuration limit exceeded")
                    queue.append(nxt)
        return seen

    confs = closure({(init.global_state,
                      tuple(tuple(s) for s in init.stacks), 0)})
    for symbol in schedule:
        g_switch, j = _parse_switch(symbol)
        confs = closure({(g, stacks, j - 1) for g, stacks, active in confs
                         if g == g_switch and active != j - 1})
        if not confs:
            return False
    goal_stacks = tuple(tuple(s) for s in target.stacks)
    return any(g == target.global_state and stacks == goal_stacks
               for g, stacks, _ in confs)
