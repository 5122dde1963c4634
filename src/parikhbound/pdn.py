"""Pushdown networks and their reduction to context-free intersection.

A network is n pushdown threads over shared global states; a step rewrites
the global and the active thread's stack top.  Reachability of a target
configuration with all stacks empty reduces to nonemptiness of the
intersection of n context-free "schedule" languages: words over (g, j)
symbols recording that thread j became active with global g.

The encoding gives each acceptor a bottom marker below its real stack so an
acceptor whose thread has finished can keep synchronizing on later context
switches; the marker pops silently at the idle state, or - for the acceptor
that is active last - exactly at the target global.  Final globals therefore
land in {target, idle} with at least one acceptor at the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import BudgetError, InputError
from .grammar import Cfg, simplify, trim
from .intersect import IntersectionInstance, IntersectionResult, semi_algorithm
from .semilinear import outermost
from .symbols import alphabet

IDLE = "#idle"
BOT = "#bot"

PdnRule = tuple[str, str, str, tuple[str, ...]]  # <g, gamma> -> <g2, alpha>


@dataclass(frozen=True)
class PushdownNetwork:
    globals_: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    threads: tuple[tuple[PdnRule, ...], ...]

    def __post_init__(self):
        gset, sset = set(self.globals_), set(self.stack_alphabet)
        for rules in self.threads:
            for g, gamma, g2, push in rules:
                if g not in gset or g2 not in gset or gamma not in sset \
                        or any(s not in sset for s in push):
                    raise InputError(f"rule uses undeclared symbols: "
                                     f"{(g, gamma, g2, push)}")


@dataclass(frozen=True)
class GlobalConfiguration:
    global_state: str
    stacks: tuple[tuple[str, ...], ...]  # index 0 is the top


AcceptorRule = tuple[str, str, str | None, str, tuple[str, ...]]


@dataclass(frozen=True)
class PushdownAcceptor:
    """Accepts by empty stack; None-labeled rules are internal moves."""

    thread: int
    input_symbols: tuple[str, ...]
    rules: tuple[AcceptorRule, ...]
    initial_global: str
    initial_stack: tuple[str, ...]


def switch_symbol(g: str, thread: int) -> str:
    return f"({g},{thread})"


def _check_configurations(pdn: PushdownNetwork,
                         *configs: GlobalConfiguration) -> None:
    """InputError unless each configuration has one stack per thread and
    uses only the network's globals and stack symbols."""
    symbols = set(pdn.stack_alphabet)
    for c in configs:
        if len(c.stacks) != len(pdn.threads):
            raise InputError("configuration arity does not match thread count")
        if c.global_state not in pdn.globals_ \
                or any(s not in symbols for st in c.stacks for s in st):
            raise InputError("a configuration uses an undeclared global or "
                             "stack symbol")


def encode_to_acceptors(pdn: PushdownNetwork, init: GlobalConfiguration,
                        target: GlobalConfiguration) -> list[PushdownAcceptor]:
    _check_configurations(pdn, init, target)
    if any(s for s in target.stacks):
        raise InputError("target stacks must all be empty")
    n = len(pdn.threads)
    # the encoding's own idle global and bottom marker must stay apart from
    # the network's symbols, or a thread could move through them
    if IDLE in pdn.globals_ or BOT in pdn.stack_alphabet:
        raise InputError(f"the global {IDLE!r} and the stack symbol {BOT!r} "
                         "are reserved for the encoding")
    gamma_ext = tuple(pdn.stack_alphabet) + (BOT,)
    input_symbols = tuple(switch_symbol(g, j)
                          for j in range(1, n + 1) for g in pdn.globals_)
    out = []
    for i in range(1, n + 1):
        rules: list[AcceptorRule] = []
        for g, gamma, g2, push in pdn.threads[i - 1]:
            rules.append((g, gamma, None, g2, push))
        for gamma in gamma_ext:
            for j in range(1, n + 1):
                if j == i:
                    for g in pdn.globals_:
                        rules.append((IDLE, gamma, switch_symbol(g, i),
                                      g, (gamma,)))
                else:
                    for g in pdn.globals_:
                        rules.append((g, gamma, switch_symbol(g, j),
                                      IDLE, (gamma,)))
                        rules.append((IDLE, gamma, switch_symbol(g, j),
                                      IDLE, (gamma,)))
        rules.append((target.global_state, BOT, None, target.global_state, ()))
        rules.append((IDLE, BOT, None, IDLE, ()))
        initial_global = init.global_state if i == 1 else IDLE
        out.append(PushdownAcceptor(
            i, input_symbols, tuple(rules), initial_global,
            tuple(init.stacks[i - 1]) + (BOT,)))
    return out


def acceptor_to_cfg(acc: PushdownAcceptor) -> Cfg:
    """Triple construction: [g gamma g'] derives the inputs consumed while
    popping gamma, moving from global g to g'."""
    globals_ = sorted({g for g, _, _, _, _ in acc.rules}
                      | {g2 for _, _, _, g2, _ in acc.rules}
                      | {acc.initial_global})

    def tv(g, gamma, g2):
        return f"[{g} {gamma} {g2}]"

    prods = set()
    variables = set()
    for g, gamma, label, g2, push in acc.rules:
        if len(push) > 2:
            raise InputError("acceptor rules may push at most two symbols")
        lbl: tuple[str, ...] = () if label is None else (label,)
        # [g gamma qn] -> lbl [g2 p0 q1] ... [q(n-1) p(n-1) qn], q0 = g2
        for qs in product(globals_, repeat=len(push)):
            path = (g2, *qs)
            body = tuple(map(tv, path, push, path[1:]))
            head = tv(g, gamma, path[-1])
            variables.update((head, *body))
            prods.add((head, lbl + body))
    start = f"S{acc.thread}"
    variables.add(start)
    stack = acc.initial_stack
    # chain the initial stack: pop stack[0] from the initial global, then the
    # rest from wherever that left off
    prev = [(acc.initial_global, start)]
    for depth, gamma in enumerate(stack):
        last = depth == len(stack) - 1
        nxt = []
        for g_from, var in prev:
            if last:
                for q in globals_:
                    if tv(g_from, gamma, q) in variables:
                        prods.add((var, (tv(g_from, gamma, q),)))
            else:
                for q in globals_:
                    if tv(g_from, gamma, q) not in variables:
                        continue
                    step_var = f"{start}:{depth + 1}:{q}"
                    variables.add(step_var)
                    prods.add((var, (tv(g_from, gamma, q), step_var)))
                    nxt.append((q, step_var))
        prev = list({p: None for p in nxt})
    g = Cfg(frozenset(variables), alphabet(acc.input_symbols),
            frozenset(prods), start)
    return simplify(trim(g))


# ---------------------------------------------------------------------------
# Direct bounded search (test oracle)


def pdn_reach_bounded(pdn: PushdownNetwork, init: GlobalConfiguration,
                      target: GlobalConfiguration, depth: int,
                      state_budget: int = 500_000) -> bool:
    """Breadth-first search over configurations, exploring at most `depth`
    rule applications with stacks capped at initial height + depth."""
    _check_configurations(pdn, init, target)
    cap = max((len(s) for s in init.stacks), default=0) + depth
    start = (init.global_state, tuple(tuple(s) for s in init.stacks))
    goal = (target.global_state, tuple(tuple(s) for s in target.stacks))
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        if goal in seen:
            return True
        nxt = []
        for g, stacks in frontier:
            for i, rules in enumerate(pdn.threads):
                stack = stacks[i]
                if not stack:
                    continue
                for rg, gamma, g2, push in rules:
                    if rg != g or gamma != stack[0]:
                        continue
                    new_stack = tuple(push) + stack[1:]
                    if len(new_stack) > cap:
                        continue
                    conf = (g2, stacks[:i] + (new_stack,) + stacks[i + 1:])
                    if conf not in seen:
                        seen.add(conf)
                        if len(seen) > state_budget:
                            raise BudgetError("configuration budget exhausted")
                        nxt.append(conf)
        frontier = nxt
        if not frontier:
            break
    return goal in seen


# ---------------------------------------------------------------------------
# Reachability through the intersection procedure


@outermost
def reach(pdn: PushdownNetwork, init: GlobalConfiguration,
          target: GlobalConfiguration, max_rounds: int = 5) -> IntersectionResult:
    acceptors = encode_to_acceptors(pdn, init, target)
    grammars = tuple(acceptor_to_cfg(a) for a in acceptors)
    return semi_algorithm(IntersectionInstance(grammars), max_rounds=max_rounds)


# ---------------------------------------------------------------------------
# The parametric two-thread family


def family_instance(k: int) -> tuple[PushdownNetwork, GlobalConfiguration,
                                     GlobalConfiguration]:
    """Thread 1 must decrement a k-token budget, one token per visit of its
    check point with the shared bit false; thread 2 is the only writer that
    resets the bit.  Reaching the target therefore needs at least k
    activations of thread 2, yet ((t1,2)(f1,1))* certifies every k at once.
    """
    if k < 1:
        raise InputError("family instances require k >= 1")
    globals_ = ("t0", "t1", "f0", "f1")  # bit value + program point of thread 1
    stack_alphabet = ("J", "Z", "W")
    t1_rules = []
    for b in ("t", "f"):
        for gamma in ("J", "Z"):
            t1_rules.append((f"{b}0", gamma, "t1", (gamma,)))   # set bit true
            t1_rules.append(("t1", gamma, "t0", (gamma,)))      # bit true: skip
    t1_rules.append(("f1", "J", "f0", ()))                      # bit false: pay token
    t1_rules.append(("t1", "Z", "t1", ()))                      # budget exhausted: exit
    t1_rules.append(("f1", "Z", "f1", ()))
    t2_rules = []
    for b in ("t", "f"):
        for p in ("0", "1"):
            t2_rules.append((f"{b}{p}", "W", f"f{p}", ("W",)))  # reset bit
            t2_rules.append((f"{b}{p}", "W", f"{b}{p}", ()))    # finish
    pdn = PushdownNetwork(globals_, stack_alphabet,
                          (tuple(t1_rules), tuple(t2_rules)))
    init = GlobalConfiguration("f0", (("J",) * k + ("Z",), ("W",)))
    target = GlobalConfiguration("t1", ((), ()))
    return pdn, init, target


# ---------------------------------------------------------------------------
# File format


def pdn_from_json(text: str) -> tuple[PushdownNetwork, GlobalConfiguration,
                                      GlobalConfiguration]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from None
    try:
        # a string where a list belongs would read as its characters
        threads = data["threads"]
        stacks = [data["init"]["stacks"], data["target"]["stacks"]]
        if not all(isinstance(x, list) for x in (
                data["globals"], data["stack_alphabet"], threads, *stacks)) \
                or not all(isinstance(x, list)
                           for x in (*threads, *stacks[0], *stacks[1])) \
                or not all(isinstance(r, list) and len(r) == 4
                           and isinstance(r[3], list)
                           for thread in threads for r in thread):
            raise InputError("malformed network description: globals, "
                             "stack_alphabet, threads, each thread, rule, push "
                             "and stack must be lists, and a rule has 4 fields")
        if not all(isinstance(s, str) for s in (
                *data["globals"], *data["stack_alphabet"],
                *(s for thread in threads for r in thread
                  for s in (*r[:3], *r[3])),
                data["init"]["global"], data["target"]["global"],
                *(s for stack in (*stacks[0], *stacks[1]) for s in stack))):
            raise InputError("malformed network description: every global, "
                             "stack symbol, rule field, push entry and "
                             "configuration entry must be a string")
        pdn = PushdownNetwork(
            tuple(data["globals"]), tuple(data["stack_alphabet"]),
            tuple(tuple((r[0], r[1], r[2], tuple(r[3])) for r in thread)
                  for thread in threads))
        init = GlobalConfiguration(data["init"]["global"],
                                   tuple(map(tuple, stacks[0])))
        target = GlobalConfiguration(data["target"]["global"],
                                     tuple(map(tuple, stacks[1])))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed network description: {exc}") from None
    return pdn, init, target


def pdn_to_json(pdn: PushdownNetwork, init: GlobalConfiguration,
                target: GlobalConfiguration) -> str:
    return json.dumps({
        "globals": list(pdn.globals_),
        "stack_alphabet": list(pdn.stack_alphabet),
        "threads": [[[g, gamma, g2, list(push)] for g, gamma, g2, push in rules]
                    for rules in pdn.threads],
        "init": {"global": init.global_state,
                 "stacks": [list(s) for s in init.stacks]},
        "target": {"global": target.global_state,
                   "stacks": [list(s) for s in target.stacks]},
    }, indent=2)
