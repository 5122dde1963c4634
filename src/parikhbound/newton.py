"""Newton iteration on the semiring of languages, in grammar form.

For a grammar G the differential grammar G~ is linear: every production
X -> alpha spawns one copy per kept variable occurrence (the other
occurrences are replaced by the terminal v_Y) plus the copy with all
occurrences replaced.  The k-th iterate nu_k(X) is the k-fold substitution
sigma_0 ... sigma_k (v_X), where every sigma above level 0 is the same map
v_Y -> L_Y(G~), whose v-terminals stand for the level below, and sigma_0
maps v_Y to the finite set of Y's terminal-only right-hand sides.  Its
Parikh image reaches the Parikh image of L(G) after at most |variables|
levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .grammar import Cfg, LinearGrammar, trim
from .semilinear import _newton
from .symbols import Word, alphabet


def v_symbol(x: str) -> str:
    """The fresh terminal standing for variable x in the differential grammar."""
    return f"v_{x}"


def differential_grammar(g: Cfg) -> LinearGrammar:
    """The linear grammar G~ over terminals(g) plus {v_X : X variable}."""
    for x in g.variables:
        if v_symbol(x) in g.terminals or v_symbol(x) in g.variables:
            raise InputError(f"symbol {v_symbol(x)!r} already in use")
    v_syms = [v_symbol(x) for x in sorted(g.variables)]
    sigma = alphabet(sorted(g.terminals.symbols) + v_syms)
    prods = set()
    for lhs, rhs in g.sorted_productions():
        occ_positions = [i for i, s in enumerate(rhs) if s in g.variables]
        all_replaced = tuple(v_symbol(s) if s in g.variables else s for s in rhs)
        prods.add((lhs, all_replaced))
        for keep in occ_positions:
            copy = tuple(s if (i == keep or s not in g.variables) else v_symbol(s)
                         for i, s in enumerate(rhs))
            prods.add((lhs, copy))
    return LinearGrammar(g.variables, sigma, frozenset(prods), g.start)


@dataclass(frozen=True)
class KFoldComposition:
    """A grammar, its differential, a composition depth, and the level-0
    finite languages (terminal-only right-hand sides per variable)."""

    base: Cfg
    differential: LinearGrammar
    depth: int
    base_level: tuple[tuple[str, tuple[Word, ...]], ...]

    def base_words(self, x: str) -> tuple[Word, ...]:
        return dict(self.base_level).get(x, ())


def build_kfold(g: Cfg, depth: int | None = None) -> KFoldComposition:
    """Depth defaults to |variables| (always sufficient for Parikh equality)."""
    g = trim(g)
    if depth is None:
        depth = len(g.variables)
    if depth < 0:
        raise InputError("depth must be nonnegative")
    base_level = tuple(
        (x, tuple(sorted(rhs for lhs, rhs in g.productions
                         if lhs == x and all(s in g.terminals for s in rhs))))
        for x in sorted(g.variables))
    return KFoldComposition(g, differential_grammar(g), depth, base_level)


def suggested_depth(g: Cfg) -> int:
    """A depth d with Parikh(nu_d) = Parikh(L): the stabilization depth that
    the staged semilinear Newton iteration reports for the start variable,
    at most |variables|.  It is an upper bound, not the smallest such d,
    and it is not checked against the iterate."""
    return _newton(trim(g))[1]


def materialize_iterate(kf: KFoldComposition, x: str, k: int | None = None) -> Cfg:
    """A grammar over terminals(base) for nu_k(X).  Level-j copies rename
    variables to Y@j; a v_Y terminal at level j becomes the variable Y@(j-1),
    and level 0 expands to the terminal-only right-hand sides."""
    if x not in kf.base.variables:
        raise InputError(f"{x!r} is not a variable")
    k = kf.depth if k is None else k
    gt = kf.differential
    v_var = {v_symbol(y): y for y in kf.base.variables}
    prods = set()
    variables = set()

    def var_at(y: str, j: int) -> str:
        return f"{y}@{j}"

    for j in range(1, k + 1):
        for lhs, rhs in gt.productions:
            new_rhs = []
            for s in rhs:
                if s in gt.variables:
                    new_rhs.append(var_at(s, j))
                elif s in v_var:
                    new_rhs.append(var_at(v_var[s], j - 1))
                else:
                    new_rhs.append(s)
            variables.add(var_at(lhs, j))
            prods.add((var_at(lhs, j), tuple(new_rhs)))
    for y, words in kf.base_level:
        variables.add(var_at(y, 0))
        for w in words:
            prods.add((var_at(y, 0), tuple(w)))
    variables |= {var_at(y, j) for y in kf.base.variables for j in range(k + 1)}
    return trim(Cfg(frozenset(variables), kf.base.terminals, frozenset(prods),
                    var_at(x, k)))
