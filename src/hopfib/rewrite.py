"""Bounded noncommutative rewriting with confluence certification.

A presentation fixes an ordered list of generators, optional per-generator
degree weights, and rules `leading word -> linear combination of strictly
smaller words` in the weighted degree-lexicographic order (weight, then
length, then left-to-right comparison of generator indices). That order is
monomial (u < v implies a.u.b < a.v.b), so the per-rule check when the
presentation is built proves that every rewrite step decreases it and that
rewriting terminates; steps are not compared again.

Normal forms are leftmost (first position, then first rule in declaration
order) and cached per word. Confluence is certified once, in
enumerate_basis, by resolving all overlap and containment ambiguities
between pairs of rules to identical normal forms. Then normal forms do not
depend on the strategy, irreducible words within the length bound form a
basis, and multiplying normal forms is associative (Bergman's diamond
lemma), so extract_bialgebra builds the algebra without re-checking it.
Associativity also lets it form the multiplication table from the
generators' left actions: it normalizes only the words g.w of a generator
g and a basis word w, never the concatenation of two basis words.

The word-length bound guards termination searches. complete_check,
enumerate_basis and normalize raise BoundExceeded when an overlap word, an
irreducible word or an intermediate word of a reduction passes it. The
words g.w are at most one letter longer than the longest basis word, so
the multiplication table raises BoundExceeded only when one of their
reductions passes the bound, and not for a product of two basis words
whose leftmost reduction would. (The comultiplication and antipode still
normalize products of basis words with the words of the given generator
images.) An uncertified presentation is refused, by enumerate_basis,
before any table is built.

Text format written by render_presentation, one directive per line:

    field 7
    bound 24
    generators a b c
    weights 1 1 1
    rule b.a -> 4*a.b
    rule a.a.a -> 1
    rule b.b.b -> 0

Words are generator names joined by '.'; a bare number denotes that
multiple of the empty word; '0' is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import StructureConstantAlgebra
from .errors import BoundExceeded, HopfibError, InfiniteBasis
from .hopf import BialgebraData, build_bialgebra
from .linalg import FieldSpec, SparseTensor

Word = tuple[int, ...]
Poly = dict[Word, int]


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: tuple[tuple[Word, int], ...]

    def rhs_poly(self) -> Poly:
        return dict(self.rhs)


class Presentation:
    """Generators, weights, rewrite rules and a word-length bound."""

    def __init__(self, field: FieldSpec, generators, rules, word_bound: int, weights=None):
        self.field = field
        self.generators = tuple(generators)
        k = len(self.generators)
        if len(set(self.generators)) != k:
            raise HopfibError("generator names must be distinct")
        self.weights = tuple(weights) if weights is not None else (1,) * k
        if len(self.weights) != k or any(w < 1 for w in self.weights):
            raise HopfibError("weights must be positive, one per generator")
        self.word_bound = int(word_bound)
        norm_rules = []
        seen = set()
        for lhs, rhs in rules:
            lhs = tuple(int(g) for g in lhs)
            if not lhs:
                raise HopfibError("empty leading word in rule")
            if lhs in seen:
                raise HopfibError(f"duplicate leading word {self.word_str(lhs)}")
            seen.add(lhs)
            terms = []
            for w, c in (rhs.items() if isinstance(rhs, dict) else rhs):
                c = int(c) % field.p
                if c == 0:
                    continue
                w = tuple(int(g) for g in w)
                if not self.word_less(w, lhs):
                    raise HopfibError(
                        f"rule {self.word_str(lhs)} has right side {self.word_str(w)} "
                        "that is not strictly smaller (termination order violated)"
                    )
                terms.append((w, c))
            terms.sort(key=lambda t: self.order_key(t[0]))
            norm_rules.append(Rule(lhs, tuple(terms)))
        self.rules = tuple(norm_rules)
        self.rules_by_head = {g: tuple(r for r in self.rules if r.lhs[0] == g)
                              for g in {r.lhs[0] for r in self.rules}}
        self._nf_cache: dict[Word, Poly] = {}
        self._certified = False

    # -- ordering ---------------------------------------------------------

    def weight(self, w: Word) -> int:
        return sum(self.weights[g] for g in w)

    def order_key(self, w: Word):
        return (self.weight(w), len(w), w)

    def word_less(self, a: Word, b: Word) -> bool:
        return self.order_key(a) < self.order_key(b)

    def word_str(self, w: Word) -> str:
        return ".".join(self.generators[g] for g in w) if w else "1"

    def poly_str(self, poly: Poly) -> str:
        if not poly:
            return "0"
        parts = []
        for w in sorted(poly, key=self.order_key):
            c = poly[w]
            if not w:
                parts.append(str(c))
            elif c == 1:
                parts.append(self.word_str(w))
            else:
                parts.append(f"{c}*{self.word_str(w)}")
        return " + ".join(parts)

    def __repr__(self):
        return (
            f"Presentation({len(self.generators)} generators, "
            f"{len(self.rules)} rules, bound={self.word_bound}, p={self.field.p})"
        )


def _find_reduction(pres: Presentation, word: Word):
    """The leftmost position where a leading word occurs, and the first rule
    (in declaration order) whose leading word occurs there."""
    for pos, g in enumerate(word):
        for rule in pres.rules_by_head.get(g, ()):
            if word[pos : pos + len(rule.lhs)] == rule.lhs:
                return pos, rule
    return None


def _apply_rule_at(pres: Presentation, word: Word, rule: Rule, pos: int) -> Poly:
    p = pres.field.p
    pre, suf = word[:pos], word[pos + len(rule.lhs) :]
    out: Poly = {}
    for rw, rc in rule.rhs:
        new = pre + rw + suf
        if len(new) > pres.word_bound:
            raise BoundExceeded(
                f"intermediate word of length {len(new)} exceeds bound {pres.word_bound}"
            )
        out[new] = (out.get(new, 0) + rc) % p
    return {w: c for w, c in out.items() if c}


def _normal_form_word(pres: Presentation, word: Word) -> Poly:
    """Cached leftmost normal form of a single word."""
    cache = pres._nf_cache
    hit = cache.get(word)
    if hit is not None:
        return hit
    p = pres.field.p
    stack = [word]
    while stack:
        cur = stack[-1]
        if cur in cache:
            stack.pop()
            continue
        red = _find_reduction(pres, cur)
        if red is None:
            cache[cur] = {cur: 1}
            stack.pop()
            continue
        pos, rule = red
        children = _apply_rule_at(pres, cur, rule, pos)
        pending = [w for w in children if w not in cache]
        if pending:
            stack.extend(pending)
            continue
        out: Poly = {}
        for w, c in children.items():
            for w2, c2 in cache[w].items():
                out[w2] = (out.get(w2, 0) + c * c2) % p
        cache[cur] = {w2: c2 for w2, c2 in out.items() if c2}
        stack.pop()
    return cache[word]


def normalize(pres: Presentation, poly: Poly) -> Poly:
    """Leftmost normal form of a polynomial; the unique normal form once
    the presentation is certified confluent."""
    p = pres.field.p
    out: Poly = {}
    for word, coeff in poly.items():
        coeff %= p
        if coeff == 0:
            continue
        for w2, c2 in _normal_form_word(pres, word).items():
            out[w2] = (out.get(w2, 0) + coeff * c2) % p
    return {w: c for w, c in out.items() if c}


def poly_mul(pres: Presentation, f: Poly, g: Poly) -> Poly:
    p = pres.field.p
    out: Poly = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            for w3, c3 in _normal_form_word(pres, w1 + w2).items():
                out[w3] = (out.get(w3, 0) + c1 * c2 % p * c3) % p
    return {w: c for w, c in out.items() if c}


# -- confluence --------------------------------------------------------------


@dataclass
class Ambiguity:
    rule_a: int
    rule_b: int
    word: Word
    nf_a: Poly
    nf_b: Poly


@dataclass
class ConfluenceReport:
    confluent: bool
    checked: int
    unresolved: list[Ambiguity] = dc_field(default_factory=list)


def complete_check(pres: Presentation) -> ConfluenceReport:
    """Resolve every overlap/containment ambiguity between rule pairs.

    If all ambiguities reduce to the same normal form both ways the
    rewriting system is confluent and normal forms are unique.
    """
    unresolved = []
    checked = 0
    for ia, ra in enumerate(pres.rules):
        for ib, rb in enumerate(pres.rules):
            la, lb = ra.lhs, rb.lhs
            # proper overlaps: a suffix of lhs_a equals a prefix of lhs_b
            for k in range(1, min(len(la), len(lb))):
                if la[-k:] != lb[:k]:
                    continue
                word = la + lb[k:]
                if len(word) > pres.word_bound:
                    raise BoundExceeded("overlap word exceeds the length bound")
                checked += 1
                nf_a = normalize(pres, _apply_rule_at(pres, word, ra, 0))
                nf_b = normalize(pres, _apply_rule_at(pres, word, rb, len(la) - k))
                if nf_a != nf_b:
                    unresolved.append(Ambiguity(ia, ib, word, nf_a, nf_b))
            # containments: lhs_b occurs strictly inside lhs_a
            if len(lb) < len(la):
                for pos in range(len(la) - len(lb) + 1):
                    if la[pos : pos + len(lb)] != lb:
                        continue
                    checked += 1
                    nf_a = normalize(pres, _apply_rule_at(pres, la, ra, 0))
                    nf_b = normalize(pres, _apply_rule_at(pres, la, rb, pos))
                    if nf_a != nf_b:
                        unresolved.append(Ambiguity(ia, ib, la, nf_a, nf_b))
    report = ConfluenceReport(not unresolved, checked, unresolved)
    pres._certified = report.confluent
    return report


# -- basis enumeration -------------------------------------------------------


def enumerate_basis(pres: Presentation) -> list[Word]:
    """All irreducible words within the bound, in term order.

    Requires a certified-confluent presentation. Each generator must carry
    a pure power rule (otherwise its powers alone are an infinite
    irreducible family).
    """
    if not pres._certified:
        report = complete_check(pres)
        if not report.confluent:
            amb = report.unresolved[0]
            la, lb = (pres.word_str(pres.rules[i].lhs) for i in (amb.rule_a, amb.rule_b))
            raise HopfibError(
                f"presentation is not confluent; basis undefined: {len(report.unresolved)} of "
                f"{report.checked} ambiguities do not resolve; the first, rules {amb.rule_a} ({la}) "
                f"and {amb.rule_b} ({lb}) on {pres.word_str(amb.word)}, gives "
                f"{pres.poly_str(amb.nf_a)} and {pres.poly_str(amb.nf_b)}")
    for g in range(len(pres.generators)):
        if not any(set(r.lhs) == {g} for r in pres.rules):
            raise InfiniteBasis(
                f"generator {pres.generators[g]} has no power rule; "
                "its powers form an infinite irreducible family"
            )
    lhss = [r.lhs for r in pres.rules]
    basis: list[Word] = []
    level: list[Word] = [()]
    length = 0
    while level:
        basis.extend(level)
        if length == pres.word_bound:
            # a nonempty level at the bound: check it is really the last one
            probe = _next_level(level, lhss, len(pres.generators))
            if probe:
                raise BoundExceeded(
                    "irreducible words persist beyond the configured bound"
                )
            break
        level = _next_level(level, lhss, len(pres.generators))
        length += 1
    basis.sort(key=pres.order_key)
    return basis


def _next_level(level, lhss, ngens):
    out = []
    for w in level:
        for g in range(ngens):
            new = w + (g,)
            # w is irreducible, so any leading word must be a suffix of new
            if any(new[len(new) - len(l) :] == l for l in lhss if len(l) <= len(new)):
                continue
            out.append(new)
    return out


# -- extraction of structure constants ---------------------------------------

TensorPoly = dict[tuple[Word, Word], int]


def tensor_mul(pres: Presentation, t1: TensorPoly, t2: TensorPoly) -> TensorPoly:
    """Product in the tensor square: (a (x) b)(c (x) d) = ac (x) bd."""
    p = pres.field.p
    out: TensorPoly = {}
    for (a, b), c1 in t1.items():
        for (cw, dw), c2 in t2.items():
            c12 = c1 * c2 % p
            left = _normal_form_word(pres, a + cw)
            right = _normal_form_word(pres, b + dw)
            for lw, lc in left.items():
                clc = c12 * lc % p
                for rw, rc in right.items():
                    key = (lw, rw)
                    out[key] = (out.get(key, 0) + clc * rc) % p
    return {k: v for k, v in out.items() if v}


def extract_bialgebra(
    pres: Presentation,
    comul_gens: list[TensorPoly],
    counit_gens: list[int],
    antipode_gens: list[Poly] | None = None,
    labels=None,
) -> BialgebraData:
    """Materialize the presented algebra with its bialgebra structure.

    enumerate_basis certifies the presentation confluent, so by the diamond
    lemma the product of normal forms is associative with the empty word as
    unit; the algebra axioms are not checked again. Associativity is also
    what builds the table: with w_i = g.w', e_i e_j = g.(e_{w'} e_j), so
    the products of each basis word follow from those of its suffix and the
    left action of g, which takes one normal form per generator and basis
    word instead of one per pair of basis words. The comultiplication, counit
    and antipode are extended from the given generator images as algebra
    maps (anti-map for the antipode). Whether they respect the relations is
    not a theorem, so every bialgebra axiom is checked; a failure raises
    StructureCheckFailed, which signals a wrong relation or coproduct
    convention.
    """
    p = pres.field.p
    basis = enumerate_basis(pres)
    index = {w: i for i, w in enumerate(basis)}
    n = len(basis)
    # left action of each generator g on the basis: e_j -> NF(g.w_j)
    left = [[{index[w]: c for w, c in _normal_form_word(pres, (g,) + wj).items()} for wj in basis]
            for g in range(len(pres.generators))]
    # rows[i][j] = e_i e_j; for w_i = g.w', e_i e_j = g.(e_{w'} e_j), and the
    # irreducible suffix w' comes earlier in the term order
    rows: list[list[dict[int, int]]] = []
    for wi in basis:
        if not wi:
            rows.append([{j: 1} for j in range(n)])
            continue
        act = left[wi[0]]
        row = []
        for prod in rows[index[wi[1:]]]:
            out: dict[int, int] = {}
            for k, c in prod.items():
                for k2, c2 in act[k].items():
                    out[k2] = (out.get(k2, 0) + c * c2) % p
            row.append({k: c for k, c in out.items() if c})
        rows.append(row)
    entries = [(i, j, k, c) for i, row in enumerate(rows)
               for j, prod in enumerate(row) for k, c in prod.items()]
    unit = [0] * n
    unit[index[()]] = 1
    if labels is None:
        labels = tuple(pres.word_str(w) for w in basis)
    alg = StructureConstantAlgebra(pres.field, n, unit, SparseTensor.from_entries(n, 3, entries, p),
                                  tuple(labels), certified=True)

    one_tensor: TensorPoly = {((), ()): 1}
    comul_entries = []
    comul_cache: dict[Word, TensorPoly] = {(): one_tensor}

    def comul_of_word(w: Word) -> TensorPoly:
        if w in comul_cache:
            return comul_cache[w]
        t = tensor_mul(pres, comul_of_word(w[:-1]), comul_gens[w[-1]])
        comul_cache[w] = t
        return t

    for i, w in enumerate(basis):
        for (w1, w2), c in comul_of_word(w).items():
            comul_entries.append((i, index[w1], index[w2], c))

    counit = [0] * n
    for i, w in enumerate(basis):
        val = 1
        for g in w:
            val = val * counit_gens[g] % p
        counit[i] = val

    antipode = None
    if antipode_gens is not None:
        antipode = [[0] * n for _ in range(n)]
        anti_cache: dict[Word, Poly] = {(): {(): 1}}

        def antipode_of_word(w: Word) -> Poly:
            if w in anti_cache:
                return anti_cache[w]
            # anti-homomorphism: S(uv) = S(v) S(u)
            out = poly_mul(pres, antipode_gens[w[-1]], antipode_of_word(w[:-1]))
            anti_cache[w] = out
            return out

        for i, w in enumerate(basis):
            for w2, c in antipode_of_word(w).items():
                antipode[index[w2]][i] = c

    return build_bialgebra(alg, comul_entries, counit, antipode)


# -- text format --------------------------------------------------------------


def render_presentation(pres: Presentation) -> str:
    lines = [
        f"field {pres.field.p}",
        f"bound {pres.word_bound}",
        "generators " + " ".join(pres.generators),
        "weights " + " ".join(str(w) for w in pres.weights),
    ]
    for rule in pres.rules:
        lines.append(f"rule {pres.word_str(rule.lhs)} -> {pres.poly_str(rule.rhs_poly())}")
    return "\n".join(lines) + "\n"
