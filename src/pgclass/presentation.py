"""Polycyclic presentations of finite p-groups and collection arithmetic.

A presentation has generators g_1 < g_2 < ... < g_n, all of relative order
p, with relations

    g_i^p        = w_i        (w_i a word in generators of index > i)
    [g_j, g_i]   = w_{j,i}    (j > i, word in generators of index > j)

Omitted relations are trivial.  This shape forces the chain
<g_i, ..., g_n> to be central, so any consistent presentation of this kind
presents a finite p-group of order exactly p^n, and collection from the
left terminates on every input word.

Elements are stored in normal form as exponent vectors (e_1, ..., e_n)
with 0 <= e_i < p.  Collection here is the reference implementation; the
table-driven fast arithmetic lives in group.py and is cross-checked
against this one in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalInconsistencyError, ParseError

# A word is a sequence of (generator-index, exponent) pairs, 0-based indices.
Word = tuple[tuple[int, int], ...]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Element:
    """A group element in normal form: the exponent vector of its pc word."""

    exps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.exps)

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)


@dataclass(frozen=True)
class PcPresentation:
    """A power-commutator presentation with all relative orders equal to p.

    power_rels[i] is the right side of g_i^p (empty word = trivial);
    comm_rels maps (j, i) with j > i to the right side of [g_j, g_i],
    omitted pairs being trivial.
    """

    name: str
    p: int
    gens: tuple[str, ...]
    power_rels: tuple[Word, ...]
    comm_rels: tuple[tuple[tuple[int, int], Word], ...]

    def __post_init__(self):
        _validate_shape(self)

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def order(self) -> int:
        return self.p ** self.n

    def comm_rel(self, j: int, i: int) -> Word:
        """Right side of [g_j, g_i] for j > i (0-based), trivial if omitted."""
        if j <= i:
            raise ValueError("comm_rel requires j > i")
        return self.comm_dict.get((j, i), ())

    @property
    def comm_dict(self) -> dict[tuple[int, int], Word]:
        d = getattr(self, "_comm_dict", None)
        if d is None:
            d = dict(self.comm_rels)
            object.__setattr__(self, "_comm_dict", d)
        return d

    def identity(self) -> Element:
        return Element((0,) * self.n)

    def generator(self, i: int) -> Element:
        exps = [0] * self.n
        exps[i] = 1
        return Element(tuple(exps))

    def element(self, exps: Sequence[int]) -> Element:
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(exps)}")
        if any(e < 0 or e >= self.p for e in exps):
            raise ValueError("exponents must lie in [0, p)")
        return Element(exps)

    def elements(self) -> Iterable[Element]:
        """All p^n normal forms in lexicographic order."""
        p, n = self.p, self.n
        exps = [0] * n
        for _ in range(p**n):
            yield Element(tuple(exps))
            for i in range(n - 1, -1, -1):
                exps[i] += 1
                if exps[i] < p:
                    break
                exps[i] = 0


def _validate_shape(P: PcPresentation) -> None:
    if not is_prime(P.p):
        raise ParseError(f"p = {P.p} is not prime")
    n = len(P.gens)
    if n < 1:
        raise ParseError("at least one generator is required")
    if len(set(P.gens)) != n:
        raise ParseError("duplicate generator names")
    if len(P.power_rels) != n:
        raise ParseError("power_rels must have one entry per generator")

    def check_word(word: Word, floor: int, what: str) -> None:
        for g, e in word:
            if not (0 <= g < n):
                raise ParseError(f"{what}: generator index {g} out of range")
            if g <= floor:
                raise ParseError(f"{what}: references an index <= its left side")
            if e == 0:
                raise ParseError(f"{what}: zero exponent in word")

    for i, w in enumerate(P.power_rels):
        check_word(w, i, f"power relation of {P.gens[i]}")
    seen = set()
    for (j, i), w in P.comm_rels:
        if j <= i:
            raise ParseError("left side not index-decreasing")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError("commutator relation: index out of range")
        if (j, i) in seen:
            raise ParseError(f"duplicate relation [{P.gens[j]},{P.gens[i]}]")
        seen.add((j, i))
        check_word(w, j, f"relation [{P.gens[j]},{P.gens[i]}]")


# ---------------------------------------------------------------------------
# parsing


_HEADER = "group"


def parse_presentation(text: str, name: str | None = None) -> PcPresentation:
    """Parse the line-oriented presentation grammar.

        group <name> prime <p>
        gens <id_1> ... <id_n>
        pow <id>^p = <word>            # omit for trivial
        comm [<id_j>,<id_i>] = <word>  # j declared after i

    Words are whitespace-juxtaposed terms ``id`` or ``id^int``; "1" is the
    identity.  '#' starts a comment.
    """
    gname = name or "anonymous"
    p = None
    gens: list[str] = []
    gen_pos: dict[str, int] = {}
    power_rels: dict[int, Word] = {}
    comm_rels: dict[tuple[int, int], Word] = {}
    saw_header = False
    saw_gens = False

    def err(msg, lineno, col=None):
        raise ParseError(msg, line=lineno, col=col)

    def parse_word(tokens: list[str], lineno: int, floor: int, what: str) -> Word:
        if tokens == ["1"]:
            return ()
        if not tokens:
            err(f"{what}: empty word", lineno)
        out = []
        for tok in tokens:
            if "^" in tok:
                base, _, exp = tok.partition("^")
                try:
                    e = int(exp)
                except ValueError:
                    err(f"{what}: bad exponent {exp!r}", lineno)
            else:
                base, e = tok, 1
            if base not in gen_pos:
                err(f"{what}: unknown generator {base!r}", lineno)
            g = gen_pos[base]
            if g <= floor:
                err(f"{what}: relation referencing an index <= its left side", lineno)
            if e == 0:
                continue
            out.append((g, e))
        return tuple(out)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == _HEADER:
            if saw_header:
                err("duplicate group header", lineno)
            if len(toks) != 4 or toks[2] != "prime":
                err('expected "group <name> prime <p>"', lineno)
            gname = toks[1]
            try:
                p = int(toks[3])
            except ValueError:
                err(f"bad prime {toks[3]!r}", lineno)
            if not is_prime(p):
                err(f"p = {p} is not prime", lineno)
            saw_header = True
        elif kw == "gens":
            if not saw_header:
                err("gens line before group header", lineno)
            if saw_gens:
                err("duplicate gens line", lineno)
            if len(toks) < 2:
                err("gens line lists no generators", lineno)
            for g in toks[1:]:
                if g in gen_pos:
                    err(f"duplicate generator name {g!r}", lineno)
                gen_pos[g] = len(gens)
                gens.append(g)
            saw_gens = True
        elif kw == "pow":
            if not saw_gens:
                err("pow line before gens", lineno)
            rest = line[len("pow"):].strip()
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                err('expected "pow <id>^p = <word>"', lineno)
            lhs = lhs.strip()
            if "^" not in lhs:
                err("power left side must be <id>^p", lineno)
            gid, _, exp = lhs.partition("^")
            gid = gid.strip()
            exp = exp.strip()
            if gid not in gen_pos:
                err(f"unknown generator {gid!r}", lineno)
            if exp not in ("p", str(p)):
                err(f"power exponent must be p (= {p}), got {exp!r}", lineno)
            i = gen_pos[gid]
            if i in power_rels:
                err(f"duplicate power relation for {gid!r}", lineno)
            power_rels[i] = parse_word(rhs.split(), lineno, i, f"pow {gid}")
        elif kw == "comm":
            if not saw_gens:
                err("comm line before gens", lineno)
            rest = line[len("comm"):].strip()
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                err('expected "comm [<id>,<id>] = <word>"', lineno)
            lhs = lhs.strip()
            if not (lhs.startswith("[") and lhs.endswith("]")):
                err("commutator left side must be [<id>,<id>]", lineno)
            inner = lhs[1:-1]
            parts = [s.strip() for s in inner.split(",")]
            if len(parts) != 2:
                err("commutator left side must name two generators", lineno)
            a, b = parts
            for gid in (a, b):
                if gid not in gen_pos:
                    err(f"unknown generator {gid!r}", lineno)
            j, i = gen_pos[a], gen_pos[b]
            if j <= i:
                err("left side not index-decreasing", lineno)
            if (j, i) in comm_rels:
                err(f"duplicate relation [{a},{b}]", lineno)
            comm_rels[(j, i)] = parse_word(rhs.split(), lineno, j, f"comm [{a},{b}]")
        else:
            err(f"unknown directive {kw!r}", lineno, col=1)

    if not saw_header:
        raise ParseError("missing group header")
    if not saw_gens:
        raise ParseError("missing gens line")
    n = len(gens)
    return PcPresentation(
        name=gname,
        p=p,
        gens=tuple(gens),
        power_rels=tuple(power_rels.get(i, ()) for i in range(n)),
        comm_rels=tuple(sorted(comm_rels.items())),
    )


def presentation_text(P: PcPresentation) -> str:
    """Serialize a presentation back into the file grammar (round-trips)."""

    def word_str(w: Word) -> str:
        if not w:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}"
                        for g, e in ((P.gens[idx], e) for idx, e in w))

    lines = [f"group {P.name} prime {P.p}", "gens " + " ".join(P.gens)]
    for i, w in enumerate(P.power_rels):
        if w:
            lines.append(f"pow {P.gens[i]}^p = {word_str(w)}")
    for (j, i), w in P.comm_rels:
        lines.append(f"comm [{P.gens[j]},{P.gens[i]}] = {word_str(w)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# collection from the left


class _Collector:
    """Reference collector for one presentation.

    Keeps a collected normal prefix plus a stack of pending syllables and
    always resolves the leftmost violation, either merging a syllable into
    the prefix (applying the power relation on overflow) or exchanging it
    past the last prefix syllable via the commutator relation.
    """

    def __init__(self, P: PcPresentation):
        self.P = P
        self.p = P.p
        self.n = P.n
        self._gen_inv: dict[int, tuple[tuple[int, int], ...]] = {}
        self.consistency: ConsistencyReport | None = None  # check_consistency(P), once made
        # generous guard; collection on this presentation shape terminates
        self._max_steps = 2_000_000

    def collect(self, word: Iterable[tuple[int, int]]) -> Element:
        p, n = self.p, self.n
        left = [0] * n
        stack = [(g, e) for g, e in word if e != 0]
        stack.reverse()
        steps = 0
        while stack:
            steps += 1
            if steps > self._max_steps:
                raise RuntimeError("collection step guard exceeded")
            i, e = stack.pop()
            if e == 0:
                continue
            if e < 0:
                inv = self._inverse_of_generator(i)
                for _ in range(-e):
                    stack.extend(reversed(inv))
                continue
            # find the last prefix syllable with index above i
            j = -1
            for t in range(n - 1, i, -1):
                if left[t]:
                    j = t
                    break
            if j < 0:
                tot = left[i] + e
                left[i] = tot % p
                carries = tot // p
                if carries:
                    w = self.P.power_rels[i]
                    for _ in range(carries):
                        stack.extend(reversed(w))
            else:
                # ... g_j^f g_i^e ...  ->  ... g_j^(f-1) g_i g_j [g_j,g_i] g_i^(e-1) ...
                left[j] -= 1
                comm = self.P.comm_rel(j, i)
                if e > 1:
                    stack.append((i, e - 1))
                stack.extend(reversed(comm))
                stack.append((j, 1))
                stack.append((i, 1))
        return Element(tuple(left))

    def _syllables(self, a: Element) -> tuple[tuple[int, int], ...]:
        return tuple((i, e) for i, e in enumerate(a.exps) if e)

    def multiply(self, a: Element, b: Element) -> Element:
        return self.collect(self._syllables(a) + self._syllables(b))

    def power(self, a: Element, m: int) -> Element:
        if m < 0:
            return self.power(self.inverse(a), -m)
        result = self.P.identity()
        base = a
        while m:
            if m & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            m >>= 1
        return result

    def element_order(self, a: Element) -> int:
        # orders are p-powers, so iterate the p-th power map
        ord_ = 1
        x = a
        while not x.is_identity():
            x = self.power(x, self.p)
            ord_ *= self.p
            if ord_ > self.P.order:
                raise RuntimeError("order computation ran away (inconsistent input?)")
        return ord_

    def inverse(self, a: Element) -> Element:
        return self.power(a, self.element_order(a) - 1)

    def _inverse_of_generator(self, i: int) -> tuple[tuple[int, int], ...]:
        syl = self._gen_inv.get(i)
        if syl is None:
            syl = self._syllables(self.inverse(self.P.generator(i)))
            self._gen_inv[i] = syl
        return syl

    def commutator(self, a: Element, b: Element) -> Element:
        w = (
            self._syllables(self.inverse(a))
            + self._syllables(self.inverse(b))
            + self._syllables(a)
            + self._syllables(b)
        )
        return self.collect(w)


_collectors: dict[PcPresentation, _Collector] = {}


def collector(P: PcPresentation) -> _Collector:
    c = _collectors.get(P)
    if c is None:
        c = _Collector(P)
        _collectors[P] = c
    return c


def multiply(a: Element, b: Element, P: PcPresentation) -> Element:
    """Normal form of a*b, by collection from the left."""
    return collector(P).multiply(a, b)


def inverse(a: Element, P: PcPresentation) -> Element:
    """Normal form of a^-1."""
    return collector(P).inverse(a)


def commutator(a: Element, b: Element, P: PcPresentation) -> Element:
    """Normal form of [a, b] = a^-1 b^-1 a b."""
    return collector(P).commutator(a, b)


def evaluate_word(word: Iterable[tuple[int, int]], P: PcPresentation) -> Element:
    """Collect an arbitrary word (negative exponents allowed)."""
    return collector(P).collect(word)


# ---------------------------------------------------------------------------
# consistency


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the overlap tests; consistent iff failures is empty."""

    consistent: bool
    failures: tuple[tuple[str, Element, Element], ...]

    def __post_init__(self):
        if self.consistent != (len(self.failures) == 0):
            raise InternalInconsistencyError("consistent flag disagrees with the failures")


def check_consistency(P: PcPresentation) -> ConsistencyReport:
    """Run the standard overlap tests for this presentation shape.

    Collects, for all applicable index triples/pairs,

        g_k (g_j g_i)  vs  (g_k g_j) g_i        (k > j > i)
        g_j^p g_i      vs  g_j^(p-1) (g_j g_i)  (j > i)
        g_j g_i^p      vs  (g_j g_i) g_i^(p-1)  (j > i)
        g_i g_i^p      vs  g_i^p g_i

    and reports any pair that collects to different normal forms.  The
    presented group has order exactly p^n iff all overlaps agree.  The
    report is kept on P's collector, so it is made once for as long as
    that collector is cached.
    """
    col = collector(P)
    if col.consistency is not None:
        return col.consistency
    p, n = P.p, P.n
    names = P.gens
    failures: list[tuple[str, Element, Element]] = []

    def cmp(desc: str, lhs: Element, rhs: Element):
        if lhs != rhs:
            failures.append((desc, lhs, rhs))

    gens = [P.generator(i) for i in range(n)]
    # each generator's p-th and (p-1)-th power and each product g_j g_i
    # (j > i) is collected once and shared by every overlap that uses it
    gp = [col.power(g, p) for g in gens]
    gpm1 = [col.power(g, p - 1) for g in gens]
    prod = {(j, i): col.multiply(gens[j], gens[i]) for j in range(n) for i in range(j)}
    for k in range(n):
        for j in range(k):
            for i in range(j):
                lhs = col.multiply(gens[k], prod[j, i])
                rhs = col.multiply(prod[k, j], gens[i])
                cmp(f"{names[k]}({names[j]}{names[i]}) vs ({names[k]}{names[j]}){names[i]}", lhs, rhs)
    for j in range(n):
        for i in range(j):
            lhs = col.multiply(gp[j], gens[i])
            rhs = col.multiply(gpm1[j], prod[j, i])
            cmp(f"{names[j]}^p {names[i]} overlap", lhs, rhs)
            lhs = col.multiply(gens[j], gp[i])
            rhs = col.multiply(prod[j, i], gpm1[i])
            cmp(f"{names[j]} {names[i]}^p overlap", lhs, rhs)
    for i in range(n):
        lhs = col.multiply(gens[i], gp[i])
        rhs = col.multiply(gp[i], gens[i])
        cmp(f"{names[i]} {names[i]}^p overlap", lhs, rhs)

    col.consistency = ConsistencyReport(consistent=not failures, failures=tuple(failures))
    return col.consistency
