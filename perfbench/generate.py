"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same presentation text, byte for byte.  pgclass only ever sees the text.

Class-2 presentations have top generators x1..xr and central generators
c1..cm (all declared after the x's).  Every commutator [xj,xi] and every
power xi^p is a word in the c's, and the c's are central of order p, so
the group has class at most 2; at least one commutator is nontrivial, so
the class is exactly 2.  Class-2 groups are flat (cl(g) = g[g,G]), hence
GVZ, which is the expectation the checkers use for these inputs.
"""

from __future__ import annotations

import random

# census strata: (p, n, files) with n the number of generators, so
# |G| = p^n; few of the largest orders, so that per-file fixed costs
# dominate the census rather than a handful of big tables
CENSUS_STRATA = ((3, 3, 25), (3, 4, 25), (3, 5, 20), (3, 6, 8),
                 (5, 3, 25), (5, 4, 12), (5, 5, 3))
CENSUS_PRIMES = (3, 5)
CENSUS_MAX_ORDER_EXP = 5  # corpus entries of order <= p^5 join the census


def _word(rng: random.Random, names: list[str], p: int, nonzero: bool) -> str:
    exps = [rng.randrange(p) for _ in names]
    if nonzero and not any(exps):
        exps[rng.randrange(len(names))] = rng.randrange(1, p)
    terms = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return " ".join(terms) if terms else "1"


def _pfaffian(b: dict, p: int) -> int:
    """Pfaffian mod p of a 4x4 alternating matrix given by b[(j, i)], j > i."""
    return (b[(1, 0)] * b[(3, 2)] - b[(2, 0)] * b[(3, 1)] + b[(3, 0)] * b[(2, 1)]) % p


def _anisotropic_pencil(rng: random.Random, p: int) -> list[list[int]]:
    """Commutator exponent rows (one per pair j > i of four top generators,
    over two central generators) such that every nonzero combination of
    the two alternating forms is nondegenerate.  Then every noncentral
    element has p^2 conjugates, so the class count is fixed."""
    pairs = [(j, i) for j in range(4) for i in range(j)]
    while True:
        rows = [[rng.randrange(p), rng.randrange(p)] for _ in pairs]
        forms = [{pr: row[t] for pr, row in zip(pairs, rows)} for t in range(2)]

        def pf(a, b):
            return _pfaffian({pr: a * forms[0][pr] + b * forms[1][pr] for pr in pairs}, p)

        if pf(1, 0) and all(pf(t, 1) for t in range(p)):
            return rows


def class2_text(rng: random.Random, name: str, p: int, r: int, m: int,
                comm_rows: list[list[int]] | None = None) -> str:
    """Text of a random class-2 presentation with r top and m central generators.

    comm_rows, if given, fixes the exponents of the central generators in
    each commutator [xj,xi] (pairs in the order (1,0), (2,0), (2,1), ...);
    otherwise they are random."""
    xs = [f"x{i + 1}" for i in range(r)]
    cs = [f"c{i + 1}" for i in range(m)]
    pairs = [(j, i) for j in range(r) for i in range(j)]
    if comm_rows is not None:
        comm_words = [
            " ".join(c if e == 1 else f"{c}^{e}" for c, e in zip(cs, row) if e) or "1"
            for row in comm_rows
        ]
    else:
        comm_words = [_word(rng, cs, p, nonzero=False) for _ in pairs]
        if all(w == "1" for w in comm_words):
            comm_words[rng.randrange(len(pairs))] = _word(rng, cs, p, nonzero=True)
    lines = [f"group {name} prime {p}", "gens " + " ".join(xs + cs)]
    for x in xs:
        w = _word(rng, cs, p, nonzero=False)
        if w != "1":
            lines.append(f"pow {x}^p = {w}")
    for (j, i), w in zip(pairs, comm_words):
        if w != "1":
            lines.append(f"comm [{xs[j]},{xs[i]}] = {w}")
    return "\n".join(lines) + "\n"


def _spread(strata: list[list]) -> list:
    """One list in which the items of each stratum are evenly spaced."""
    keyed = [((t + 0.5) / len(items), s, t) for s, items in enumerate(strata)
             for t in range(len(items))]
    return [strata[s][t] for _, s, t in sorted(keyed)]


def census_texts(seed: int) -> dict[str, str]:
    """File name -> text of the random class-2 part of the census.

    Each (p, n) stratum gets a fixed number of files, and the number of
    top generators cycles through 2..n-1, so the amount of work changes
    little from seed to seed; the seed picks the relation words.  The
    census works through files in name order, and the names spread each
    stratum evenly over that order, so the few large groups are never
    classified side by side when the pool has more than one worker."""
    rng = random.Random(f"census:{seed}")
    strata = [[(p, n, 2 + t % (n - 2)) for t in range(files)]
              for p, n, files in CENSUS_STRATA]
    out = {}
    for rank, (p, n, r) in enumerate(_spread(strata)):
        name = f"rand{rank:03d}_p{p}_n{n}"
        out[name + ".pg"] = class2_text(rng, name, p, r, n - r)
    return out


def p7_class2_text(seed: int) -> str:
    """A random class-2 group of order 7^6 with four top and two central
    generators, whose class sizes are fixed (2449 classes for every seed)."""
    rng = random.Random(f"classify-p7:{seed}")
    return class2_text(rng, "rand_class2_p7", 7, 4, 2, _anisotropic_pencil(rng, 7))
