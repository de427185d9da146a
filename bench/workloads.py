"""Inputs of the benchmark workloads.

Every workload is a fixed stream of inputs made in passes, and a run
makes the calls of its first few passes.  No polynomial support repeats
within a stream, so a cache kept across calls of one process cannot
make a later call cheaper than it would be as a fresh CLI process.

The run seed orders the calls of each pass and changes nothing else.
The cost of a call follows its polytope and the order of its variables,
which between random inputs of one shape ranges over two orders of
magnitude; seeds that drew or relabelled inputs would make runs of one
program disagree by more than any bound worth setting.  As every seed
makes the same calls, the outputs stored in bench/reference check the
calls of every seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Sequence, Tuple

from newtonspec.poly import GLOBAL, LOCAL, Poly

# -- copy of the acceptance-corpus generator in tests/conftest.py ------
# Kept here so that an edit to the tests cannot silently change a
# workload; bench/test_bench.py checks that both yield the same corpus.

CORPUS_SEED = 20250811
N_TWO_VAR = 36
N_THREE_VAR = 16

NON_SIMPLICIAL_SUPPORTS = [
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)],
    [(2, 0, 0), (0, 2, 0), (2, 0, 2), (0, 2, 2), (0, 0, 3)],
    [(1, 0, 0), (0, 2, 0), (1, 0, 2), (0, 2, 2), (0, 0, 3)],
    [(3, 0, 0), (0, 3, 0), (0, 0, 2), (3, 0, 1), (0, 3, 1)],
]


def random_convenient_poly(rng: random.Random, n: int) -> Poly:
    names = tuple("uvw"[:n])
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(1, 6)
        terms[tuple(e)] = Fraction(rng.randint(1, 999983))
    for _ in range(rng.randint(1, n + 2)):
        v = tuple(rng.randint(0, 6) for _ in range(n))
        if any(v):
            terms[v] = Fraction(rng.randint(1, 999983))
    return Poly(names=names, terms=terms, mode=GLOBAL)


def acceptance_corpus() -> List[Poly]:
    """The acceptance corpus, in the order tests/conftest.py builds it."""
    rng = random.Random(CORPUS_SEED)
    polys = [random_convenient_poly(rng, 2) for _ in range(N_TWO_VAR)]
    polys += [random_convenient_poly(rng, 3) for _ in range(N_THREE_VAR)]
    for sup in NON_SIMPLICIAL_SUPPORTS:
        terms = {v: Fraction(rng.randint(1, 999983)) for v in sup}
        polys.append(Poly(names=("u", "v", "w"), terms=terms, mode=GLOBAL))
    return polys


# -- streams -------------------------------------------------------------

COEFF_MAX = 999983
INPUT_SEED = 1      # the hull and local inputs are drawn once, from this seed


def _relabel(p: Poly, perm: Sequence[int]) -> Poly:
    """p with its variables permuted: exponent j of a term becomes v[perm[j]]."""
    terms = {tuple(v[i] for i in perm): c for v, c in p.terms.items()}
    return Poly(names=p.names, terms=terms, mode=p.mode)


def _distinct(polys, seen: set) -> List[Poly]:
    """Drop the polynomials whose support appeared before in the stream."""
    out = []
    for p in polys:
        key = p.support()
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def corpus_passes() -> Iterator[List[Poly]]:
    """Pass k holds every corpus input under its k-th variable ordering.

    Pass 0 is the acceptance corpus itself.  Relabelling keeps an input's
    polytope, so the later passes weigh about as much as the first; an
    input whose orderings are used up, or whose relabelled support
    already ran, drops out.
    """
    corpus = acceptance_corpus()
    orderings = [list(itertools.permutations(range(p.nvars))) for p in corpus]
    seen: set = set()
    for k in range(max(len(o) for o in orderings)):
        yield _distinct([_relabel(p, o[k]) for p, o in zip(corpus, orderings) if k < len(o)], seen)


def _random_support(rng, n, emax, extra) -> dict:
    """Pure powers on every axis plus ``extra`` distinct mixed monomials."""
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(2, emax)
        terms[tuple(e)] = Fraction(rng.randint(1, COEFF_MAX))
    while len(terms) < n + extra:
        v = tuple(rng.randint(0, emax) for _ in range(n))
        if sum(1 for x in v if x) >= 2 and v not in terms:
            terms[v] = Fraction(rng.randint(1, COEFF_MAX))
    return terms


# One slot per input of a pass: (n, exponent bound, mixed monomials).  The
# inputs are drawn slot by slot, so the slot order is part of the inputs.
HULL_SLOTS = [(4, 4, 6), (5, 3, 4), (4, 4, 8), (5, 3, 6), (4, 4, 10), (5, 3, 8), (4, 4, 12)]
LOCAL_SLOTS = [(2, 16, 1), (3, 8, 1), (2, 16, 2), (4, 3, 1), (3, 8, 2), (2, 16, 3)]


def slot_passes(slots, mode: str) -> Callable[[], Iterator[List[Poly]]]:
    """Passes of random inputs drawn from INPUT_SEED, one per slot."""

    def passes() -> Iterator[List[Poly]]:
        rng = random.Random(f"{mode}:{INPUT_SEED}")
        seen: set = set()
        while True:
            yield _distinct([
                Poly(names=tuple("xyzwt"[:n]), mode=mode, terms=_random_support(rng, n, emax, extra))
                for n, emax, extra in slots
            ], seen)

    return passes


@dataclass(frozen=True)
class Workload:
    name: str
    command: Tuple[str, ...]          # CLI command and its flags
    passes: Callable[[], Iterator[List[Poly]]]
    # Wall time of one pass at the commit that defined the benchmark (one
    # core of a 2-core x86-64 host, Python 3.11); fixes how many passes a
    # run of --seconds makes, so that every commit makes the same calls.
    pass_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-check", ("check",), corpus_passes, 20.0),
        Workload("corpus-table", ("product-table",), corpus_passes, 24.0),
        Workload("hull-n4n5", ("volume",), slot_passes(HULL_SLOTS, GLOBAL), 3.6),
        Workload("local-germs", ("check", "--local"), slot_passes(LOCAL_SLOTS, LOCAL), 2.1),
    )
}


def argv_for(workload: Workload, p: Poly) -> List[str]:
    """CLI arguments for one call; --vars pins the variable order."""
    return [workload.command[0], str(p), *workload.command[1:], "--vars", ",".join(p.names)]


def run_calls(workload: Workload, seed: int, seconds: float) -> List[List[str]]:
    """The calls of one run: the whole passes that took about ``seconds``,
    each pass in the order ``seed`` gives it."""
    count = max(1, round(seconds / workload.pass_seconds))
    out = []
    for k, batch in enumerate(itertools.islice(workload.passes(), count)):
        random.Random(f"order:{seed}:{k}").shuffle(batch)
        out += [argv_for(workload, p) for p in batch]
    return out
