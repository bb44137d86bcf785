"""Seeded workload generators for the tauclass CLI benchmark.

A workload is a list of requests, each an argv list for
``tauclass.cli.main`` plus, for ``comma`` and ``complete``, the text of
an input file.  ``build(workload, seed)`` is a pure function of its
arguments: the same seed gives byte-identical argv lists and files.

Every request any seed can produce comes from a finite pool
(``pool(workload)``), so the stdout digest of each one can be recorded
once and compared on every later run (``reference_digests.json``).

Why the pools look the way they do: the figures of runs with different
seeds must agree, so a seed may change *what* is computed but must
barely change *how much*.  Each workload states how it
keeps its cost independent of the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

WORKLOADS = {
    "group-suites": (
        "check suites naturality, multiplicativity and const-diagram: the "
        "group layer (relk canonical classes), constr, FormalSum and "
        "geom pushforward/cross over many small classes"
    ),
    "verdier-rr": (
        "check verdier-rr at max-dim 5: 2284 checks on small Q and Q[y] "
        "classes, pullback and cached multiplicative classes, 2 MB of JSON"
    ),
    "classes-ladder": (
        "classes of Pn for chern/todd/l with n near 70 and ty with n near 22, "
        "plus genus: big dense polynomials, no relk/geom/constr, no cache reuse"
    ),
    "structures": (
        "comma categories of seeded poset cospans and group completions of "
        "seeded monoid presentations: the only workload reaching cat and "
        "abelian.smith_normal_form"
    ),
}

INPUT = "{input}"  # argv placeholder for the request's input file

# group-suites: one suite seed moves a suite's cost by up to +-30%, so the
# pass runs a fixed block of suite seeds (which fills the same caches
# whatever the order) and the benchmark seed only orders the requests.
GROUP_SEEDS_DIM5 = (7, 8)
GROUP_SEEDS_DIM6 = (7,)

# verdier-rr: the suite seed moves only the 40 extra random cases.
VERDIER_SEEDS = 16

# classes-ladder: costs grow like n^3 (chern) and faster for ty, so each
# class gets a pair n = centre +- d; the pair's total cost barely moves
# with d.  The genus of P(a) x P(b) x P(c) costs 0.004-0.3 s depending on
# the dimensions, so the seed only orders the factors of fixed shapes.
LADDER_CENTRE = 70
LADDER_SPREAD = 10
TY_CENTRE = 22
TY_SPREAD = 1
GENUS_SHAPES = ((1, 2, 3), (2, 2, 3), (2, 3, 4))

# structures: one comma or completion costs 0.005-0.1 s depending on the
# input, and a draw of 24 of them moved the pass time by +-25%, so a pass
# runs the whole pool and the seed orders it.  Cospans are kept between
# the morphism bounds below; presentations stay at or below 24
# generators, where group completion takes milliseconds (see README: 36
# generators took 54 s).
STRUCTURE_POOL = 32
COMMA_MAX_OBJECTS = 64
COMMA_MORPHISMS = (200, 480)
MONOID_GENERATORS = (16, 24)
MONOID_EXPONENT_MAX = 3


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``argv`` holds ``INPUT`` where the input file goes.

    ``expect`` names the closed form the output must satisfy, e.g.
    ``("chern", 70)``, ``("genus", (1, 3, 2))`` or
    ``("comma", objects, morphisms)``; empty when there is none.
    """

    argv: tuple[str, ...]
    input_text: str | None = None
    expect: tuple = ()

    @property
    def input_digest(self) -> str | None:
        if self.input_text is None:
            return None
        return hashlib.sha256(self.input_text.encode()).hexdigest()[:16]

    @property
    def key(self) -> str:
        """Stable identity of the request: argv with the input file
        replaced by a digest of its contents."""
        tag = f"@{self.input_digest}"
        return " ".join(tag if a == INPUT else a for a in self.argv)


def materialize(requests, directory: Path) -> list[list[str]]:
    """Write the input files into ``directory`` and return concrete argv lists."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for req in requests:
        argv = list(req.argv)
        if req.input_text is not None:
            path = directory / f"{req.input_digest}.txt"
            path.write_text(req.input_text, encoding="utf-8")
            argv = [str(path) if a == INPUT else a for a in argv]
        out.append(argv)
    return out


# --- group-suites and verdier-rr --------------------------------------------


def _check(suite: str, seed: int, max_dim: int | None = None) -> Request:
    argv = ["check", suite, "--seed", str(seed)]
    if max_dim is not None:
        argv += ["--max-dim", str(max_dim)]
    return Request(tuple(argv + ["--format", "json"]), expect=("check",))


def _group_block() -> list[Request]:
    out = [
        _check(suite, s)
        for s in GROUP_SEEDS_DIM5
        for suite in ("naturality", "multiplicativity", "const-diagram")
    ]
    out += [
        _check(suite, s, 6)
        for s in GROUP_SEEDS_DIM6
        for suite in ("naturality", "const-diagram")
    ]
    return out


def _group_suites(rng: random.Random) -> list[Request]:
    block = _group_block()
    rng.shuffle(block)
    return block


def _verdier(rng: random.Random) -> list[Request]:
    return [_check("verdier-rr", rng.randrange(VERDIER_SEEDS))]


# --- classes-ladder ---------------------------------------------------------


def _classes(klass: str, n: int) -> Request:
    argv = ("classes", f"P{n}", "--class", klass, "--max-degree", str(n), "--format", "json")
    return Request(argv, expect=(klass, n))


def _genus(dims: tuple[int, ...]) -> Request:
    space = " x ".join(f"P{d}" for d in dims)
    return Request(("genus", space, "--format", "json"), expect=("genus", dims))


def _ladder(rng: random.Random) -> list[Request]:
    out = []
    for klass in ("chern", "todd", "l"):
        d = rng.randint(0, LADDER_SPREAD)
        out += [_classes(klass, LADDER_CENTRE + d), _classes(klass, LADDER_CENTRE - d)]
    e = rng.randint(0, TY_SPREAD)
    out += [_classes("ty", TY_CENTRE + e), _classes("ty", TY_CENTRE - e)]
    out += [_genus(tuple(rng.sample(shape, len(shape)))) for shape in GENUS_SHAPES]
    rng.shuffle(out)
    return out


def _ladder_pool() -> list[Request]:
    out = [
        _classes(klass, n)
        for klass in ("chern", "todd", "l")
        for n in range(LADDER_CENTRE - LADDER_SPREAD, LADDER_CENTRE + LADDER_SPREAD + 1)
    ]
    out += [_classes("ty", n) for n in range(TY_CENTRE - TY_SPREAD, TY_CENTRE + TY_SPREAD + 1)]
    out += [_genus(dims) for shape in GENUS_SHAPES for dims in sorted(set(permutations(shape)))]
    return out


# --- structures -------------------------------------------------------------


def _random_poset(rng: random.Random, n: int, p: float) -> list[list[bool]]:
    """Order relation on 0..n-1 refining the numbering: random covering
    edges i < j with probability p, then the transitive closure."""
    less = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                less[i][j] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                for j in range(n):
                    if less[k][j]:
                        less[i][j] = True
    return less


def _chain(n: int) -> list[list[bool]]:
    return [[i <= j for j in range(n)] for i in range(n)]


def _category_lines(name: str, prefix: str, less) -> list[str]:
    n = len(less)
    arrows = [(i, j) for i in range(n) for j in range(n) if i != j and less[i][j]]
    lines = [f"category {name}", "objects " + " ".join(f"{prefix}{i}" for i in range(n))]
    lines += [f"arrow {prefix}{i}_{j} : {prefix}{i} -> {prefix}{j}" for i, j in arrows]
    for i, j in arrows:
        for k in range(n):
            if k != j and less[j][k]:
                lines.append(f"compose {prefix}{j}_{k} . {prefix}{i}_{j} = {prefix}{i}_{k}")
    lines.append("end")
    return lines


def _functor_lines(name, dom, cod, less, dom_prefix, cod_prefix, object_map) -> list[str]:
    n = len(less)
    lines = [f"functor {name} : {dom} -> {cod}"]
    lines += [f"obj {dom_prefix}{i} = {cod_prefix}{object_map[i]}" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and less[i][j]:
                a, b = object_map[i], object_map[j]
                image = f"id_{cod_prefix}{a}" if a == b else f"{cod_prefix}{a}_{b}"
                lines.append(f"arrow {dom_prefix}{i}_{j} = {image}")
    lines.append("end")
    return lines


def comma_size(source, base, target, s_map, t_map) -> tuple[int, int]:
    """Objects and morphisms of the comma category of poset functors.

    In a poset every square commutes, so objects are the pairs (v, x)
    with S(v) <= T(x) and morphisms the pairs of such objects ordered in
    both coordinates.  Independent of ``tauclass.cat``; used to check its
    output."""
    objects = [
        (v, x)
        for v in range(len(source))
        for x in range(len(target))
        if base[s_map[v]][t_map[x]]
    ]
    morphisms = sum(
        1
        for v1, x1 in objects
        for v2, x2 in objects
        if source[v1][v2] and target[x1][x2]
    )
    return len(objects), morphisms


def cospan_request(index: int, chain_shapes: set) -> Request:
    """Pool entry ``index``: a cospan source -> base <- target of posets
    over a chain base, redrawn until its comma category fits the bounds.

    Every fourth entry has chains on both sides; such a cospan is fixed by
    its shape (m, ns, nt), so a shape already in ``chain_shapes`` is
    redrawn too, and the new one is added."""
    rng = random.Random(f"cospan:{index}")
    while True:
        m = rng.randint(3, 5)
        ns, nt = rng.randint(5, 8), rng.randint(5, 8)
        chains = index % 4 == 0
        if chains:
            if (m, ns, nt) in chain_shapes:
                continue
            source, target = _chain(ns), _chain(nt)
        else:
            source = _random_poset(rng, ns, rng.uniform(0.3, 0.7))
            target = _random_poset(rng, nt, rng.uniform(0.3, 0.7))
        base = _chain(m)
        # the numbering refines the order, so scaling it is monotone
        s_map = [i * m // ns for i in range(ns)]
        t_map = [i * m // nt for i in range(nt)]
        objects, morphisms = comma_size(source, base, target, s_map, t_map)
        lo, hi = COMMA_MORPHISMS
        if objects <= COMMA_MAX_OBJECTS and lo <= morphisms <= hi:
            break
    if chains:
        chain_shapes.add((m, ns, nt))
    lines = (
        _category_lines("source", "s", source)
        + _category_lines("base", "b", base)
        + _category_lines("target", "t", target)
        + _functor_lines("S", "source", "base", source, "s", "b", s_map)
        + _functor_lines("T", "target", "base", target, "t", "b", t_map)
    )
    text = "\n".join(lines) + "\n"
    return Request(("comma", INPUT, "--format", "json"), text, ("comma", objects, morphisms))


def presentation_request(index: int) -> Request:
    """Pool entry ``index``: a commutative monoid presentation with as
    many relations as generators."""
    rng = random.Random(f"monoid:{index}")
    n = rng.randint(*MONOID_GENERATORS)
    lines = [f"gens: {n}"]
    for _ in range(n):
        u = " ".join(str(rng.randint(0, MONOID_EXPONENT_MAX)) for _ in range(n))
        v = " ".join(str(rng.randint(0, MONOID_EXPONENT_MAX)) for _ in range(n))
        lines.append(f"rel: {u} = {v}")
    text = "\n".join(lines) + "\n"
    return Request(("complete", INPUT, "--format", "json"), text)


def _structures_pool() -> list[Request]:
    chain_shapes: set = set()
    return [cospan_request(i, chain_shapes) for i in range(STRUCTURE_POOL)] + [
        presentation_request(i) for i in range(STRUCTURE_POOL)
    ]


def _structures(rng: random.Random) -> list[Request]:
    out = _structures_pool()
    rng.shuffle(out)
    return out


# --- entry points -----------------------------------------------------------

_BUILDERS = {
    "group-suites": _group_suites,
    "verdier-rr": _verdier,
    "classes-ladder": _ladder,
    "structures": _structures,
}


def build(workload: str, seed: int) -> list[Request]:
    """The requests one pass of the workload sends, in order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def pool(workload: str) -> list[Request]:
    """Every request ``build(workload, seed)`` can return, for any seed."""
    if workload == "group-suites":
        return _group_block()
    if workload == "verdier-rr":
        return [_check("verdier-rr", s) for s in range(VERDIER_SEEDS)]
    if workload == "classes-ladder":
        return _ladder_pool()
    if workload == "structures":
        return _structures_pool()
    raise ValueError(f"unknown workload {workload!r}")
