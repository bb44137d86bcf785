"""Finite categories as explicit composition tables.

Everything here is small enough to check exhaustively: category and
functor laws, comma categories over a cospan, fiber categories of a
functor, and the functors between fibers that morphisms of the target
category induce.  Hard caps of 64 objects and 512 morphisms keep
accidental blow-ups loud.

The infinite geometric categories elsewhere in this package do not pass
through this module; it exists to validate the categorical constructions
where every law can be enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CapacityError",
    "FinCategory",
    "FinFunctor",
    "Cospan",
    "CommaCat",
    "Fiber",
    "build_comma",
    "fiber_category",
    "induced_fiber_functor",
    "verify_category",
    "verify_functor",
    "parse_cospan_text",
]

DEFAULT_MAX_OBJECTS = 64
DEFAULT_MAX_MORPHISMS = 512


class CapacityError(ValueError):
    """Construction would exceed the object/morphism caps."""


class FinCategory:
    """Finite category: indexed objects and morphisms, total composition
    table on composable pairs.

    ``composition[(f, g)]`` is the composite "g after f", defined exactly
    when target(f) == source(g).  Laws are not enforced on construction;
    run ``verify_category`` to get a violation report.
    """

    def __init__(self, object_names, morphisms, identity, composition):
        # morphisms: sequence of (name, source index, target index)
        self.object_names = tuple(object_names)
        self.morphism_names = tuple(m[0] for m in morphisms)
        self.source = tuple(m[1] for m in morphisms)
        self.target = tuple(m[2] for m in morphisms)
        self.identity = tuple(identity)
        self.composition = dict(composition)
        if len(self.object_names) > DEFAULT_MAX_OBJECTS:
            raise CapacityError(
                f"{len(self.object_names)} objects exceed the cap {DEFAULT_MAX_OBJECTS}"
            )
        if len(self.morphism_names) > DEFAULT_MAX_MORPHISMS:
            raise CapacityError(
                f"{len(self.morphism_names)} morphisms exceed the cap {DEFAULT_MAX_MORPHISMS}"
            )
        if len(self.identity) != len(self.object_names):
            raise ValueError("one identity morphism per object required")
        for f in list(self.source) + list(self.target):
            if not 0 <= f < len(self.object_names):
                raise ValueError("morphism endpoint out of range")
        # adjacency index, morphisms ascending; composition is never
        # indexed because callers may edit the table after construction
        outgoing = [[] for _ in self.object_names]
        homs = {}
        for f, (a, b) in enumerate(zip(self.source, self.target)):
            outgoing[a].append(f)
            homs.setdefault((a, b), []).append(f)
        self.outgoing = tuple(tuple(fs) for fs in outgoing)
        self.homs = {key: tuple(fs) for key, fs in homs.items()}

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphism_names)

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return self.homs.get((a, b), ())

    def compose(self, f: int, g: int) -> int:
        """g after f; KeyError when the pair is not in the table."""
        return self.composition[(f, g)]

    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        return (
            self.object_names == other.object_names
            and self.morphism_names == other.morphism_names
            and self.source == other.source
            and self.target == other.target
            and self.identity == other.identity
            and self.composition == other.composition
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"FinCategory({self.n_objects} objects, {self.n_morphisms} morphisms)"
        )


def verify_category(c: FinCategory) -> list[str]:
    """Exhaustive law check; returns one message per violation.

    Visits only composable pairs and triples, plus the pairs the table
    defines without being composable; messages come in the order of
    (f, g) and (f, g, h) ascending.  A table entry that names no morphism
    is reported once, in table order, and is never used as an index.
    """
    bad = []
    for x, e in enumerate(c.identity):
        if not 0 <= e < c.n_morphisms:
            bad.append(f"identity of object {c.object_names[x]} out of range")
            continue
        if c.source[e] != x or c.target[e] != x:
            bad.append(f"identity of {c.object_names[x]} is not an endomorphism")
    names, source, target, outgoing = c.morphism_names, c.source, c.target, c.outgoing
    m = c.n_morphisms
    get = c.composition.get
    stray = {}
    for (f, g), h in c.composition.items():
        if not (0 <= f < m and 0 <= g < m and 0 <= h < m):
            bad.append(f"composition entry ({f}, {g}) -> {h} names no morphism")
        elif target[f] != source[g]:
            stray.setdefault(f, []).append(g)
    missing = object()
    for f in range(m):
        gs = outgoing[target[f]]
        if f in stray:
            gs = sorted(gs + tuple(stray[f]))
        for g in gs:
            h = get((f, g), missing)
            if target[f] != source[g]:
                bad.append(f"composite of non-composable {names[f]}, {names[g]}")
            elif h is missing:
                bad.append(f"missing composite of {names[f]} then {names[g]}")
            elif 0 <= h < m and (source[h] != source[f] or target[h] != target[g]):
                bad.append(f"composite {names[f]};{names[g]} has wrong endpoints")
    # identity laws, grouped by object as in a scan over (x, f)
    by_object = [[] for _ in range(c.n_objects)]
    for f in range(m):
        if get((c.identity[source[f]], f)) != f:
            by_object[source[f]].append(f"left identity fails at {names[f]}")
        if get((f, c.identity[target[f]])) != f:
            by_object[target[f]].append(f"right identity fails at {names[f]}")
    for msgs in by_object:
        bad.extend(msgs)
    # g . h for every g, read once; then (f, g, h) with h leaving target(g)
    after = [[(h, get((g, h))) for h in outgoing[target[g]]] for g in range(m)]
    for f in range(m):
        for g in outgoing[target[f]]:
            fg = get((f, g))
            for h, gh in after[g]:
                if get((fg, h)) != get((f, gh)):
                    bad.append(
                        "associativity fails on "
                        f"({names[f]}, {names[g]}, {names[h]})"
                    )
    return bad


class FinFunctor:
    """Functor between finite categories as index maps."""

    def __init__(self, dom: FinCategory, cod: FinCategory, object_map, morphism_map,
                 name: str = ""):
        self.dom = dom
        self.cod = cod
        self.object_map = tuple(object_map)
        self.morphism_map = tuple(morphism_map)
        self.name = name
        if len(self.object_map) != dom.n_objects:
            raise ValueError("object map arity mismatch")
        if len(self.morphism_map) != dom.n_morphisms:
            raise ValueError("morphism map arity mismatch")

    def __repr__(self):
        return f"FinFunctor({self.name or 'unnamed'})"


def verify_functor(fun: FinFunctor) -> list[str]:
    """Exhaustive functor-law check; returns one message per violation.

    An index out of range is reported once and skips the checks that
    would look it up."""
    bad = []
    dom, cod = fun.dom, fun.cod
    m = dom.n_morphisms
    for x in range(dom.n_objects):
        if not 0 <= fun.object_map[x] < cod.n_objects:
            bad.append(f"object image of {dom.object_names[x]} out of range")
    for f in range(m):
        ff = fun.morphism_map[f]
        if not 0 <= ff < cod.n_morphisms:
            bad.append(f"morphism image of {dom.morphism_names[f]} out of range")
            continue
        if cod.source[ff] != fun.object_map[dom.source[f]]:
            bad.append(f"source not preserved at {dom.morphism_names[f]}")
        if cod.target[ff] != fun.object_map[dom.target[f]]:
            bad.append(f"target not preserved at {dom.morphism_names[f]}")
    for x, e in enumerate(dom.identity):
        y = fun.object_map[x]
        if not 0 <= e < m:
            bad.append(f"domain identity of {dom.object_names[x]} out of range")
        elif 0 <= y < cod.n_objects and fun.morphism_map[e] != cod.identity[y]:
            bad.append(f"identity of {dom.object_names[x]} not preserved")
    for (f, g), h in dom.composition.items():
        if not (0 <= f < m and 0 <= g < m and 0 <= h < m):
            bad.append(f"domain composition entry ({f}, {g}) -> {h} names no morphism")
            continue
        img = cod.composition.get((fun.morphism_map[f], fun.morphism_map[g]))
        if img != fun.morphism_map[h]:
            bad.append(
                "composition not preserved on "
                f"({dom.morphism_names[f]}, {dom.morphism_names[g]})"
            )
    return bad


@dataclass
class Cospan:
    """source --S--> base <--T-- target."""

    source_cat: FinCategory
    base_cat: FinCategory
    target_cat: FinCategory
    s: FinFunctor
    t: FinFunctor

    def __post_init__(self):
        if self.s.dom != self.source_cat or self.s.cod != self.base_cat:
            raise ValueError("S must map the source category to the base")
        if self.t.dom != self.target_cat or self.t.cod != self.base_cat:
            raise ValueError("T must map the target category to the base")


@dataclass
class CommaCat:
    """Comma category of a cospan.

    Objects are triples (v, x, h) with h: S(v) -> T(x) in the base;
    morphisms are pairs (g_s, g_t) making the square commute.  ``cat`` is
    the underlying finite category; ``pi_s`` and ``pi_t`` the projections.
    """

    cospan: Cospan
    cat: FinCategory
    triples: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[int, int], ...]
    pi_s: FinFunctor
    pi_t: FinFunctor


def build_comma(cospan: Cospan) -> CommaCat:
    """Enumerate the comma category of a cospan of finite categories."""
    cs, base, ct = cospan.source_cat, cospan.base_cat, cospan.target_cat
    s, t = cospan.s, cospan.t

    triples = []
    for v in range(cs.n_objects):
        for x in range(ct.n_objects):
            for h in base.hom(s.object_map[v], t.object_map[x]):
                triples.append((v, x, h))
    if len(triples) > DEFAULT_MAX_OBJECTS:
        raise CapacityError(
            f"comma category has {len(triples)} objects, cap is {DEFAULT_MAX_OBJECTS}"
        )

    # arrow (i, j, gs, gt) from triple i to triple j when h2 . S(gs) == T(gt) . h1
    arrows = []
    leaving = [[] for _ in triples]
    for i, (v1, x1, h1) in enumerate(triples):
        for j, (v2, x2, h2) in enumerate(triples):
            for gs in cs.hom(v1, v2):
                for gt in ct.hom(x1, x2):
                    if base.compose(s.morphism_map[gs], h2) == base.compose(
                        h1, t.morphism_map[gt]
                    ):
                        leaving[i].append(len(arrows))
                        arrows.append((i, j, gs, gt))
    if len(arrows) > DEFAULT_MAX_MORPHISMS:
        raise CapacityError(
            f"comma category has {len(arrows)} morphisms, cap is {DEFAULT_MAX_MORPHISMS}"
        )

    index = {arrow: k for k, arrow in enumerate(arrows)}
    composition = {}
    for k1, (i, j, gs1, gt1) in enumerate(arrows):
        for k2 in leaving[j]:
            _, j2, gs2, gt2 = arrows[k2]
            composition[(k1, k2)] = index[
                (i, j2, cs.compose(gs1, gs2), ct.compose(gt1, gt2))
            ]

    identity = [
        index[(i, i, cs.identity[v], ct.identity[x])]
        for i, (v, x, _) in enumerate(triples)
    ]
    object_names = [
        f"({cs.object_names[v]},{ct.object_names[x]},{base.morphism_names[h]})"
        for v, x, h in triples
    ]
    cat = FinCategory(
        object_names,
        [
            (f"({cs.morphism_names[gs]},{ct.morphism_names[gt]})", i, j)
            for i, j, gs, gt in arrows
        ],
        identity,
        composition,
    )
    pairs = tuple((gs, gt) for _, _, gs, gt in arrows)
    pi_s = FinFunctor(
        cat, cs, [v for v, _, _ in triples], [gs for gs, _ in pairs], name="pi_s"
    )
    pi_t = FinFunctor(
        cat, ct, [x for _, x, _ in triples], [gt for _, gt in pairs], name="pi_t"
    )
    return CommaCat(cospan, cat, tuple(triples), pairs, pi_s, pi_t)


@dataclass
class Fiber:
    """Fiber of a functor over an object: the subcategory sent to it and
    its identity."""

    cat: FinCategory
    object_ids: tuple[int, ...]
    morphism_ids: tuple[int, ...]


def fiber_category(fun: FinFunctor, b: int) -> Fiber:
    """Objects mapped to b, morphisms mapped to id_b."""
    if not 0 <= b < fun.cod.n_objects:
        raise ValueError(f"no object {b} in the codomain")
    dom = fun.dom
    id_b = fun.cod.identity[b]
    objects = [x for x in range(dom.n_objects) if fun.object_map[x] == b]
    morphisms = [f for f in range(dom.n_morphisms) if fun.morphism_map[f] == id_b]
    # morphisms over id_b connect objects over b automatically
    obj_index = {x: i for i, x in enumerate(objects)}
    mor_index = {f: k for k, f in enumerate(morphisms)}
    cat = FinCategory(
        [dom.object_names[x] for x in objects],
        [
            (dom.morphism_names[f], obj_index[dom.source[f]], obj_index[dom.target[f]])
            for f in morphisms
        ],
        [mor_index[dom.identity[x]] for x in objects],
        {
            (mor_index[f], mor_index[g]): mor_index[h]
            for (f, g), h in dom.composition.items()
            if f in mor_index and g in mor_index
        },
    )
    return Fiber(cat, tuple(objects), tuple(morphisms))


def induced_fiber_functor(comma: CommaCat, f: int) -> FinFunctor:
    """Functor between fibers of pi_t induced by f: X1 -> X2.

    On objects (v, X1, h) |-> (v, X2, T(f) . h); morphisms keep their
    source leg.
    """
    ct = comma.cospan.target_cat
    x1, x2 = ct.source[f], ct.target[f]
    fib1 = fiber_category(comma.pi_t, x1)
    fib2 = fiber_category(comma.pi_t, x2)
    tf = comma.cospan.t.morphism_map[f]
    object_of = {comma.triples[obj]: k for k, obj in enumerate(fib2.object_ids)}
    # every morphism over x2 is (gs, id_x2): its endpoints and gs name it
    morphism_of = {
        (fib2.cat.source[k], fib2.cat.target[k], comma.pairs[mor][0]): k
        for k, mor in enumerate(fib2.morphism_ids)
    }

    object_map = []
    for obj in fib1.object_ids:
        v, _, h = comma.triples[obj]
        object_map.append(object_of[(v, x2, comma.cospan.base_cat.compose(h, tf))])
    morphism_map = []
    for k1, mor in enumerate(fib1.morphism_ids):
        src, tgt = object_map[fib1.cat.source[k1]], object_map[fib1.cat.target[k1]]
        k = morphism_of.get((src, tgt, comma.pairs[mor][0]))
        if k is None:
            raise RuntimeError("induced image of a fiber morphism is missing")
        morphism_map.append(k)
    return FinFunctor(
        fib1.cat,
        fib2.cat,
        object_map,
        morphism_map,
        name=f"induced[{ct.morphism_names[f]}]",
    )


# --- cospan text format ----------------------------------------------------

class CospanParseError(ValueError):
    """Cospan-file syntax error with a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_category_block(lines, start, name):
    """Parse object/arrow/compose lines until 'end'.  Identities are
    implicit; composites of non-identity arrows come from 'compose' rows
    (``compose g . f = h`` means g after f)."""
    objects: list[str] = []
    arrows: list[tuple[int, str, str, str]] = []
    compose_rows: list[tuple[int, str, str, str]] = []
    header = lines[start - 1][0]
    i = start
    while i < len(lines):
        lineno, line = lines[i]
        i += 1
        if line == "end":
            return _assemble_category(header, name, objects, arrows, compose_rows), i
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "objects":
            for x in rest.split():
                if x in objects:
                    raise CospanParseError(
                        lineno, f"category {name!r}: duplicate object {x!r}"
                    )
                objects.append(x)
        elif head == "arrow":
            try:
                decl, endpoints = rest.split(":")
                src, tgt = endpoints.split("->")
            except ValueError:
                raise CospanParseError(lineno, "expected 'arrow f : a -> b'") from None
            arrows.append((lineno, decl.strip(), src.strip(), tgt.strip()))
        elif head == "compose":
            try:
                left, result = rest.split("=")
                second, first = left.split(".")
            except ValueError:
                raise CospanParseError(
                    lineno, "expected 'compose g . f = h'"
                ) from None
            compose_rows.append((lineno, second.strip(), first.strip(), result.strip()))
        else:
            raise CospanParseError(lineno, f"unrecognized line {line!r}")
    raise CospanParseError(header, f"category {name!r} missing 'end'")


def _assemble_category(header, name, objects, arrows, compose_rows):
    # identities are implicit, so each object is a morphism too
    for count, cap, kind in (
        (len(objects), DEFAULT_MAX_OBJECTS, "objects"),
        (len(objects) + len(arrows), DEFAULT_MAX_MORPHISMS, "morphisms"),
    ):
        if count > cap:
            raise CospanParseError(
                header, f"category {name!r}: {count} {kind} exceed the cap {cap}"
            )
    obj_index = {x: i for i, x in enumerate(objects)}
    morphisms = [(f"id_{x}", i, i) for i, x in enumerate(objects)]
    mor_index = {f"id_{x}": i for i, x in enumerate(objects)}
    for lineno, label, src, tgt in arrows:
        if src not in obj_index or tgt not in obj_index:
            raise CospanParseError(
                lineno, f"category {name!r}: arrow {label!r} uses unknown object"
            )
        if label in mor_index:
            raise CospanParseError(lineno, f"category {name!r}: duplicate arrow {label!r}")
        mor_index[label] = len(morphisms)
        morphisms.append((label, obj_index[src], obj_index[tgt]))
    composition = {}
    # identity rows
    for k, (label, src, tgt) in enumerate(morphisms):
        composition[(mor_index[f"id_{objects[src]}"], k)] = k
        composition[(k, mor_index[f"id_{objects[tgt]}"])] = k
    for lineno, second, first, result in compose_rows:
        for piece in (second, first, result):
            if piece not in mor_index:
                raise CospanParseError(lineno, f"unknown arrow {piece!r}")
        composition[(mor_index[first], mor_index[second])] = mor_index[result]
    return FinCategory(objects, morphisms, [mor_index[f"id_{x}"] for x in objects],
                       composition)


def _parse_functor_block(lines, start, name, dom, cod):
    """Parse 'obj a = b' and 'arrow f = g' rows until 'end'.  Identities of
    the domain map to identities and take no row; every other object and
    arrow needs exactly one."""
    dom_obj = {x: i for i, x in enumerate(dom.object_names)}
    dom_mor = {x: i for i, x in enumerate(dom.morphism_names)}
    identity_of = {f: x for x, f in enumerate(dom.identity)}
    header = lines[start - 1][0]
    rows = {"obj": {}, "arrow": {}}  # kind -> domain name -> (lineno, image)
    i = start
    while i < len(lines):
        lineno, line = lines[i]
        i += 1
        if line == "end":
            break
        head, _, rest = line.partition(" ")
        try:
            left, right = rest.split("=")
        except ValueError:
            raise CospanParseError(lineno, "expected 'obj a = b' or 'arrow f = g'") from None
        left, right = left.strip(), right.strip()
        if head == "obj":
            known, kind = dom_obj, "object"
        elif head == "arrow":
            known, kind = dom_mor, "arrow"
        else:
            raise CospanParseError(lineno, f"unrecognized line {line!r}")
        if left not in known:
            raise CospanParseError(
                lineno, f"functor {name!r}: unknown domain {kind} {left!r}"
            )
        if head == "arrow" and dom_mor[left] in identity_of:
            raise CospanParseError(
                lineno, f"functor {name!r}: identity arrow {left!r} takes no row"
            )
        if left in rows[head]:
            raise CospanParseError(
                lineno, f"functor {name!r}: duplicate row for {kind} {left!r}"
            )
        rows[head][left] = (lineno, right)
    else:
        raise CospanParseError(header, f"functor {name!r} missing 'end'")

    def image(kind, x, images, index):
        if x not in images:
            raise CospanParseError(header, f"functor {name!r}: no image for {kind} {x!r}")
        lineno, y = images[x]
        if y not in index:
            raise CospanParseError(lineno, f"functor {name!r}: unknown image {kind} {y!r}")
        return index[y]

    cod_obj = {x: i for i, x in enumerate(cod.object_names)}
    cod_mor = {x: i for i, x in enumerate(cod.morphism_names)}
    object_map = [image("object", x, rows["obj"], cod_obj) for x in dom.object_names]
    morphism_map = [
        cod.identity[object_map[identity_of[f]]] if f in identity_of
        else image("arrow", label, rows["arrow"], cod_mor)
        for f, label in enumerate(dom.morphism_names)
    ]
    return FinFunctor(dom, cod, object_map, morphism_map, name=name), i


def parse_cospan_text(text: str) -> Cospan:
    """Parse a cospan file: categories ``source``, ``base``, ``target``
    and functors ``S : source -> base``, ``T : target -> base``."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    categories = {}
    functors = {}
    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        head, _, rest = line.partition(" ")
        if head == "category":
            name = rest.strip()
            if not name:
                raise CospanParseError(lineno, "category needs a name")
            if name in categories:
                raise CospanParseError(lineno, f"duplicate category {name!r}")
            cat, i = _parse_category_block(lines, i + 1, name)
            categories[name] = cat
        elif head == "functor":
            try:
                name, arrow_part = rest.split(":")
                dom_name, cod_name = arrow_part.split("->")
            except ValueError:
                raise CospanParseError(
                    lineno, "expected 'functor S : source -> base'"
                ) from None
            name = name.strip()
            if name in functors:
                raise CospanParseError(lineno, f"duplicate functor {name!r}")
            dom_name, cod_name = dom_name.strip(), cod_name.strip()
            if dom_name not in categories or cod_name not in categories:
                raise CospanParseError(lineno, "functor references unknown category")
            fun, i = _parse_functor_block(
                lines, i + 1, name, categories[dom_name], categories[cod_name]
            )
            functors[name] = fun
        else:
            raise CospanParseError(lineno, f"unrecognized line {line!r}")
    for required in ("source", "base", "target"):
        if required not in categories:
            raise ValueError(f"missing category {required!r}")
    for required in ("S", "T"):
        if required not in functors:
            raise ValueError(f"missing functor {required!r}")
    return Cospan(
        categories["source"],
        categories["base"],
        categories["target"],
        functors["S"],
        functors["T"],
    )
