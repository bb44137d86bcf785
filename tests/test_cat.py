import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    build_comma_exhaustive,
    compose_functors,
    discrete_category,
    s_over_category,
    structure,
    verify_category_exhaustive,
)
from tauclass.cat import (
    CapacityError,
    Cospan,
    FinCategory,
    FinFunctor,
    build_comma,
    fiber_category,
    induced_fiber_functor,
    parse_cospan_text,
    verify_category,
    verify_functor,
)


def one_object_category():
    return discrete_category(["*"])


def walking_arrow():
    """Two objects, one non-identity arrow a -> b."""
    return FinCategory(
        ["a", "b"],
        [("id_a", 0, 0), ("id_b", 1, 1), ("f", 0, 1)],
        [0, 1],
        {
            (0, 0): 0,
            (1, 1): 1,
            (0, 2): 2,
            (2, 1): 2,
        },
    )


def identity_functor(c):
    return FinFunctor(c, c, range(c.n_objects), range(c.n_morphisms), name="id")


def constant_functor(dom, cod, obj):
    return FinFunctor(
        dom,
        cod,
        [obj] * dom.n_objects,
        [cod.identity[obj]] * dom.n_morphisms,
        name="const",
    )


def parallel_pair():
    """Two objects with two parallel non-identity arrows a -> b."""
    return FinCategory(
        ["a", "b"],
        [("id_a", 0, 0), ("id_b", 1, 1), ("u", 0, 1), ("v", 0, 1)],
        [0, 1],
        {
            (0, 0): 0,
            (1, 1): 1,
            (0, 2): 2,
            (2, 1): 2,
            (0, 3): 3,
            (3, 1): 3,
        },
    )


class TestVerify:
    def test_valid_categories(self):
        assert verify_category(one_object_category()) == []
        assert verify_category(walking_arrow()) == []
        assert verify_category(parallel_pair()) == []

    def test_broken_associativity_detected(self):
        # monoid on {e, s, t} with s.s = t and t absorbing, then corrupt
        # t.t so that (s.t).t != s.(t.t)
        table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
                 (1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}
        c = FinCategory(["*"], [("e", 0, 0), ("s", 0, 0), ("t", 0, 0)], [0], table)
        assert verify_category(c) == []
        c.composition[(2, 2)] = 1
        bad = verify_category(c)
        assert any("associativity" in msg and "(s, t, t)" in msg for msg in bad)

    def test_missing_composite_detected(self):
        c = walking_arrow()
        del c.composition[(0, 2)]
        bad = verify_category(c)
        assert any("missing composite" in msg or "identity" in msg for msg in bad)

    def test_functor_dropping_identity_detected(self):
        c = walking_arrow()
        fun = identity_functor(c)
        broken = FinFunctor(c, c, fun.object_map, [0, 0, 2])
        bad = verify_functor(broken)
        assert any("identity of b" in msg for msg in bad)

    def test_valid_functor(self):
        assert verify_functor(identity_functor(walking_arrow())) == []

    def test_composite_out_of_range_reported(self):
        c = discrete_category(["p", "q"])
        c.composition[(1, 1)] = 9
        assert verify_category(c) == [
            "composition entry (1, 1) -> 9 names no morphism",
            "left identity fails at id_q",
            "right identity fails at id_q",
        ]

    def test_entry_naming_no_morphism_reported(self):
        c = discrete_category(["p", "q"])
        c.composition[(0, 5)] = 0
        assert verify_category(c) == ["composition entry (0, 5) -> 0 names no morphism"]

    def test_functor_object_image_out_of_range_reported(self):
        fun = FinFunctor(
            discrete_category(["p", "q"]), discrete_category(["r"]), [0, 5], [0, 0]
        )
        assert verify_functor(fun) == [
            "object image of q out of range",
            "source not preserved at id_q",
            "target not preserved at id_q",
        ]

    def test_functor_domain_identity_out_of_range_reported(self):
        dom = discrete_category(["p", "q"])
        dom.identity = (0, 7)
        fun = FinFunctor(dom, discrete_category(["r"]), [0, 0], [0, 0])
        assert verify_functor(fun) == ["domain identity of q out of range"]

    def test_functor_domain_entry_naming_no_morphism_reported(self):
        dom = discrete_category(["p", "q"])
        dom.composition[(1, 4)] = 1
        fun = FinFunctor(dom, discrete_category(["r"]), [0, 0], [0, 0])
        assert verify_functor(fun) == [
            "domain composition entry (1, 4) -> 1 names no morphism"
        ]

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            discrete_category([f"x{i}" for i in range(100)])


@st.composite
def posets(draw, max_size):
    """Order relation on 0..n-1 refining the numbering: random pairs
    i < j, then the transitive closure."""
    n = draw(st.integers(1, max_size))
    less = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            less[i][j] = draw(st.booleans())
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if less[i][k] and less[k][j]:
                    less[i][j] = True
    return less


@st.composite
def poset_tables(draw, less, prefix):
    """The poset as a category, morphisms in a random order: returns the
    morphism list, the identities and the composition table."""
    n = len(less)
    arrows = draw(st.permutations(
        [(i, j) for i in range(n) for j in range(n) if less[i][j]]
    ))
    index = {arrow: k for k, arrow in enumerate(arrows)}
    morphisms = [
        (f"id_{prefix}{i}" if i == j else f"{prefix}{i}_{j}", i, j) for i, j in arrows
    ]
    identity = [index[(i, i)] for i in range(n)]
    composition = {
        (index[(i, j)], index[(j, k)]): index[(i, k)]
        for i, j in arrows
        for j2, k in arrows
        if j == j2
    }
    return morphisms, identity, composition


def poset_category(draw, less, prefix):
    morphisms, identity, composition = draw(poset_tables(less, prefix))
    return FinCategory([f"{prefix}{i}" for i in range(len(less))], morphisms,
                       identity, composition)


CORRUPTIONS = ("delete", "stray", "rewrite", "identity", "endpoints", "range")


@st.composite
def corrupted_poset_categories(draw):
    """A poset category (1-6 objects) with 0-3 corruptions.  Identities and
    endpoints are broken before construction, the composition table after
    it, so the law check must read the table as it is when called."""
    less = draw(posets(6))
    n = len(less)
    morphisms, identity, composition = draw(poset_tables(less, "p"))
    morphisms = [list(m) for m in morphisms]
    m = len(morphisms)
    kinds = draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3))
    for kind in kinds:
        if kind == "identity":
            non_endo = [k for k, (_, a, b) in enumerate(morphisms) if a != b]
            x = draw(st.integers(0, n - 1))
            identity[x] = draw(st.sampled_from([-1, m, m + 1] + non_endo))
        elif kind == "endpoints":
            k = draw(st.integers(0, m - 1))
            morphisms[k][1] = draw(st.integers(0, n - 1))
            morphisms[k][2] = draw(st.integers(0, n - 1))
    c = FinCategory([f"p{i}" for i in range(n)], morphisms, identity, composition)
    for kind in kinds:
        keys = list(c.composition)
        if kind == "delete" and keys:
            del c.composition[draw(st.sampled_from(keys))]
        elif kind == "rewrite" and keys:
            c.composition[draw(st.sampled_from(keys))] = draw(st.integers(0, m - 1))
        elif kind == "stray":
            pairs = [
                (f, g)
                for f in range(m)
                for g in range(m)
                if c.target[f] != c.source[g]
            ]
            if pairs:
                c.composition[draw(st.sampled_from(pairs))] = draw(st.integers(0, m - 1))
        elif kind == "range":
            # an entry naming no morphism: as the composite, or in the key
            f = draw(st.integers(0, m - 1))
            if keys and draw(st.booleans()):
                c.composition[draw(st.sampled_from(keys))] = draw(
                    st.sampled_from([-1, m, m + 3])
                )
            else:
                key = draw(st.sampled_from([(f, m), (m, f), (-1, f)]))
                c.composition[key] = draw(st.integers(0, m - 1))
    return c


@st.composite
def monotone_maps(draw, dom, cod):
    """Order-preserving object map between posets numbered by a linear
    extension; rejected when some object has no admissible image."""
    image = []
    for j in range(len(dom)):
        bounds = [image[i] for i in range(j) if dom[i][j]]
        allowed = [b for b in range(len(cod)) if all(cod[a][b] for a in bounds)]
        assume(allowed)
        image.append(draw(st.sampled_from(allowed)))
    return image


@st.composite
def poset_cospans(draw):
    """Cospan of poset categories with 1-5 objects on each side."""
    less = {side: draw(posets(5)) for side in ("source", "base", "target")}
    cats = {
        side: poset_category(draw, less[side], side[0])
        for side in ("source", "base", "target")
    }
    base = cats["base"]
    functors = []
    for side in ("source", "target"):
        dom = cats[side]
        image = draw(monotone_maps(less[side], less["base"]))
        morphism_map = [
            base.hom(image[dom.source[f]], image[dom.target[f]])[0]
            for f in range(dom.n_morphisms)
        ]
        functors.append(FinFunctor(dom, base, image, morphism_map, name=side))
    return Cospan(cats["source"], base, cats["target"], *functors)


class TestIndexedLawCheck:
    """The indexed law check and comma construction against the
    exhaustive scans they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(corrupted_poset_categories())
    def test_same_messages_as_exhaustive_scan(self, c):
        assert verify_category(c) == verify_category_exhaustive(c)
        for a in range(c.n_objects):
            assert c.outgoing[a] == tuple(
                f for f in range(c.n_morphisms) if c.source[f] == a
            )
            for b in range(c.n_objects):
                assert c.hom(a, b) == tuple(
                    f
                    for f in range(c.n_morphisms)
                    if c.source[f] == a and c.target[f] == b
                )

    @settings(max_examples=150, deadline=None)
    @given(poset_cospans())
    def test_comma_equals_exhaustive_build(self, cospan):
        expected = build_comma_exhaustive(cospan)
        comma = build_comma(cospan)
        assert comma.cat == expected.cat
        assert list(comma.cat.composition.items()) == list(
            expected.cat.composition.items()
        )
        assert comma.triples == expected.triples
        assert comma.pairs == expected.pairs
        assert comma.pi_s.morphism_map == expected.pi_s.morphism_map
        assert comma.pi_t.object_map == expected.pi_t.object_map
        assert verify_category(comma.cat) == []


def discrete_cospan(n_source, n_target, base):
    cs = discrete_category([f"v{i}" for i in range(n_source)])
    ct = discrete_category([f"x{i}" for i in range(n_target)])
    s = constant_functor(cs, base, 0)
    t = constant_functor(ct, base, 0)
    return Cospan(cs, base, ct, s, t)


def chain_category(n):
    """The poset 0 < 1 < ... < n-1 as a category."""
    arrows = [(i, j) for i in range(n) for j in range(i, n)]
    index = {arrow: k for k, arrow in enumerate(arrows)}
    return FinCategory(
        [str(i) for i in range(n)],
        [(f"m{i}_{j}", i, j) for i, j in arrows],
        [index[(i, i)] for i in range(n)],
        {(index[(i, j)], index[(j, k)]): index[(i, k)]
         for i, j in arrows for j2, k in arrows if j == j2},
    )


def identity_cospan(c):
    return Cospan(c, c, c, identity_functor(c), identity_functor(c))


class TestCommaCaps:
    """Both sides of the object cap (64) and the morphism cap (512)."""

    @pytest.mark.parametrize(
        "make,size",
        [
            (lambda: discrete_cospan(8, 8, one_object_category()), (64, 64)),
            (lambda: identity_cospan(chain_category(7)), (28, 336)),
        ],
        ids=["64-objects", "336-morphisms"],
    )
    def test_within_caps_built(self, make, size):
        comma = build_comma(make())
        assert (comma.cat.n_objects, comma.cat.n_morphisms) == size
        assert comma.cat == build_comma_exhaustive(make()).cat

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: discrete_cospan(9, 8, one_object_category()),
             "comma category has 72 objects, cap is 64"),
            (lambda: identity_cospan(chain_category(8)),
             "comma category has 540 morphisms, cap is 512"),
        ],
        ids=["72-objects", "540-morphisms"],
    )
    def test_over_cap_rejected(self, make, message):
        for build in (build_comma, build_comma_exhaustive):
            with pytest.raises(CapacityError) as raised:
                build(make())
            assert str(raised.value) == message


class TestComma:
    def test_one_object_one_morphism(self):
        base = one_object_category()
        cospan = discrete_cospan(1, 1, base)
        comma = build_comma(cospan)
        assert comma.cat.n_objects == 1
        assert comma.cat.n_morphisms == 1
        assert verify_category(comma.cat) == []

    def test_discrete_object_count_is_hom_sum(self):
        # base: one object with an extra idempotent endomap s (s.s = s)
        base = FinCategory(
            ["*"],
            [("e", 0, 0), ("s", 0, 0)],
            [0],
            {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        )
        assert verify_category(base) == []
        cospan = discrete_cospan(2, 3, base)
        comma = build_comma(cospan)
        expected = sum(
            len(base.hom(0, 0)) for _ in range(2) for _ in range(3)
        )
        assert comma.cat.n_objects == expected
        assert verify_category(comma.cat) == []
        assert verify_functor(comma.pi_s) == []
        assert verify_functor(comma.pi_t) == []

    def test_identity_cospan_gives_arrow_category(self):
        c = walking_arrow()
        cospan = Cospan(c, c, c, identity_functor(c), identity_functor(c))
        comma = build_comma(cospan)
        # objects of the arrow category = morphisms of the base
        assert comma.cat.n_objects == c.n_morphisms
        assert verify_category(comma.cat) == []
        assert verify_functor(comma.pi_s) == []
        assert verify_functor(comma.pi_t) == []

    def test_projections_are_functors_on_parallel_pair(self):
        c = parallel_pair()
        cospan = Cospan(c, c, c, identity_functor(c), identity_functor(c))
        comma = build_comma(cospan)
        assert verify_category(comma.cat) == []
        assert verify_functor(comma.pi_s) == []
        assert verify_functor(comma.pi_t) == []


class TestFiber:
    def test_identity_functor_fiber(self):
        c = walking_arrow()
        fib = fiber_category(identity_functor(c), 1)
        assert fib.cat.n_objects == 1
        assert fib.cat.n_morphisms == 1
        assert verify_category(fib.cat) == []

    def test_constant_functor_fiber_is_whole_domain(self):
        c = parallel_pair()
        target = one_object_category()
        fib = fiber_category(constant_functor(c, target, 0), 0)
        assert fib.cat.n_objects == c.n_objects
        assert fib.cat.n_morphisms == c.n_morphisms
        assert fib.cat == c

    def test_unknown_object_rejected(self):
        c = walking_arrow()
        with pytest.raises(ValueError):
            fiber_category(identity_functor(c), 5)

    @pytest.mark.parametrize("x", [0, 1])
    def test_fiber_of_pi_t_is_s_over_category(self, x):
        c = parallel_pair()
        cospan = Cospan(c, c, c, identity_functor(c), identity_functor(c))
        comma = build_comma(cospan)
        fib = fiber_category(comma.pi_t, x)
        direct = s_over_category(cospan, x)
        assert verify_category(direct) == []
        assert structure(fib.cat) == structure(direct)

    @settings(max_examples=150, deadline=None)
    @given(poset_cospans())
    def test_every_fiber_of_pi_t_is_s_over_category(self, cospan):
        comma = build_comma(cospan)
        for x in range(cospan.target_cat.n_objects):
            fib = fiber_category(comma.pi_t, x)
            assert structure(fib.cat) == structure(s_over_category(cospan, x))


class TestInducedFunctor:
    def make(self):
        c = walking_arrow()
        cospan = Cospan(c, c, c, identity_functor(c), identity_functor(c))
        return cospan, build_comma(cospan)

    def test_identity_morphism_induces_identity(self):
        cospan, comma = self.make()
        ct = cospan.target_cat
        fun = induced_fiber_functor(comma, ct.identity[0])
        assert fun.object_map == tuple(range(fun.dom.n_objects))
        assert fun.morphism_map == tuple(range(fun.dom.n_morphisms))
        assert verify_functor(fun) == []

    def test_induced_respects_composition(self):
        # chain category 0 -> 1 -> 2 with composite
        chain = FinCategory(
            ["0", "1", "2"],
            [
                ("id_0", 0, 0),
                ("id_1", 1, 1),
                ("id_2", 2, 2),
                ("f", 0, 1),
                ("g", 1, 2),
                ("gf", 0, 2),
            ],
            [0, 1, 2],
            {
                (0, 0): 0,
                (1, 1): 1,
                (2, 2): 2,
                (0, 3): 3,
                (3, 1): 3,
                (1, 4): 4,
                (4, 2): 4,
                (0, 5): 5,
                (5, 2): 5,
                (3, 4): 5,
            },
        )
        assert verify_category(chain) == []
        ident = identity_functor(chain)
        cospan = Cospan(chain, chain, chain, ident, ident)
        comma = build_comma(cospan)
        f, g, gf = 3, 4, 5
        first = induced_fiber_functor(comma, f)
        second = induced_fiber_functor(comma, g)
        both = induced_fiber_functor(comma, gf)
        composed = compose_functors(first, second)
        assert composed.object_map == both.object_map
        assert composed.morphism_map == both.morphism_map
        for fun in (first, second, both):
            assert verify_functor(fun) == []

    def test_collapse_to_unique_triple(self):
        # discrete source/target over the one-object base: each fiber has
        # exactly one triple per source object; the induced functor is a
        # bijection on those triples
        base = one_object_category()
        cospan = discrete_cospan(2, 2, base)
        comma = build_comma(cospan)
        fun = induced_fiber_functor(comma, cospan.target_cat.identity[0])
        assert fun.dom.n_objects == 2
        assert verify_functor(fun) == []


SAMPLE_COSPAN = """
# walking arrow mapped into itself, discrete target
category source
objects a b
arrow f : a -> b
compose id_b . f = f   # redundant but allowed
end
category base
objects a b
arrow f : a -> b
end
category target
objects x
end
functor S : source -> base
obj a = a
obj b = b
arrow f = f
end
functor T : target -> base
obj x = b
end
"""


class TestCospanParsing:
    def test_sample_parses_and_builds(self):
        cospan = parse_cospan_text(SAMPLE_COSPAN)
        assert verify_category(cospan.source_cat) == []
        assert verify_functor(cospan.s) == []
        comma = build_comma(cospan)
        # triples: (a, x, f: a->b) and (b, x, id_b)
        assert comma.cat.n_objects == 2
        assert verify_category(comma.cat) == []

    def test_error_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_cospan_text("category source\narrow oops\nend")

    def test_missing_pieces(self):
        with pytest.raises(ValueError, match="missing category"):
            parse_cospan_text("category source\nobjects a\nend")
