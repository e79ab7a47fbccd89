"""Concrete-group verification engine.

Builds small matrix and permutation groups explicitly, finds every
pi-Hall subgroup by exhaustive search, counts conjugacy classes, and
cross-validates the symbolic reports.

Hall discovery seeds the search at a fixed Sylow 2-subgroup: every
pi-Hall subgroup contains a full Sylow r-subgroup for each r in pi, so
each conjugacy class of Hall subgroups has a representative above the
chosen Sylow 2-subgroup (for even hall orders), and the complete Hall
list is recovered as the union of conjugation orbits.  The search joins
each subgroup H it has found with one candidate per double coset H*x*H,
its least pi-element: every element of H*x*H gives the same join, which is
a pi-subgroup only when H*x*H holds pi-elements alone, so each join is
first reached by the candidate a search over left cosets tried first.
Each element h*x*k of H*x*H is conjugate to x*k*h in x*H, so the left
coset x*H alone tells whether H*x*H holds pi-elements alone, and a double
coset that does not is neither walked nor joined.  The cyclic-seeded
fixpoint over the whole pi-subgroup lattice is kept as a separate mode
for counterexample searches; it joins from one subgroup H per conjugacy
class, with one cyclic seed per orbit under conjugation by H, since
<H, x^h> = <H, x> for h in H, and takes the rest of each class by
conjugation.  Both searches take conjugates under g.generators only,
so they assume those elements generate g.

Products are made in batches.  Each group carries a batch kernel that
makes a*x for every x in a block from the one left factor a: for
permutations, one bytes.translate table applied in a C loop.  So the
closures are built from left cosets y*H, the extension search walks each
double coset as left cosets y*H, and a power walk x, x^2, ... multiplies
by x each time.

Each group is built once per process.  build_group and psl3_3_points keep
one model per (kind, param): the sorted elements, the generators and the
kernel, with an order table, an inverse table and one conjugation table
{x: x^s} per generator s, all filled when the model is built and all
holding the model's own element objects.  A model lives as long as some
group made from it; each call returns a fresh ConcreteGroup sharing the
model's elements and tables, so wrapping one group's mul reaches neither
the model nor any other group.  The census's seed for each prime r, a
Sylow r-subgroup with its generator witness, is kept with the model the
same way, found on first use through the model's own mul and kernel.

A generator witness of a p-group P comes from P/Phi(P): by Burnside's
basis theorem a tuple generates P exactly when its image spans that
F_p-space, so the witness search tests each tuple by a span instead of
a closure, and Phi(P) is closed once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, filterfalse, product, repeat, takewhile
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

from pihall.arith import factorize, is_prime, pi_part
from pihall.classify import HallReport, YES
from pihall.groups import (
    ALT,
    GENERAL,
    ISOMETRY,
    LINEAR_UNITARY,
    SIMPLE,
    SYM,
    GroupSpec,
    order as group_order,
    validate,
)

# A permutation is the bytes string of its point images (so at most 256
# points); a 2x2 matrix mod p is the tuple (a, b, c, d).  Both sort and
# hash by their entries, and list(x) gives the entries either way.
Element = Union[bytes, Tuple[int, ...]]

# A batch kernel: kernel(a, block) yields the products a*x for the x in
# block, in order.  It must read block lazily, one item at a time, since a
# power walk appends to block while the kernel reads it.
Kernel = Callable[[Element, Iterable[Element]], Iterator[Element]]


class BudgetExceeded(RuntimeError):
    pass


class NonPrimeField(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    """Limits on building a group and on one search in it.

    max_closure_steps counts the joins a search tries from each subgroup H
    it extends: one per double coset H*x*H made of pi-elements alone in the
    Hall census, and one per orbit of the cyclic seeds outside H under
    conjugation by H in the pi-subgroup lattice.  A census that runs out
    reports exhaustive=False; a lattice returns what it found and False.
    """

    max_group_order: int = 100_000
    max_closure_steps: int = 1_000_000
    max_subgroups: int = 10_000


DEFAULT_BUDGET = Budget()


@dataclass
class ConcreteGroup:
    """An explicit finite group with canonical elements (see Element), in ascending order.

    The order, inverse and conjugation tables fill together on first use,
    through the group's own mul and kernel.  A group from build_group gets
    them filled, shared with its model (held in _model, so that the model
    lives as long as the group).  The census's Sylow seeds are kept the same
    way: on the model, found through its mul and kernel, or on a group built
    by hand, through its own.
    """

    name: str
    kind: str
    elements: List[Element]
    mul: Callable[[Element, Element], Element]
    identity: Element
    generators: List[Element]
    spec: Optional[GroupSpec] = None
    # the batch kernel for this element type, set by the builder; without
    # one, products() calls mul once per element
    mul_all: Optional[Kernel] = field(default=None, repr=False)
    _orders: Dict[Element, int] = field(default_factory=dict, repr=False)
    _inverses: Dict[Element, Element] = field(default_factory=dict, repr=False)
    _conjugations: List[Dict[Element, Element]] = field(default_factory=list, repr=False)
    # {r: (a Sylow r-subgroup, its generator witness)}, filled by _sylow_seed
    _seeds: Dict[int, Tuple[FrozenSet[Element], Tuple[Element, ...]]] = field(
        default_factory=dict, repr=False)
    _model: Optional[ConcreteGroup] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def products(self, a: Element, block: Iterable[Element]) -> Iterator[Element]:
        """The products a*x for the x in block, lazily and in block's order."""
        if self.mul_all is None:
            return _mul_each(self.mul, a, block)
        return self.mul_all(a, block)

    def _fill_tables(self) -> None:
        """Fill the order, inverse and conjugation tables.

        One sweep makes a power walk x, x^2, ..., x^n = 1 per cyclic
        subgroup, each power x*x^i through the kernel: x^i has order
        n / gcd(i, n) and inverse x^(n-i).  Then each generator s gets the
        table {x: x^s} over all of g, with x^s = s^-1*(x*s) and the left
        factor s^-1 applied through the kernel.  Every key and value is one
        of self.elements, not an equal object that a product made.
        """
        orders, inverses = self._orders, self._inverses
        own = {x: x for x in self.elements}
        orders.update(dict.fromkeys(self.elements, 0))
        for x in self.elements:
            if orders[x]:
                continue
            powers = [x]
            if x != self.identity:
                for y in self.products(x, powers):
                    powers.append(own[y])
                    if y == self.identity:
                        break
            n = len(powers)
            for i, y in enumerate(powers, 1):
                orders[y] = n // math.gcd(i, n)
                inverses[y] = powers[n - i - 1]  # x^(n-i); the identity for i = n
        for s in self.generators:
            images = self.products(inverses[s], [self.mul(x, s) for x in self.elements])
            self._conjugations.append(dict(zip(self.elements, map(own.__getitem__, images))))

    def order_table(self) -> Dict[Element, int]:
        """The order of every element."""
        if not self._orders:
            self._fill_tables()
        return self._orders

    def element_order(self, x: Element) -> int:
        """The order of x, which must equal one of the group's elements."""
        return self.order_table()[x]

    def inverse(self, x: Element) -> Element:
        """The inverse of x, which must equal one of the group's elements."""
        if not self._orders:
            self._fill_tables()
        return self._inverses[x]

    def conjugation_tables(self) -> List[Dict[Element, Element]]:
        """One table {x: x^s} over all of the group per generator s, in order."""
        if not self._orders:
            self._fill_tables()
        return self._conjugations


@dataclass(frozen=True)
class SubgroupHandle:
    elements: FrozenSet[Element]
    generator_witness: Tuple[Element, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass
class CensusReport:
    group: ConcreteGroup
    pi: Tuple[int, ...]
    hall_order: int
    halls_found: List[SubgroupHandle]
    classes: List[List[SubgroupHandle]]
    exhaustive: bool

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_dict(self) -> dict:
        return {
            "group": self.group.name,
            "pi": list(self.pi),
            "hall_order": self.hall_order,
            "class_count": self.class_count,
            "halls_found": len(self.halls_found),
            "exhaustive": self.exhaustive,
            "class_representatives": [
                [list(g) for g in cls[0].generator_witness] for cls in self.classes
            ],
        }


# ---------------------------------------------------------------------------
# group construction


def _perm_mul(a: Sequence[int], b: bytes) -> bytes:
    """The product a*b (apply b first, then a): b's images relabelled by a.

    a may be any sequence of point images, b must be bytes.
    """
    return b.translate(bytes(a).ljust(256))


def _perm_mul_all(a: Sequence[int], block: Iterable[bytes]) -> Iterator[bytes]:
    """The permutation kernel: a*x for each x in block, one translate table for all."""
    return map(bytes.translate, block, repeat(bytes(a).ljust(256)))


def _mul_each(mul: Callable[[Element, Element], Element], a: Element,
              block: Iterable[Element]) -> Iterator[Element]:
    """The default kernel: a*x for each x in block, one mul call each."""
    return map(mul, repeat(a), block)


def _mat_mul_mod(p: int):
    def mul(x: Element, y: Element) -> Element:
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
        )

    return mul


def _scalar_canonical(p: int, scalars: Sequence[int]):
    """The least of the scalar multiples s*x of a 2x2 matrix x, built directly.

    The first nonzero entry v decides the comparison, since the s*v are
    distinct: scale by the s that makes s*v least.
    """
    best = [1] + [min(scalars, key=lambda s: s * v % p) for v in range(1, p)]

    def canon(x: Element) -> Element:
        a, b, c, d = x
        s = best[a or b or c or d]
        return x if s == 1 else (s * a % p, s * b % p, s * c % p, s * d % p)

    return canon


def _extend(
    mul: Callable[[Element, Element], Element],
    mul_all: Kernel,
    base: Iterable[Element],
    base_gens: Sequence[Element],
    new_gens: Iterable[Element],
    limit: int,
    admissible: Optional[FrozenSet[Element]] = None,
) -> Optional[set]:
    """The elements of <base_gens, new_gens>, where base = <base_gens> is known.

    Dimino's algorithm: a generator t outside the group H built so far
    extends H by whole left cosets.  Starting from t*H, each product s*r
    of a generator s and a coset representative r that lands outside adds
    the coset (s*r)*H, with s*r as its representative.  The kernel
    mul_all makes each coset from its one left factor.  Returns None as
    soon as the result would have more than limit elements, or, when an
    admissible set holding base is given, as soon as a new coset holds an
    element outside it.
    """
    elements = set(base)
    if len(elements) > limit:
        return None
    gens = list(base_gens)
    for t in new_gens:
        if t in elements:
            continue
        gens.append(t)
        block = list(elements)
        reps = []  # grows while the products s*r are walked
        for y in chain((t,), (mul(s, r) for r in reps for s in gens)):
            if y in elements:
                continue
            if len(elements) + len(block) > limit:
                return None
            coset = mul_all(y, block)
            if admissible is not None:  # stop at the first element outside it
                coset = takewhile(admissible.__contains__, coset)
            coset = list(coset)
            if len(coset) < len(block):
                return None
            elements.update(coset)
            reps.append(y)
    return elements


def _closure(
    gens: Sequence[Element],
    mul: Callable[[Element, Element], Element],
    identity: Element,
    limit: int,
    mul_all: Optional[Kernel] = None,
) -> List[Element]:
    """The sorted elements of <gens>, through mul_all if given, else mul one by one."""
    elements = _extend(mul, mul_all or partial(_mul_each, mul), (identity,), (), gens, limit)
    if elements is None:
        raise BudgetExceeded(f"closure exceeded {limit} elements")
    return sorted(elements)


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1  # GF(2)* is trivial
    factors = [f for f, _ in factorize(p - 1).factors]
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root mod {p}")


# the models build_group and psl3_3_points have made, by (kind, param), each
# kept for as long as some group made from it is alive
_MODELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _from_model(key: Tuple[str, int], budget: Budget,
                build: Callable[[], ConcreteGroup]) -> ConcreteGroup:
    """A fresh group sharing the model for key, which build() makes on first use.

    The model's tables are filled through its own mul and kernel before it
    is kept, so a caller's wrapper on the returned group's mul never sees
    them.  A model kept under a larger budget is refused under a smaller one.
    """
    model = _MODELS.get(key)
    if model is None:
        model = build()
        model.order_table()
        _MODELS[key] = model
    elif model.order > budget.max_group_order:
        raise BudgetExceeded(f"{key[0]}({key[1]}) exceeds the group-order budget")
    return replace(model, _model=model)


def build_group(kind: str, param: int, budget: Budget = DEFAULT_BUDGET) -> ConcreteGroup:
    """Build one of SL2(p), PSL2(p), GL2(p), PGL2(p), Sym(n), Alt(n) explicitly.

    Matrix kinds need a prime p (prime fields only) and hold each element
    as the tuple (a, b, c, d); permutation kinds need a degree n and hold
    each element as the bytes of its point images.  The resulting order
    must fit the budget.  Each (kind, param) is closed once per process
    while a group made from it is alive (see _from_model).
    """
    kind = kind.upper()
    if kind not in ("SYM", "ALT", "SL2", "PSL2", "GL2", "PGL2"):
        raise ValueError(f"unknown group kind {kind!r}")
    return _from_model((kind, param), budget, partial(_build_model, kind, param, budget))


def _build_model(kind: str, param: int, budget: Budget) -> ConcreteGroup:
    if kind in ("SYM", "ALT"):
        n = param
        if math.factorial(n) // (1 if kind == "SYM" else 2) > budget.max_group_order:
            raise BudgetExceeded(f"{kind}({n}) exceeds the group-order budget")
        identity = bytes(range(n))
        if kind == "SYM":
            gens = [
                bytes([1, 0] + list(range(2, n))),
                bytes(list(range(1, n)) + [0]) if n > 1 else identity,
            ]
            spec = GroupSpec(SYM, n=n, variant=ISOMETRY)
        else:
            three = bytes([1, 2, 0] + list(range(3, n)))
            if n % 2 == 1:
                cyc = bytes(list(range(1, n)) + [0])
            else:
                cyc = bytes([0] + list(range(2, n)) + [1])
            gens = [three, cyc] if n > 3 else [three]
            spec = GroupSpec(ALT, n=n, variant=SIMPLE if n >= 5 else ISOMETRY)
        spec = validate(spec)  # before the closure: it refuses the degrees too small for gens
        gens = [g for g in gens if g != identity]
        # the long cycle first: the closure then adds whole cosets of <cycle>
        # instead of cosets of order 2 or 3
        elements = _closure(gens[::-1], _perm_mul, identity, budget.max_group_order,
                            _perm_mul_all)
        g = ConcreteGroup(f"{kind.capitalize()}({n})", kind, elements, _perm_mul,
                          identity, gens, spec=spec, mul_all=_perm_mul_all)
        _check_order(g)
        return g

    p = param
    if not is_prime(p):
        raise NonPrimeField(f"{kind} needs a prime field, got {param}")
    mul0 = _mat_mul_mod(p)
    if kind in ("PSL2", "PGL2"):
        scalars = (
            list(range(1, p)) if kind == "PGL2" else ([1, p - 1] if p > 2 else [1])
        )
        canon = _scalar_canonical(p, scalars)

        def mul(x: Element, y: Element) -> Element:
            return canon(mul0(x, y))

    else:
        canon = lambda x: x  # noqa: E731
        mul = mul0
    identity = canon((1, 0, 0, 1))
    gens = [canon((1, 1, 0, 1)), canon((1, 0, 1, 1))]
    if kind in ("GL2", "PGL2"):
        gens.append(canon((_primitive_root(p), 0, 0, 1)))
    variant = {"SL2": ISOMETRY, "PSL2": SIMPLE, "GL2": GENERAL, "PGL2": GENERAL}[kind]
    spec = GroupSpec(LINEAR_UNITARY, n=2, q=p, eta=1, variant=variant)
    expected = group_order(validate(spec)) if kind != "PGL2" else None
    if expected is not None and expected > budget.max_group_order:
        raise BudgetExceeded(f"{kind}({p}) exceeds the group-order budget")
    elements = _closure(gens, mul, identity, budget.max_group_order)
    g = ConcreteGroup(
        f"{kind}({p})", kind, elements, mul, identity, gens,
        spec=validate(spec) if kind != "PGL2" else None,
    )
    if kind != "PGL2":
        _check_order(g)
    return g


def psl3_3_points() -> ConcreteGroup:
    """PSL3(3) in its permutation action on the 13 points of the projective plane.

    Each element is the bytes of its point images, as for Sym and Alt.  Its
    model is kept as build_group keeps its own.
    """
    return _from_model(("PSL3", 3), DEFAULT_BUDGET, _build_psl3_3_points)


def _build_psl3_3_points() -> ConcreteGroup:
    p = 3
    points: List[Tuple[int, int, int]] = []
    seen = set()
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if (x, y, z) == (0, 0, 0) or (x, y, z) in seen:
                    continue
                for s in range(1, p):
                    seen.add((s * x % p, s * y % p, s * z % p))
                points.append((x, y, z))
    index = {pt: i for i, pt in enumerate(points)}

    def normalize(v):
        for c in v:
            if c % p:
                inv = pow(c, p - 2, p)
                return tuple(x * inv % p for x in v)
        raise ValueError("zero vector")

    def mat_perm(m) -> Element:
        out = [0] * len(points)
        for pt, i in index.items():
            img = (
                m[0] * pt[0] + m[1] * pt[1] + m[2] * pt[2],
                m[3] * pt[0] + m[4] * pt[1] + m[5] * pt[2],
                m[6] * pt[0] + m[7] * pt[1] + m[8] * pt[2],
            )
            out[i] = index[normalize(tuple(x % p for x in img))]
        return bytes(out)

    gens = [mat_perm((1, 1, 0, 0, 1, 0, 0, 0, 1)), mat_perm((0, 0, 1, 1, 0, 0, 0, 1, 0))]
    identity = bytes(range(len(points)))
    elements = _closure(gens, _perm_mul, identity, 10_000, _perm_mul_all)
    g = ConcreteGroup("PSL3(3)", "PERM", elements, _perm_mul, identity, gens,
                      spec=validate(GroupSpec(LINEAR_UNITARY, n=3, q=3, eta=1, variant=SIMPLE)),
                      mul_all=_perm_mul_all)
    _check_order(g)
    return g


def _check_order(g: ConcreteGroup) -> None:
    if g.spec is None:
        return
    expected = group_order(g.spec)
    if expected != g.order:
        raise RuntimeError(
            f"{g.name}: closure produced order {g.order}, symbolic order is {expected}"
        )


# ---------------------------------------------------------------------------
# subgroup machinery


def subgroup_closure(
    g: ConcreteGroup,
    gens: Iterable[Element],
    limit: int,
    base: Optional[FrozenSet[Element]] = None,
    base_gens: Sequence[Element] = (),
    admissible: Optional[FrozenSet[Element]] = None,
) -> Optional[FrozenSet[Element]]:
    """Closure of gens inside g, or None once it would exceed limit elements.

    With a known subgroup base = <base_gens>, the closure of base and gens
    is built by extending base, without closing it again.  With an
    admissible set holding base, the result is None as soon as the closure
    reaches an element outside it.
    """
    gens = [x for x in gens if x != g.identity]
    if base is None:
        if not gens:
            return frozenset({g.identity})
        base = frozenset({g.identity})
    elements = _extend(g.mul, g.products, base, base_gens, gens, limit, admissible)
    return None if elements is None else frozenset(elements)


def _orders_dividing(g: ConcreteGroup, n: int) -> List[Element]:
    """The elements of g whose order divides n, in the order of g.elements.

    By Lagrange they hold every subgroup whose order divides n.
    """
    orders = g.order_table()
    return [x for x in g.elements if n % orders[x] == 0]


def sylow_subgroup(g: ConcreteGroup, r: int) -> FrozenSet[Element]:
    """A Sylow r-subgroup, grown by adjoining r-elements."""
    target = pi_part(g.order, (r,))
    relements = _orders_dividing(g, target)
    admissible = frozenset(relements)
    current = frozenset({g.identity})
    gens: Tuple[Element, ...] = ()
    progress = True
    while len(current) < target and progress:
        progress = False
        for x in relements:
            if x in current:
                continue
            bigger = subgroup_closure(g, [x], target + 1, current, gens, admissible)
            if bigger is not None:
                current, gens = bigger, gens + (x,)
                progress = True
                if len(current) == target:
                    break
    if len(current) != target:
        raise RuntimeError(f"could not grow a Sylow {r}-subgroup of {g.name}")
    return current


def _sylow_seed(g: ConcreteGroup, r: int) -> Tuple[FrozenSet[Element], Tuple[Element, ...]]:
    """A Sylow r-subgroup of g and its generator witness, found once per model.

    They are kept with the model, or with g itself when g was built by
    hand, and found through the model's own mul and kernel, as its tables
    are, so a caller's wrapper on g.mul never sees this work.
    """
    owner = g if g._model is None else g._model
    seed = owner._seeds.get(r)
    if seed is None:
        sylow = sylow_subgroup(owner, r)
        seed = owner._seeds[r] = (sylow, _generator_witness(owner, sylow))
    return seed


def _generator_witness(
    g: ConcreteGroup, subgroup: FrozenSet[Element]
) -> Tuple[Element, ...]:
    """A small generating tuple (at most 3 elements) for a known subgroup.

    The elements are ranked by descending order.  The witness is the first
    element if it generates; else the first pair (a, b) with a among the
    40 first; else the first triple (a, b, c) with a and b among the 20
    first; else the whole subgroup.  A p-group has each tuple tested by a
    span over F_p (see _frattini_tests), any other subgroup by a closure.
    """
    if len(subgroup) == 1:
        return ()
    members = sorted(subgroup)
    by_order = sorted(members, key=lambda x: -g.element_order(x))
    head = by_order[0]
    n = g.element_order(head)
    if n == len(subgroup):
        return (head,)
    p = next(r for r in range(2, n + 1) if n % r == 0)
    if pi_part(len(subgroup), (p,)) == len(subgroup):
        tests = _frattini_tests(g, by_order, p)
    else:
        tests = _closure_tests(g, subgroup)
    for prefix in chain(zip(by_order[:40]), product(by_order[:20], repeat=2)):
        generates = tests(prefix)
        if generates is not None:
            for c in by_order:
                if generates(c):
                    return prefix + (c,)
    return tuple(members)  # give up: the full set generates itself


def _closure_tests(
    g: ConcreteGroup, subgroup: FrozenSet[Element]
) -> Callable[[Tuple[Element, ...]], Optional[Callable[[Element], bool]]]:
    """Generation tests by closure, for a subgroup of any order.

    tests(prefix) is None when no tuple prefix + (c,) generates the
    subgroup, or else the test of c.  <a> is closed once and extended by
    each b, and a triple is closed whole; a closure that leaves the
    subgroup is dropped there.
    """
    limit = len(subgroup)

    def tests(prefix):
        if len(prefix) == 1:
            cyclic = frozenset(_extend(g.mul, g.products, (g.identity,), (), prefix, limit))
            return lambda b: subgroup_closure(g, [b], limit, cyclic, prefix, subgroup) == subgroup
        return lambda c: subgroup_closure(g, prefix + (c,), limit, admissible=subgroup) == subgroup

    return tests


def _frattini_tests(
    g: ConcreteGroup, members: Sequence[Element], p: int
) -> Callable[[Tuple[Element, ...]], Optional[Callable[[Element], bool]]]:
    """Generation tests, as _closure_tests gives, for the p-group P = members.

    A tuple generates P exactly when its image spans P/Phi(P) = F_p^d
    (Huppert, Endliche Gruppen I, 1967, III.3.2).  A cyclic P is answered
    before any tuple is tried, so d >= 2: then prefix + (c,) spans F_p^d
    exactly when the prefix spans a subspace of dimension d - 1 that c's
    image lies outside.  A prefix never spans F_p^d by itself: the pair
    loop would have returned any such pair first.
    """
    coords = _frattini_coordinates(g, members, p)
    zero = coords[g.identity]
    hyperplane = p ** (len(zero) - 1)

    def tests(prefix):
        span = {zero}
        for v in map(coords.__getitem__, prefix):
            if v not in span:
                span = {tuple((x + k * y) % p for x, y in zip(w, v))
                        for w in span for k in range(p)}
        if len(span) != hyperplane:
            return None
        return lambda c: coords[c] not in span

    return tests


def _frattini_coordinates(
    g: ConcreteGroup, members: Sequence[Element], p: int
) -> Dict[Element, Tuple[int, ...]]:
    """The image of each element of the p-group P = members in P/Phi(P) = F_p^d.

    Phi(P) = P^p [P, P] is closed once, from the p-th powers of P's
    elements and, for odd p, the commutators [a, s] for a in P and s in a
    generating set S, taken greedily along members.  That set's closure is
    normal, since [a, s]^t = [a*t, s] [t, s]^-1, and it holds [P, P], since
    each s is central modulo it.  For p = 2 the squares suffice, since
    [a, b] = a^-2 (a*b^-1)^2 b^2.  Then each element x outside the part M
    built so far is the next basis vector: M grows to the union of the
    cosets x^i*M for i < p, and x^i*m gets m's coordinates followed by i.
    """
    mul, products, inverse = g.mul, g.products, g.inverse
    limit = len(members)
    phi_gens = list(members)
    for _ in range(p - 1):
        phi_gens = list(map(mul, members, phi_gens))
    if p != 2:
        gens: List[Element] = []
        span = {g.identity}
        for x in members:
            if x not in span:
                span = _extend(mul, products, span, gens, (x,), limit)
                gens.append(x)
        phi_gens += (mul(inverse(a), mul(inverse(s), mul(a, s))) for s in gens for a in members)
    frattini = subgroup_closure(g, phi_gens, limit)
    coords: Dict[Element, Tuple[int, ...]] = dict.fromkeys(frattini, ())
    for x in members:
        if x in coords:
            continue
        known = list(coords.items())
        layer = [y for y, _ in known]
        for i in range(p):
            if i:
                layer = list(products(x, layer))
            for y, (_, c) in zip(layer, known):
                coords[y] = c + (i,)
    return coords


def _conjugacy_orbit(
    g: ConcreteGroup, seed: FrozenSet[Element], witness: Tuple[Element, ...]
) -> Dict[FrozenSet[Element], Tuple[Element, ...]]:
    """The conjugates of seed, each with witness, a tuple of seed's elements, along with it.

    A breadth-first search under conjugation by g.generators, which must
    generate g: the orbit under the generators is then the orbit under g.
    Each conjugate is read from the group's conjugation tables.
    """
    orbit = {seed: witness}
    frontier = [seed]
    tables = g.conjugation_tables()
    while frontier:
        nxt = []
        for sub in frontier:
            wit = orbit[sub]
            for table in tables:
                image = frozenset(map(table.__getitem__, sub))
                if image not in orbit:
                    orbit[image] = tuple(map(table.__getitem__, wit))
                    nxt.append(image)
        frontier = nxt
    return orbit


def conjugacy_classes_of_subgroups(
    g: ConcreteGroup, witnesses: Mapping[FrozenSet[Element], Tuple[Element, ...]]
) -> List[List[SubgroupHandle]]:
    """Partition subgroups into conjugacy classes by generator-orbit closure.

    witnesses maps each subgroup to a generating tuple; every conjugate
    found gets the tuple conjugated along with it.
    """
    classes: List[List[SubgroupHandle]] = []
    done: set = set()
    for seed in sorted(witnesses, key=sorted):
        if seed in done:
            continue
        orbit = _conjugacy_orbit(g, seed, witnesses[seed])
        done.update(orbit)
        classes.append([SubgroupHandle(s, orbit[s]) for s in sorted(orbit, key=sorted)])
    return sorted(classes, key=lambda cls: sorted(cls[0].elements))


def find_hall_subgroups(
    g: ConcreteGroup,
    pi: Sequence[int],
    budget: Budget = DEFAULT_BUDGET,
) -> CensusReport:
    """All pi-Hall subgroups of g, grouped into conjugacy classes.

    Search: fix a Sylow subgroup S for the least prime in pi (every Hall
    subgroup contains a conjugate of it), extend it by pi-elements keeping
    pi-number orders dividing the Hall order, then close the hits under
    conjugation.  S and its generator witness are read from g's model,
    which finds them on first use (see _sylow_seed).  The current subgroup
    H is joined with one candidate per double coset H*x*H made of pi-
    elements alone, since <H, a*x*b> = <H, x> for a, b in H.  The pi-
    elements are scanned in ascending order (g's elements are sorted); the
    first one x not yet seen has its left coset x*H made by one kernel call
    and marked seen.  If x*H holds an element outside the pi-elements, so
    do H*x*H and <H, x>, and x is dropped.  Else H*x*H holds pi-elements
    alone, since each h*x*k in it is conjugate to x*k*h in x*H: it is
    marked seen one left coset y*H at a time, the next left cosets being
    the s*y*H for the generators s of H, and joined once.  The outputs are
    those of one candidate per left coset.  A join holding an element
    outside the pi-elements is never a pi-subgroup, so only a double coset
    made of pi-elements yields one.  No other candidate's left coset or
    walk touches such a double coset, so its least element x is the first
    of it that the scan reaches, the first candidate of the left-coset
    search to reach that join.
    """
    pi = tuple(sorted(set(pi)))
    hall_order = pi_part(g.order, pi)
    if hall_order == 1:
        trivial = SubgroupHandle(frozenset({g.identity}), ())
        return CensusReport(g, pi, 1, [trivial], [[trivial]], True)

    relevant = [r for r in pi if g.order % r == 0]
    seed, seed_witness = _sylow_seed(g, relevant[0])
    pi_elems = _orders_dividing(g, hall_order)
    admissible = frozenset(pi_elems)
    pi_elems.remove(g.identity)
    products = g.products

    # all pi-subgroups containing the fixed Sylow subgroup
    found: Dict[FrozenSet[Element], Tuple[Element, ...]] = {seed: seed_witness}
    frontier = [seed]
    steps = 0
    exhaustive = True
    while frontier and exhaustive:
        nxt = []
        for current in frontier:
            if len(current) == hall_order or not exhaustive:
                continue
            gens = found[current]
            seen = set(current)
            for x in filterfalse(seen.__contains__, pi_elems):
                # x is the least pi-element of x*current; that left coset
                # holds an element outside the pi-elements exactly when the
                # double coset does, and then so does the join
                coset = list(products(x, current))
                seen.update(coset)
                if not admissible.issuperset(coset):
                    continue
                # x is the least element of current*x*current: mark the rest
                # of it seen one left coset y*current at a time, the next
                # layer of representatives y being every s*y for the
                # generators s of current
                reps = [x]
                while reps:
                    layer = [z for s in gens for z in products(s, reps)]
                    reps = []
                    for y in filterfalse(seen.__contains__, layer):
                        seen.update(products(y, current))
                        reps.append(y)
                steps += 1
                if steps > budget.max_closure_steps:
                    exhaustive = False
                    break
                # a closure of pi-elements is a pi-subgroup: its order divides hall_order
                bigger = subgroup_closure(g, [x], hall_order + 1, current, gens, admissible)
                if bigger is None or bigger in found:
                    continue
                found[bigger] = tuple(gens) + (x,)
                nxt.append(bigger)
                if len(found) > budget.max_subgroups:
                    raise BudgetExceeded("stored subgroup budget exceeded")
        frontier = nxt

    witnesses = {
        s: _minimal_witness(g, gens, s) for s, gens in found.items() if len(s) == hall_order
    }
    classes = conjugacy_classes_of_subgroups(g, witnesses)
    all_halls = [h for cls in classes for h in cls]
    return CensusReport(g, pi, hall_order, all_halls, classes, exhaustive)


def _minimal_witness(
    g: ConcreteGroup, gens: Tuple[Element, ...], subgroup: FrozenSet[Element]
) -> Tuple[Element, ...]:
    """Shrink gens, which must generate subgroup, falling back to a fresh search.

    The first element whose removal leaves a generating tuple is dropped,
    until none can be; a tuple of more than 3 is replaced by a search.
    """
    gens = tuple(x for x in gens if x != g.identity)
    shrunk = True
    while shrunk:
        shrunk = False
        for drop in range(len(gens)):
            trimmed = gens[:drop] + gens[drop + 1:]
            if trimmed and subgroup_closure(g, trimmed, len(subgroup) + 1) == subgroup:
                gens, shrunk = trimmed, True
                break
    return gens if len(gens) <= 3 else _generator_witness(g, subgroup)


def pi_subgroup_lattice(
    g: ConcreteGroup,
    pi: Sequence[int],
    budget: Budget = DEFAULT_BUDGET,
) -> Tuple[List[FrozenSet[Element]], bool]:
    """The cyclic-seeded fixpoint: all pi-subgroups of g.

    Returns (subgroups, exhaustive).  Joins start from one subgroup per
    conjugacy class: each is joined with one cyclic seed <x> per orbit of
    the seeds outside it under conjugation by it, and a new join adds its
    whole conjugacy orbit but only itself to the frontier.  The orbit of a
    seed under H is walked through the seeds' generators, x^h = h^-1*x*h
    for the generators h of H.  Nothing is lost: the seeds are closed under
    conjugation, <H^c, x> = <H, x^(c^-1)>^c, and <H, x^h> = <H, x>^h = <H, x>
    for h in H, so the lattice is the set that joining every seed gives.
    Each seed is closed once, from its first generator, and the trivial
    subgroup joins nothing, since its joins are the seeds.
    Budget.max_closure_steps counts the joins tried from the other
    representatives, one per seed orbit.  This is the expensive search; the
    Hall census above does not depend on it.
    """
    pi = tuple(sorted(set(pi)))
    # every pi-subgroup has order dividing |G|_pi
    cap = pi_part(g.order, pi)
    # each cyclic seed <x> with its first generator x; found maps to generators
    seeds: Dict[FrozenSet[Element], Element] = {}
    elems = _orders_dividing(g, cap)
    admissible = frozenset(elems)
    orders = g.order_table()
    seed_of: Dict[Element, FrozenSet[Element]] = {}  # each built seed, by its generators
    for x in elems:  # <x> has order dividing cap
        if x in seed_of:
            continue
        seed = subgroup_closure(g, [x], cap)
        seeds[seed] = x
        seed_of.update((y, seed) for y in seed if orders[y] == len(seed))
    found: Dict[FrozenSet[Element], Tuple[Element, ...]] = {}
    frontier = []
    for sub, x in seeds.items():
        if sub not in found:
            found.update(_conjugacy_orbit(g, sub, (x,)))
            if len(sub) > 1:
                frontier.append(sub)
    mul = g.mul
    steps = 0
    while frontier:
        nxt = []
        for current in frontier:
            gens = found[current]
            conjugators = [(g.inverse(h), h) for h in gens]
            # one seed per orbit under conjugation by current, which fixes
            # the join; the orbit is walked through the seeds' generators
            reached = set()
            for seed, x in seeds.items():
                if seed in reached or x in current:
                    continue
                reached.add(seed)
                orbit = [x]
                for y in orbit:
                    for hinv, h in conjugators:
                        z = mul(hinv, mul(y, h))
                        image = seed_of[z]
                        if image not in reached:
                            reached.add(image)
                            orbit.append(z)
                steps += 1
                if steps > budget.max_closure_steps:
                    return list(found), False
                # a join of admissible elements is a pi-subgroup: by Cauchy
                # and Lagrange its order divides cap
                join = subgroup_closure(g, [x], cap + 1, current, gens, admissible)
                if join is None or join in found:
                    continue
                found.update(_conjugacy_orbit(g, join, gens + (x,)))
                nxt.append(join)
                if len(found) > budget.max_subgroups:
                    return list(found), False
        frontier = nxt
    return list(found), True


@dataclass
class DpiWitnessReport:
    per_class: List[Optional[SubgroupHandle]]
    lattice_exhaustive: bool

    @property
    def refuted(self) -> bool:
        return all(w is not None for w in self.per_class)


def find_dpi_counterexample(
    g: ConcreteGroup,
    pi: Sequence[int],
    census: CensusReport,
    budget: Budget = DEFAULT_BUDGET,
) -> DpiWitnessReport:
    """For each Hall class, a pi-subgroup not conjugate into it (if one exists).

    A witness for every class refutes the full Sylow analogue for pi.  For
    a pi-group there are no witnesses (every pi-subgroup sits in the whole
    group), and the report comes back empty-handed honestly.  Each class
    of the census is a whole conjugacy orbit, so a subgroup has a conjugate
    inside the class's Hall subgroup exactly when it lies in one of the
    class's members.
    """
    pi = tuple(sorted(set(pi)))
    lattice, exhaustive = pi_subgroup_lattice(g, pi, budget)
    lattice = sorted(lattice, key=lambda s: (-len(s), sorted(s)))
    per_class: List[Optional[SubgroupHandle]] = []
    for cls in census.classes:
        witness = None
        for cand in lattice:
            if not any(cand <= h.elements for h in cls):
                witness = SubgroupHandle(cand, _generator_witness(g, cand))
                break
        per_class.append(witness)
    return DpiWitnessReport(per_class, exhaustive)


# ---------------------------------------------------------------------------
# verification against symbolic reports


@dataclass
class VerificationOutcome:
    checks: List[Tuple[str, str, str, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"field": f, "expected": e, "actual": a, "ok": ok}
                for f, e, a, ok in self.checks
            ],
        }


def verify_report(
    g: ConcreteGroup, report: HallReport, census: Optional[CensusReport] = None,
    budget: Budget = DEFAULT_BUDGET,
) -> VerificationOutcome:
    """Compare a symbolic report with the brute-force census, field by field."""
    if census is None:
        census = find_hall_subgroups(g, tuple(sorted(report.pi)), budget)
    checks = []
    expected_hall = report.hall_order
    checks.append(
        ("hall_order", str(expected_hall), str(census.hall_order),
         expected_hall == census.hall_order)
    )
    count = census.class_count  # a census cut short by its budget decides no count
    if census.exhaustive and report.e_pi in (YES, "no"):
        e_actual = YES if count > 0 else "no"
        checks.append(("e_pi", report.e_pi, e_actual, report.e_pi == e_actual))
    if census.exhaustive and report.k_pi is not None:
        checks.append(("k_pi", str(report.k_pi), str(count), report.k_pi == count))
    elif census.exhaustive and report.k_bound is not None:
        # bound-only verdict: the census must land inside the bound set
        checks.append(("k_pi within bound", str(set(report.k_bound)), str(count),
                       count in report.k_bound))
    for cls in census.classes:
        sizes = {h.order for h in cls}
        checks.append(
            ("class order uniformity", str(census.hall_order), str(sizes),
             sizes == {census.hall_order})
        )
    return VerificationOutcome(checks)

