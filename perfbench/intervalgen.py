"""Seeded interval modules for the `interval` workload, and the benchmark's own
decision procedure for lattice equations.

Two lattice terms are equal in the free distributive lattice exactly when they
agree at every 0/1 assignment of their atoms.  `equal` evaluates both sides at
all assignments at once: an atom's truth table over n atoms is a 2**n-bit
integer, meet is `&` and join is `|`.  It shares no code with trikernel.

A term is a tuple: ("atom", name), ("meet", a, b) or ("join", a, b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MEET_SIZES = tuple(range(1, 9))  # meets of n binary joins; n = 9 crashes the kernel
LAW_ATOMS = (3, 3, 4, 4, 5, 6)  # atoms per module of rewritten random laws
LAW_PAIRS = 3  # true and false equations per law module
BINDER_COUNTS = tuple(range(2, 13))  # interval binders over a used variable

# True equations that the kernel rejects with E-CONV: interval atoms under a
# neutral Int -> Int head are compared without normalising their arguments.
# Fixed text, so every round fails the same operations whatever the seed.
CONGRUENCE_CASES = (
    "axiom f : Int -> Int\n"
    "def comm_meet : (i : Int) -> (j : Int) -> f (i /\\ j) = f (j /\\ i)\n"
    "  := fun i j => refl\n",
    "axiom f : Int -> Int\n"
    "def comm_join : (i : Int) -> (j : Int) -> f (i \\/ j) = f (j \\/ i)\n"
    "  := fun i j => refl\n",
    "axiom f : Int -> Int\n"
    "def absorb : (i : Int) -> (j : Int) -> f (i /\\ (i \\/ j)) = f i\n"
    "  := fun i j => refl\n",
)


@dataclass(frozen=True)
class Case:
    """One operation: a module with its family and a name for diagnostics."""

    family: str  # "meets", "laws", "binders" or "congruence"
    name: str
    text: str


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


def atoms_of(term) -> set[str]:
    if term[0] == "atom":
        return {term[1]}
    return atoms_of(term[1]) | atoms_of(term[2])


def truth_table(term, index: dict[str, int], full: int) -> int:
    """Bit s of the result is the value of `term` at assignment s."""
    if term[0] == "atom":
        i = index[term[1]]
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)  # 2**i zeros, 2**i ones
        return block * (full // ((1 << period) - 1))
    lhs = truth_table(term[1], index, full)
    rhs = truth_table(term[2], index, full)
    return lhs & rhs if term[0] == "meet" else lhs | rhs


def equal(a, b) -> bool:
    """Whether a = b holds in the free distributive lattice."""
    names = sorted(atoms_of(a) | atoms_of(b))
    index = {name: i for i, name in enumerate(names)}
    full = (1 << (1 << len(names))) - 1
    return truth_table(a, index, full) == truth_table(b, index, full)


def show(term) -> str:
    if term[0] == "atom":
        return term[1]
    op = " /\\ " if term[0] == "meet" else " \\/ "
    return "(" + show(term[1]) + op + show(term[2]) + ")"


# ---------------------------------------------------------------------------
# Term generation
# ---------------------------------------------------------------------------


def bracket(op: str, parts: list, rng: random.Random):
    """A random binary tree of `op` over `parts`, in order."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randrange(1, len(parts))
    return (op, bracket(op, parts[:cut], rng), bracket(op, parts[cut:], rng))


def random_term(names: list[str], leaves: int, rng: random.Random):
    parts = [("atom", rng.choice(names)) for _ in range(leaves)]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [(rng.choice(("meet", "join")), parts[i], parts[i + 1])]
    return parts[0]


def _positions(term, path=()):
    yield path
    if term[0] != "atom":
        yield from _positions(term[1], path + (1,))
        yield from _positions(term[2], path + (2,))


def _get(term, path):
    for step in path:
        term = term[step]
    return term


def _put(term, path, new):
    if not path:
        return new
    parts = list(term)
    parts[path[0]] = _put(term[path[0]], path[1:], new)
    return tuple(parts)


def _law_rewrites(t, names: list[str], rng: random.Random) -> list:
    """Terms equal to `t` by one lattice law applied at its root."""
    out = [("join", t, t), ("meet", t, ("join", t, ("atom", rng.choice(names))))]
    if t[0] == "atom":
        return out
    op, a, b = t
    dual = "join" if op == "meet" else "meet"
    out.append((op, b, a))
    if a[0] == op:
        out.append((op, a[1], (op, a[2], b)))
    if b[0] == dual:
        out.append((dual, (op, a, b[1]), (op, a, b[2])))
    return out


def rewrite(term, names: list[str], steps: int, rng: random.Random):
    """Apply `steps` random law instances at random positions."""
    for _ in range(steps):
        path = rng.choice(list(_positions(term)))
        term = _put(term, path, rng.choice(_law_rewrites(_get(term, path), names, rng)))
    return term


def mutate(term, names: list[str], rng: random.Random):
    """A nearby term that differs from `term` in the free lattice."""
    for _ in range(50):
        path = rng.choice(list(_positions(term)))
        sub = _get(term, path)
        if sub[0] == "atom":
            new = ("atom", rng.choice([n for n in names if n != sub[1]]))
        else:
            new = ("join" if sub[0] == "meet" else "meet", sub[1], sub[2])
        out = _put(term, path, new)
        if not equal(term, out):
            return out
    # Redundant terms such as (a /\ a) \/ a absorb every local change.  Over
    # two or more atoms some atom is not below the term, or the term is not
    # below some atom, so a join or a meet with it changes the value.
    for name in rng.sample(names, len(names)):
        for op in ("join", "meet"):
            out = (op, term, ("atom", name))
            if not equal(term, out):
                return out
    raise AssertionError(f"no term differs from {show(term)}")


def _axioms(names) -> str:
    return "".join(f"axiom {n} : Int\n" for n in names)


def _equation(name: str, lhs, rhs) -> str:
    if equal(lhs, rhs):
        return f"def {name} : {show(lhs)} = {show(rhs)} := refl\n"
    return f'fail-check "E-CONV" refl : {show(lhs)} = {show(rhs)}\n'


def meets_case(n: int, holds: bool, rng: random.Random) -> Case:
    """A meet of n binary joins against a rearranged copy of itself; in the
    false variant one join loses an argument."""
    names = [f"x{k}" for k in range(2 * n)]
    rng.shuffle(names)
    joins = [("join", ("atom", names[2 * k]), ("atom", names[2 * k + 1])) for k in range(n)]
    lhs = bracket("meet", joins, rng)
    other = [(op, b, a) if rng.random() < 0.5 else (op, a, b) for op, a, b in joins]
    rng.shuffle(other)
    if not holds:
        other[0] = other[0][1]
    rhs = bracket("meet", other, rng)
    if equal(lhs, rhs) != holds:
        raise AssertionError(f"meets case n={n} generated with the wrong truth")
    return Case("meets", f"meets{n}-{'t' if holds else 'f'}",
                _axioms(sorted(names)) + _equation("m", lhs, rhs))


def laws_case(atoms: int, rng: random.Random) -> Case:
    """Random terms against law-rewritten (true) and mutated (false) partners."""
    names = [f"a{k}" for k in range(atoms)]
    body = []
    for k in range(LAW_PAIRS):
        lhs = random_term(names, atoms + 2, rng)
        same = rewrite(lhs, names, 3, rng)
        if not equal(lhs, same):
            raise AssertionError("a law rewrite changed the term's value")
        body.append(_equation(f"t{k}", lhs, same))
        body.append(_equation("_", lhs, mutate(same, names, rng)))
    return Case("laws", f"laws{atoms}", _axioms(names) + "".join(body))


def binders_case(k: int, rng: random.Random) -> Case:
    """A variable of a non-interval type returned under k interval binders,
    with Nat binders mixed in; each use enumerates 2**k lock subsets."""
    values = rng.randrange(1, 4)
    used = rng.randrange(values)
    binders = [f"(i{j} : Int)" for j in range(k)]
    for j in range(rng.randrange(3)):
        binders.insert(rng.randrange(len(binders) + 1), f"(n{j} : Nat)")
    names = [b[1:].split(" ")[0] for b in binders]
    value_names = [f"v{j}" for j in range(values)]
    ty = " -> ".join(["(A : U 0)"] + [f"({v} : A)" for v in value_names] + binders + ["A"])
    lam = " ".join(["A"] + value_names + names)
    return Case("binders", f"binders{k}",
                f"def keep : {ty}\n  := fun {lam} => {value_names[used]}\n")


def make_round(rng: random.Random) -> list[Case]:
    """One round: the same families and sizes for every seed, in seeded order."""
    cases = [meets_case(n, holds, rng) for n in MEET_SIZES for holds in (True, False)]
    cases += [laws_case(atoms, rng) for atoms in LAW_ATOMS]
    cases += [binders_case(k, rng) for k in BINDER_COUNTS]
    cases += [Case("congruence", f"congruence{i}", text)
              for i, text in enumerate(CONGRUENCE_CASES)]
    rng.shuffle(cases)
    return cases
