"""Permutations of {1..n} and injections {1..n} -> {1..p}.

One-line notation everywhere: images[i-1] holds f(i).  Cycle output is
canonicalized (minimum element first, cycles sorted by leading element,
fixed points included) so results compare deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .domain import brief
from .errors import BadIndexSet, SizeMismatch


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise BadIndexSet(f"{brief(self.images)} is not a rearrangement of 1..{n}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, *cycles) -> "Permutation":
        """Build from cycles, e.g. from_cycles(6, (1,4,3)); omitted points
        are fixed."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]


def compose(f: Permutation, g: Permutation) -> Permutation:
    """(fg)(x) = f(g(x))."""
    if f.n != g.n:
        raise SizeMismatch(f"compose of sizes {f.n} and {g.n}")
    return Permutation(tuple(f(g(x)) for x in range(1, f.n + 1)))


def inverse(f: Permutation) -> Permutation:
    images = [0] * f.n
    for i in range(1, f.n + 1):
        images[f(i) - 1] = i
    return Permutation(tuple(images))


def cycles(f: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles covering 1..n, each starting at its minimum,
    sorted by leading element; fixed points included."""
    seen = [False] * f.n
    out = []
    for start in range(1, f.n + 1):
        if seen[start - 1]:
            continue
        cyc = []
        x = start
        while not seen[x - 1]:
            seen[x - 1] = True
            cyc.append(x)
            x = f(x)
        out.append(tuple(cyc))
    return tuple(out)


def index(f: Permutation) -> int:
    """Sum of (cycle length - 1): the minimum transposition count."""
    return sum(len(c) - 1 for c in cycles(f))


def inversions(f: Permutation) -> frozenset[tuple[int, int]]:
    return frozenset(
        (i, j) for i, j in combinations(range(1, f.n + 1), 2) if f(i) > f(j)
    )


def inversion_count(f: Permutation) -> int:
    """len(inversions(f)) in O(n log n): scanning right to left, a Fenwick
    tree over the values counts those already seen below each f(i)."""
    tree = [0] * (f.n + 1)
    count = 0
    for v in reversed(f.images):
        k = v - 1
        while k:
            count += tree[k]
            k &= k - 1
        while v <= f.n:
            tree[v] += 1
            v += v & -v
    return count


def sign(f: Permutation) -> int:
    return -1 if index(f) % 2 else 1


@dataclass(frozen=True)
class Injection:
    """An injective map {1..n} -> {1..p} in one-line notation."""

    images: tuple[int, ...]
    codomain: int

    def __post_init__(self):
        if len(set(self.images)) != len(self.images):
            raise BadIndexSet(f"{brief(self.images)} is not injective")
        if any(not 1 <= v <= self.codomain for v in self.images):
            raise BadIndexSet(f"{brief(self.images)} leaves codomain 1..{self.codomain}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]


def decompose_injection(h: Injection) -> tuple[Injection, Permutation]:
    """Unique h = f∘g with f strictly increasing onto image(h) and g a
    permutation of {1..n}."""
    ordered = tuple(sorted(h.images))
    f = Injection(ordered, h.codomain)
    position = {v: k + 1 for k, v in enumerate(ordered)}
    g = Permutation(tuple(position[v] for v in h.images))
    return f, g
