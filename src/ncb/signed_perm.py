"""Signed permutations of {-n..-1, 1..n} and their absolute order.

A signed permutation t satisfies t(-x) = -t(x), so it is determined by the
images of 1..n.  Reflection length is taken with respect to the full set of
n^2 reflections (i,j)(-i,-j), (i,-j)(-i,j) and (i,-i); the absolute order
is the prefix order of that length function.
"""

from __future__ import annotations

from typing import Iterable


class AnnulusShape:
    """Sizes (n1, ..., nk) of the circles carrying 2*n1, ..., 2*nk points.

    Circle j carries the labels m+1..m+nj and their negatives, where m is
    the sum of the earlier sizes.  The two-circle case uses (p, q).
    """

    __slots__ = ("sizes",)

    def __init__(self, *sizes):
        one = sizes[0] if len(sizes) == 1 else None
        if isinstance(one, Iterable) and not isinstance(one, str):
            sizes = tuple(one)
        for s in sizes:
            if type(s) is not int:
                raise ValueError(f"circle size {s!r} is not an int")
        if not sizes:
            raise ValueError("a shape needs at least one circle")
        if any(s < 1 for s in sizes):
            raise ValueError(f"circle sizes must be positive, got {sizes}")
        self.sizes = sizes

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def p(self) -> int:
        if self.k != 2:
            raise ValueError("p/q only make sense for two-circle shapes")
        return self.sizes[0]

    @property
    def q(self) -> int:
        if self.k != 2:
            raise ValueError("p/q only make sense for two-circle shapes")
        return self.sizes[1]

    def labels(self, j: int) -> range:
        """Positive labels carried by circle j (0-based)."""
        m = sum(self.sizes[:j])
        return range(m + 1, m + self.sizes[j] + 1)

    def __eq__(self, other):
        return isinstance(other, AnnulusShape) and self.sizes == other.sizes

    def __hash__(self):
        return hash(("AnnulusShape", self.sizes))

    def __repr__(self):
        return f"AnnulusShape{self.sizes}"


class SignedPermutation:
    """Permutation of {-n..-1, 1..n} commuting with negation.

    Stored as the tuple of images of 1..n.  Instances are treated as
    immutable: they hash and compare by that image tuple.
    """

    __slots__ = ("n", "image")

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        n = len(image)
        seen = [False] * n
        for v in image:
            a = v if v > 0 else -v
            if not 1 <= a <= n or seen[a - 1]:
                raise ValueError(f"not a signed permutation image: {image}")
            seen[a - 1] = True
        self.n = n
        self.image = image

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Iterable[int]) -> "SignedPermutation":
        """Build from cycles on signed labels; the mirrored cycles -c are implied.

        Labels not mentioned in any cycle are fixed.  Conflicting or repeated
        assignments raise ValueError.
        """
        image: list[int | None] = [None] * n

        def assign(a: int, b: int) -> None:
            if a < 0:
                a, b = -a, -b
            if not 1 <= a <= n or not 1 <= abs(b) <= n:
                raise ValueError(f"label out of range 1..{n}")
            if image[a - 1] is not None and image[a - 1] != b:
                raise ValueError(f"conflicting assignments for {a}")
            image[a - 1] = b

        for cycle in cycles:
            cycle = tuple(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assign(a, b)
        for i in range(n):
            if image[i] is None:
                image[i] = i + 1
        return cls(image)  # type: ignore[arg-type]

    def __call__(self, x: int) -> int:
        if not 1 <= abs(x) <= self.n:
            raise ValueError(f"label {x} out of range for n={self.n}")
        if x > 0:
            return self.image[x - 1]
        return -self.image[-x - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition; the right factor acts first."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return SignedPermutation(_compose(self.image, other.image))

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation(_inverse(self.image))

    def orbits(self) -> list[list[int]]:
        """Orbits on {-n..-1, 1..n}, each in traversal order."""
        return _orbits(self.image)

    def length(self) -> int:
        """Reflection length: n minus half the number of non-invariant orbits."""
        return self.n - _noninvariant_orbits(self.image) // 2

    def le(self, other: "SignedPermutation") -> bool:
        """Absolute order: self is on a shortest reflection path to other."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return _le_images(self.image, other.image)

    def cycle_string(self) -> str:
        """Display form: ((c)) for an orbit pair {c, -c}, [h] for the positive
        half of an inversion-invariant orbit."""
        parts = []
        for orbit in self.orbits():
            anchor = min(orbit, key=lambda x: (abs(x), x < 0))
            if anchor < 0:
                continue  # mirrored copy of an orbit already rendered
            i = orbit.index(anchor)
            orbit = orbit[i:] + orbit[:i]
            if -anchor in orbit:
                half = orbit[: len(orbit) // 2]
                parts.append((anchor, "[" + ",".join(map(str, half)) + "]"))
            else:
                parts.append((anchor, "((" + ",".join(map(str, orbit)) + "))"))
        return "".join(text for _, text in sorted(parts))

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"SignedPermutation({list(self.image)})"

    def __str__(self):
        return self.cycle_string()


def _steps(image: tuple[int, ...]) -> tuple[int, ...]:
    """Step table indexed by the signed label: entry x is the image of x,
    negative labels counting from the end."""
    return (0, *image, *[-v for v in reversed(image)])


def _orbits(image: tuple[int, ...]) -> list[list[int]]:
    """Orbits of the image tuple on {-n..-1, 1..n}, each in traversal order,
    started from 1..n and then -1..-n: the joint walk of one step table."""
    return _joint_walk((_steps(image),), len(image))


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in b)


def _inverse(image: tuple[int, ...]) -> tuple[int, ...]:
    n = len(image)
    inv = [0] * n
    for i, v in enumerate(image, start=1):
        if v > 0:
            inv[v - 1] = i
        else:
            inv[-v - 1] = -i
    return tuple(inv)


def _noninvariant_orbits(image: tuple[int, ...]) -> int:
    """Number of orbits on {-n..-1, 1..n} that are not inversion-invariant."""
    return sum(-orbit[0] not in orbit for orbit in _orbits(image))


def _le_images(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # length(a) + length(a^-1 b) == length(b), written orbit-side to avoid
    # repeating the n-offsets:  nonII(a) + nonII(a^-1 b) - nonII(b) == 2n.
    n = len(a)
    rest = _compose(_inverse(a), b)
    return (
        _noninvariant_orbits(a) + _noninvariant_orbits(rest) - _noninvariant_orbits(b)
        == 2 * n
    )


def boundary_permutation(shape: AnnulusShape) -> SignedPermutation:
    """The reference permutation with one inversion-invariant orbit per circle.

    Circle j with labels m+1..m+s contributes the 2s-cycle
    (m+1, ..., m+s, -(m+1), ..., -(m+s)).
    """
    image = []
    for j in range(shape.k):
        labels = shape.labels(j)
        for x in labels[:-1]:
            image.append(x + 1)
        image.append(-labels[0])
    return SignedPermutation(image)


def joint_orbits(a: SignedPermutation, b: SignedPermutation) -> list[list[int]]:
    """Orbits of the group generated by a and b on {-n..-1, 1..n}.

    Each orbit is listed breadth-first from its first label in the order
    1..n, -1..-n.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    return _joint_walk((_steps(a.image), _steps(b.image)), a.n)


def _joint_walk(steps: tuple[tuple[int, ...], ...], n: int) -> list[list[int]]:
    """Orbits of the group generated by the step tables, as joint_orbits
    lists them."""
    seen = [False] * (2 * n + 1)  # indexed by the signed label
    out = []
    for start in (*range(1, n + 1), *range(-1, -n - 1, -1)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:  # grows while it is read
            for step in steps:
                y = step[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        out.append(orbit)
    return out


def genus_defect(a: SignedPermutation, b: SignedPermutation) -> int:
    """Slack in the genus inequality for the triple (a, b, a^-1 b).

    Returns |X| + 2*len(joint_orbits(a, b)) - (#(a) + #(b) + #(a^-1 b))
    where X = {-n..-1, 1..n}; always even and >= 0.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    orbits = [a.image, b.image, _compose(_inverse(a.image), b.image)]
    return 2 * a.n + 2 * len(joint_orbits(a, b)) - sum(len(_orbits(x)) for x in orbits)
