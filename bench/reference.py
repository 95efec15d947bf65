"""A fixed reference workload that measures how fast the host runs right now.

It never imports cvswap, so no change to the engine moves it.  It does the
engine's kind of work in the engine's style: fields kept as dicts of complex
coefficients on slotted objects, combined by linear-optics steps, and 4-point
vacuum moments summed over Wick pairings with fsum.  The host's slowdowns do
not hit every kind of code equally, so a yardstick of the same kind tracks
the engine more closely than a plain arithmetic loop.
"""

from __future__ import annotations

from math import cosh, fsum, sinh

MODES = 8
LAYERS = 6
REPEATS = 350


class Field:
    __slots__ = ("ann", "cre")

    def __init__(self, ann: dict[int, complex], cre: dict[int, complex]) -> None:
        self.ann = {m: complex(c) for m, c in ann.items() if c != 0}
        self.cre = {m: complex(c) for m, c in cre.items() if c != 0}

    def __add__(self, other: Field) -> Field:
        ann = dict(self.ann)
        for m, c in other.ann.items():
            ann[m] = ann.get(m, 0) + c
        cre = dict(self.cre)
        for m, c in other.cre.items():
            cre[m] = cre.get(m, 0) + c
        return Field(ann, cre)

    def __mul__(self, c: complex) -> Field:
        return Field({m: c * v for m, v in self.ann.items()},
                     {m: c * v for m, v in self.cre.items()})

    def adjoint(self) -> Field:
        return Field({m: c.conjugate() for m, c in self.cre.items()},
                     {m: c.conjugate() for m, c in self.ann.items()})


def contraction(f: Field, g: Field) -> complex:
    return sum((c * g.cre[m] for m, c in f.ann.items() if m in g.cre), 0j)


def moment4(product: list[Field]) -> complex:
    pairs = {(i, j): contraction(product[i], product[j])
             for i in range(4) for j in range(i + 1, 4)}
    terms = [pairs[a] * pairs[b] for a, b in
             (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))]
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


def kernel() -> float:
    """Fixed work of about a third of a second; returns a checksum."""
    total = 0.0
    for repeat in range(REPEATS):
        r = 0.1 + 0.001 * repeat
        fields = [Field({m: 1.0}, {}) for m in range(MODES)]
        for layer in range(LAYERS):
            for k in range(layer % 2, MODES - 1, 2):
                a, b = fields[k], fields[k + 1]
                fields[k] = a * cosh(r) + b.adjoint() * sinh(r)
                fields[k + 1] = b * 0.8 + a * 0.6j
        for i in range(MODES - 3):
            total += abs(moment4([fields[i], fields[i + 1].adjoint(),
                                  fields[i + 2], fields[i + 3].adjoint()]))
    return total
