"""Closed-form trace bounds for the simple compact groups.

The extreme values of Tr Ad on the component of an outer automorphism s
are classical: the identity component attains dim G at 1, the minimum
is -(rank) whenever s acts as -1 on the root system, and the remaining
cases form a short table.  The short-root representations of the
non-simply-laced types have a table of their own.  Everything here is a
lookup, making this module the cheap reference the solver pipelines are
judged against.
"""

from dataclasses import dataclass

from .polynomials import qq

_LETTERS = ("A", "B", "C", "D", "E", "F", "G")


def _dim(letter, rank):
    if letter == "A":
        return rank * (rank + 2)
    if letter in ("B", "C"):
        return rank * (2 * rank + 1)
    if letter == "D":
        return rank * (2 * rank - 1)
    return {("E", 6): 78, ("E", 7): 133, ("E", 8): 248,
            ("F", 4): 52, ("G", 2): 14}[(letter, rank)]


def _validate(letter, rank):
    letter = str(letter).upper()
    rank = int(rank)
    ok = (
        (letter == "A" and rank >= 1)
        or (letter in ("B", "C") and rank >= 2)
        # D3 = A3 is admitted: folding D4 by its diagram flip lands on it
        or (letter == "D" and rank >= 3)
        or (letter == "E" and rank in (6, 7, 8))
        or (letter == "F" and rank == 4)
        or (letter == "G" and rank == 2)
    )
    if not ok:
        raise ValueError("no simple type %s%d" % (letter, rank))
    return letter, rank


def outer_orders(letter, rank):
    """Orders of the elements of Out(G)."""
    if letter == "A":
        return (1,) if rank == 1 else (1, 2)
    if letter == "D":
        return (1, 2, 3) if rank == 4 else (1, 2)
    if letter == "E" and rank == 6:
        return (1, 2)
    return (1,)


@dataclass(frozen=True)
class BoundEntry:
    letter: str
    rank: int
    s: int
    lower: object  # exact integer, as a Fraction
    upper: object
    provenance: str  # theorem-case | table-row

    def bounds(self):
        return (self.lower, self.upper)

    def to_json(self):
        return {
            "type": "%s%d" % (self.letter, self.rank),
            "s": self.s,
            "min": str(self.lower),
            "max": str(self.upper),
            "provenance": self.provenance,
        }


def trace_bounds(letter, rank, s=1):
    """Extreme values of Tr Ad on the component of s in Aut(G)."""
    letter, rank = _validate(letter, rank)
    s = int(s)
    if s not in outer_orders(letter, rank):
        raise ValueError(
            "type %s%d has no outer automorphism of order %d"
            % (letter, rank, s)
        )
    n = rank
    dim = _dim(letter, rank)

    def entry(lo, hi, tag):
        return BoundEntry(letter, rank, s, qq(lo), qq(hi), tag)

    if s == 1:
        if letter == "A":
            return entry(-1, dim, "table-row")
        if letter == "D" and n % 2 == 1:
            return entry(2 - n, dim, "table-row")
        if letter == "E" and n == 6:
            return entry(-3, dim, "table-row")
        # -1 is in the Weyl group; the reversal torus element gives -rank
        return entry(-n, dim, "theorem-case")
    if letter == "A":  # s == 2, n >= 2
        return entry(-n, n if n % 2 == 0 else n + 2, "table-row")
    if letter == "D" and s == 3:  # triality, n == 4
        return entry(-2, 7, "table-row")
    if letter == "D":  # s == 2
        if n % 2 == 0:
            return entry(2 - n, 2 * n * n - 5 * n + 2, "table-row")
        return entry(-n, 2 * n * n - 5 * n + 2, "table-row")
    # E6, s == 2
    return entry(-6, 26, "table-row")


def short_root_min(letter, rank):
    """(min Tr rho, dim rho) for rho the highest short root representation."""
    letter, rank = _validate(letter, rank)
    n = rank
    if letter == "B":
        return (qq(1 - 2 * n), 2 * n + 1)
    if letter == "C":
        lo = 1 - n if n % 2 == 1 else -1 - n
        return (qq(lo), 2 * n * n - n - 1)
    if letter == "F":
        return (qq(-6), 26)
    if letter == "G":
        return (qq(-2), 7)
    raise ValueError("%s%d has only one root length" % (letter, rank))


def bounds_table(max_rank=8):
    """Every BoundEntry with rank at most max_rank, deterministic order."""
    out = []
    for letter in _LETTERS:
        for rank in range(1, max_rank + 1):
            try:
                _validate(letter, rank)
            except ValueError:
                continue
            if letter == "D" and rank == 3:
                continue  # alias of A3, kept out of the table proper
            for s in outer_orders(letter, rank):
                out.append(trace_bounds(letter, rank, s))
    return out
