"""Red/blue edge colorings of a host graph, held as one red edge mask over
its canonical edge order."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

RED = 0
BLUE = 1


@dataclass(frozen=True, slots=True)
class Coloring:
    """Immutable red/blue coloring of every edge of a host graph.

    red is an edge mask: bit i is set when host edge i (canonical order,
    lexicographic on the edge's endpoint pair) is red, and every other host
    edge is blue, so counterexamples and exported CNF variables line up.
    """

    host: Graph
    red: int

    def __post_init__(self):
        if type(self.red) is not int:
            raise TypeError(f"red edge mask must be an int, got {type(self.red).__name__}")
        if self.red < 0 or self.red >> self.host.edge_count:
            raise ValueError(f"red edge mask {self.red} is not a set of the host's "
                             f"{self.host.edge_count} edges")

    def edge_triples(self) -> list[list]:
        """JSON form: [u, v, "R"|"B"] per host edge, in canonical order."""
        red = self.red
        return [[u, v, "R" if red >> i & 1 else "B"] for i, (u, v) in enumerate(self.host.edges)]

    @classmethod
    def from_edge_triples(cls, host: Graph, triples) -> "Coloring":
        """Inverse of edge_triples: every host edge must appear exactly once."""
        n, seen, red = host.order, 0, 0
        for u, v, letter in triples:
            # plain ints only (JSON true is a bool), and range first: a negative index would wrap round
            plain = type(u) is int and type(v) is int
            edge = host.edge_bits[u][v] if plain and 0 <= u < n and 0 <= v < n else 0
            if not edge:
                raise ValueError(f"({u},{v}) is not an edge of the host")
            if letter not in ("R", "B"):
                raise ValueError(f"invalid color letter {letter!r}")
            if seen & edge:
                raise ValueError(f"edge ({u},{v}) is colored twice")
            seen |= edge
            if letter == "R":
                red |= edge
        missing = host.edge_count - seen.bit_count()
        if missing:
            raise ValueError(f"{missing} host edges have no color")
        return cls(host, red)


def monochromatic_subgraph(coloring: Coloring, color: int) -> Graph:
    """Graph on the host's vertex set with exactly the edges of one color."""
    if color not in (RED, BLUE):
        raise ValueError("monochromatic_subgraph expects RED or BLUE")
    host = coloring.host
    want = "1" if color == RED else "0"
    rows = [0] * host.order
    # the mask's binary digits, edge 0 first
    for (u, v), bit in zip(host.edges, f"{coloring.red:0{host.edge_count}b}"[::-1]):
        if bit == want:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph._raw(host.order, tuple(rows))
