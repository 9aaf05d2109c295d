"""Exhaustive arrowing search with monochromatic-copy propagation.

Decides host -> (red, blue), lists every free coloring of a small host,
computes Ramsey numbers and deletion-critical numbers, and exports the
search space as DIMACS CNF.

The engine is one generator, _free_colorings.  It takes every copy of
each target inside the host, as an edge bitmask, from
containment.enumerate_copies, turns the copies into clauses ("some edge
of a red copy must be blue" and vice versa), and runs an explicit-stack
depth-first search over edge assignments with unit
propagation.  Each copy is one bit (a lane) of big ints: per host edge,
the copies through it; per color, the copies still alive and the copies
with one free edge left; and bit-sliced planes holding every alive copy's
free-edge count.  Coloring an edge updates all copies through it at once,
in a few big-int operations; the copies it leaves with one free edge wait
on a stack as one lane mask, and propagation reads their free edges one
lane at a time, so a conflict leaves the rest unread.  Backtracking
restores a saved state.  When the copies pass the copy cap, the same
search learns its clauses instead: each newly colored edge asks for a
copy through it in its color class, and a copy found is a conflict and a
new lane.  The generator yields the red edge mask of each complete free
coloring it reaches; arrows takes the first (exhausting the space proves
arrowing, and a coloring is re-verified before it is returned as a
counterexample), and all_free_colorings takes them all.

A clause-mode search that passes _SPLIT_GATE (4,096) nodes, in a process
that has more than one CPU, os.fork and a single thread, cuts the rest of
its tree into subtrees in DFS order, walks them in forked worker
processes and merges the results back in DFS order.  In clause mode the
tree is a fixed function of the host, the targets and the branch order,
so the verdict, the node count (also at an exhausted budget), the
counterexample and the order of the colorings equal the sequential
search's.  Learned mode stays sequential.

The search and export_dimacs call enumerate_copies through this module's
name for it, so a wrapper set on arrowing.enumerate_copies sees each call.
"""

from __future__ import annotations

import gc
import marshal
import os
import select
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from enum import Enum

from . import formulas
from .coloring import BLUE, RED, Coloring, monochromatic_subgraph
from .containment import (
    DEFAULT_COPY_CAP,
    CopyCapError,
    TargetKind,
    contains_target,
    copy_through,
    enumerate_copies,
    target_graph,
    target_label,
    target_to_spec,
)
from .graphs import Complete, Graph, Matching, Minus, Path, realize


class IndeterminateError(RuntimeError):
    """Search budget exhausted before reaching a verdict."""


class NotFoundWithinBoundError(RuntimeError):
    """No arrowing complete graph exists within the requested bound."""


@dataclass
class SearchStats:
    nodes: int = 0
    runtime_ms: float = 0.0
    propagation_mode: str = "clauses"
    budget_exhausted: bool = False


@dataclass
class ArrowingResult:
    verdict: str  # "arrows" | "counterexample" | "indeterminate"
    counterexample: Coloring | None
    stats: SearchStats

    @property
    def arrows(self) -> bool:
        return self.verdict == "arrows"


class DeletionFamily(Enum):
    """Indexed family of subgraphs deleted from K_r.

    PATH and CLIQUE are indexed by vertex count (so PATH matches the
    path-critical definition); MATCHING is indexed by edge count.
    """

    PATH = "path"
    MATCHING = "matching"
    CLIQUE = "clique"

    def deletion_spec(self, index: int):
        if self is DeletionFamily.PATH:
            return Path(index)
        if self is DeletionFamily.MATCHING:
            return Matching(index)
        return Complete(index)

    def first_index(self) -> int:
        # index 1 deletes no edge for PATH/CLIQUE, so the scan starts at 2
        return 1 if self is DeletionFamily.MATCHING else 2

    def max_index(self, r: int) -> int:
        return r // 2 if self is DeletionFamily.MATCHING else r

    @property
    def index_unit(self) -> str:
        return "edges" if self is DeletionFamily.MATCHING else "vertices"


# ---------------------------------------------------------------------------
# Clause-propagation search on copy lanes
#
# Copy j of a target is lane j: bit j of an int that spans the target's
# copies.  lanes[e] has bit j set when copy j contains host edge e, so one
# big-int operation visits every copy through an edge.

_LANE_BLOCK = 4096  # copies transposed at a time (a multiple of 8)
# _BIT_DIGIT[t] maps each byte to b"1" when its bit t is set, else to b"0"
_BIT_DIGIT = [bytes(48 + (x >> t & 1) for x in range(256)) for t in range(8)]


def _lanes(copies: list[int], k: int, m: int) -> list[int]:
    """The transposed copy masks: bit j of lanes[e] is set when copies[j] contains edge e.

    k is the edge count of every copy and m the host's.  With at most six
    copies per edge on average, each copy ORs its lane into the lanes of its
    edges, which is the quicker way there.  Otherwise each block of
    _LANE_BLOCK copies is written out as little-endian bytes, last copy
    first, so that the strided slice of byte e // 8 of every copy, mapped to
    binary digits by bit e % 8, spells the block's lane of e: a few calls
    per edge and block, where the OR loop's cost grows with copies times
    edges.
    """
    if len(copies) * k <= 6 * m:
        lanes = [0] * m
        lane = 1
        for mask in copies:
            while mask:
                e = mask.bit_length() - 1
                lanes[e] |= lane
                mask ^= 1 << e
            lane <<= 1
        return lanes
    width = (m + 7) >> 3
    blocks = []
    for lo in range(0, len(copies), _LANE_BLOCK):
        data = b"".join([mask.to_bytes(width, "little")
                         for mask in reversed(copies[lo:lo + _LANE_BLOCK])])
        blocks.append([int(data[e >> 3::width].translate(_BIT_DIGIT[e & 7]), 2)
                       for e in range(m)])
    if len(blocks) == 1:
        return blocks[0]
    size = _LANE_BLOCK >> 3
    return [int.from_bytes(b"".join([block[e].to_bytes(size, "little") for block in blocks]),
                           "little")
            for e in range(m)]


def _branch_order(host: Graph, deterministic: bool) -> list[int]:
    edges = host.edges
    if deterministic:
        return list(range(len(edges)))
    degs = [row.bit_count() for row in host.adj]
    # highest degree sum first; the sort is stable, so ties stay in canonical order
    key = [-(degs[u] + degs[v]) for u, v in edges]
    return sorted(range(len(edges)), key=key.__getitem__)


def _free_colorings(host, red, blue, stats, *, order, symmetric, budget=None, copy_cap=None,
                    first=False):
    """An iterator over each free coloring of the host as its red edge mask, in DFS order.

    An explicit-stack DFS over the edges in branch order, with unit
    propagation over the copy clauses ("some edge of a red copy is blue"
    and vice versa); each decision tries RED before BLUE, and symmetric
    (for red == blue) fixes the first free edge RED.  With first, the
    iterator stops after the first coloring.

    Copy j of targets[c] is lane j of color c, and lanes[c][e] has bit j
    set when that copy contains edge e.  A state is one flat list: the red
    and blue edge masks; per color, the alive lanes (copies with no edge of
    the other color) and the unit lanes (alive copies with one free edge);
    then per color, the free-edge count minus two of each other alive copy,
    bit-sliced over (k - 2).bit_length() plane ints, k the target's edge
    count.  Coloring e with c kills the lanes of the other color through e.
    Of the alive lanes of c through e, a unit lane is a copy now all c, a
    conflict; the others take a ripple-borrow decrement, and the borrow out
    of the last plane is the set of new unit lanes.  It goes onto a pending
    stack as one (lanes, c) entry.  Each pop takes the highest lane of the
    top entry, so units are processed newest batch first and, within a
    batch, highest lane first, and colors that copy's one free edge, read
    from the current edge masks, with the other color; the lane is skipped
    when another unit has colored that edge since.  A step builds a new
    state, so backtracking restores a saved one.  Every step starts from an
    uncolored edge: a decision takes its edge from skip, a BLUE branch runs
    on the state saved before its edge was colored RED, and in the one-edge
    pre-pass the copies have distinct edges and a step that colors any edge
    besides its own conflicts at once.

    When either target has more than copy_cap copies (DEFAULT_COPY_CAP,
    read at call time, when it is None), both sides learn
    their clauses instead: every state the search reaches has no
    monochromatic copy, so coloring e with c (by a decision or by
    propagation) asks copy_through for a copy through e in the grown class.
    A copy found is a conflict and becomes a new lane of c; a state popped
    from the DFS stack first takes in the lanes learned since it was
    pushed, counted from its own edge masks, so learned clauses propagate
    in every later branch.  Such a lane was learned inside the pushed
    state's RED subtree, as a copy all of color c there, so no edge of it
    has the other color in the pushed state and its lane is alive.  For
    that query the learned-mode state also carries the adjacency rows of
    each color class, which step grows with each colored edge.

    A clause-mode search that passes _SPLIT_GATE nodes (read at call time)
    walks the rest of its tree in worker processes; see _split.

    stats gets nodes (current at each yield), propagation_mode and
    budget_exhausted; the search stops once nodes passes the budget.
    """
    n, edges = host.order, host.edges
    m = len(edges)
    bit = [1 << e for e in range(m)]
    targets = (red, blue)
    cap = DEFAULT_COPY_CAP if copy_cap is None else copy_cap
    try:
        copies = [enumerate_copies(host, t, cap) for t in targets]
    except CopyCapError:
        stats.propagation_mode = "learned"
        copies = None
    sizes = []
    for t in targets:
        p = target_graph(t)
        k = p.edge_count
        # an edgeless target that fits is in every color class, so no coloring is free
        if not k and p.order <= n:
            return iter(())
        sizes.append(k)
    learning = copies is None
    if learning:
        copies = [[], []]
        edge_bits = host.edge_bits
    lanes = [_lanes(cps, k, m) for cps, k in zip(copies, sizes)]
    learned = []  # (color, lane) of each learned copy, in the order learned

    def learn(rows, e, c):
        # a copy of targets[c] through e in the class with adjacency rows, as a new lane
        copy = copy_through(Graph._raw(n, rows), targets[c], *edges[e])
        if copy is None:
            return False
        j = len(copies[c])
        lane = 1 << j
        mask = 0
        for a, b in copy:
            edge = edge_bits[a][b]
            mask |= edge
            lanes[c][edge.bit_length() - 1] |= lane
        copies[c].append(mask)
        learned.append((c, j))
        return True

    def step(state, e, c):
        # state with the uncolored edge e colored c and its consequences, or None on a conflict
        b = bit[e]
        s = list(state)
        # (unit lanes, their color) batches whose one free edge takes the other color
        pending = []
        while True:
            flip = 1 - c
            s[c] |= b
            s[2 + flip] &= ~lanes[flip][e]
            hit = lanes[c][e] & s[2 + c]
            if hit:
                if hit & s[4 + c]:
                    return None  # a copy of targets[c] is now all c
                for i in planes[c]:
                    p = s[i]
                    s[i] = p ^ hit
                    hit &= ~p
                    if not hit:
                        break
                else:
                    # the borrow out of the last plane: copies left with one free edge
                    s[4 + c] |= hit
                    pending.append((hit, c))
            if learning:
                x, y = edges[e]
                rows = list(s[rows_at + c])
                rows[x] |= 1 << y
                rows[y] |= 1 << x
                s[rows_at + c] = rows = tuple(rows)
                if learn(rows, e, c):
                    return None
            # the next unit: the highest lane of the newest batch.  Its one
            # free edge may have been colored since, and then with the other
            # color (its own would have been a conflict, already returned), so
            # the copy is dead and skipped
            while pending:
                units, u = pending.pop()
                j = units.bit_length() - 1
                units ^= 1 << j
                if units:
                    pending.append((units, u))
                b = copies[u][j] & ~(s[RED] | s[BLUE])
                if b:
                    e, c = b.bit_length() - 1, 1 - u
                    break
            else:
                return s

    def catch_up(state, since):
        # the state with the lanes learned after learned[:since], counted from its edge masks
        s = list(state)
        free = ~(s[RED] | s[BLUE])
        for c, j in learned[since:]:
            mask = copies[c][j]
            lane = 1 << j
            s[2 + c] |= lane
            count = (mask & free).bit_count()
            if count == 1:
                s[4 + c] |= lane
            else:
                for shift, i in enumerate(planes[c]):
                    if count - 2 >> shift & 1:
                        s[i] |= lane
        return s

    def skip(state, oi):
        # the first order position from oi whose edge is still uncolored
        assigned = state[RED] | state[BLUE]
        while oi < m and assigned & bit[order[oi]]:
            oi += 1
        return oi

    # the state: red, blue, alive[RED], alive[BLUE], unit[RED], unit[BLUE], the
    # planes of color c at the indices planes[c], and in learned mode the rows
    # of color class c at rows_at + c
    state = [0, 0, 0, 0, 0, 0]
    planes = []
    for c in (RED, BLUE):
        every = state[2 + c] = (1 << len(copies[c])) - 1
        # each copy starts with its k edges free: one-edge copies are units,
        # and the others count k - 2
        count = sizes[c] - 2
        if count < 0:
            state[4 + c] = every
        start = len(state)
        while count > 0:
            state.append(every if count & 1 else 0)
            count >>= 1
        planes.append(range(start, len(state)))
    rows_at = len(state)
    if learning:
        state += [(0,) * n, (0,) * n]

    # one-edge copies fix their edge before any decision
    for forbid in (RED, BLUE):
        if sizes[forbid] == 1:
            for mask in copies[forbid]:
                state = step(state, mask.bit_length() - 1, 1 - forbid)
                if state is None:
                    return iter(())

    if symmetric:
        oi = skip(state, 0)
        if oi < m:
            state = step(state, order[oi], RED)
            if state is None:
                return iter(())

    tree = (step, catch_up, skip, order, learned)
    return _walk(tree, stats, state, skip(state, 0), _NO_LIMIT if budget is None else budget,
                 None if learning else _SPLIT_GATE, first)


def _walk(tree, stats, state, oi, budget, gate, first):
    """Yield the free colorings of the subtree at state, from order position oi, in DFS order.

    tree is (step, catch_up, skip, order, learned) of one search.  Counts
    nodes from 0 into stats.  Past gate nodes (None for never), the
    rest of the tree goes to _split when the process may fork; a worker
    walks with no gate, so it never forks.
    """
    step, catch_up, skip, order, learned = tree
    m = len(order)
    limit = budget if gate is None else min(gate, budget)
    nodes = 0
    # (order position, state before it, len(learned) then) of decisions whose BLUE branch is open
    stack = []
    while True:
        if oi == m:
            stats.nodes = nodes
            yield state[RED]
            if first:
                return
        else:
            nodes += 1
            if nodes > limit:
                if nodes > budget:
                    stats.nodes, stats.budget_exhausted = nodes, True
                    return
                workers = _workers()
                if workers > 1:
                    yield from _split(tree, stats, state, oi, stack, nodes, budget, first, workers)
                    return
                limit = budget
            stack.append((oi, state, len(learned)))
            nxt = step(state, order[oi], RED)
            if nxt is not None:
                state = nxt
                oi = skip(state, oi + 1)
                continue
        while stack:
            oi, state, since = stack.pop()
            if since < len(learned):
                state = catch_up(state, since)
            nxt = step(state, order[oi], BLUE)
            if nxt is not None:
                state = nxt
                oi = skip(state, oi + 1)
                break
        else:
            stats.nodes = nodes
            return


# ---------------------------------------------------------------------------
# Splitting a clause-mode search over worker processes
#
# The nodes before a subtree plus the nodes inside it are the sequential
# count at any point of it, so a merge in DFS order gives every output of
# the sequential search.  Learned mode stays sequential, since its lanes
# carry over from one subtree to the next.  Workers are forked, not
# spawned, so that they start from the search's lanes and step functions
# as built; a fork is safe only while a single thread runs.

_SPLIT_GATE = 4096  # nodes a search walks alone before it splits
_SUBTREES_PER_WORKER = 32
_NO_LIMIT = sys.maxsize  # the budget of a search that has none


def _workers() -> int:
    """Processes a split may use: 1 where forking is missing or unsafe (a second thread)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(tree, stats, state, oi, stack, nodes, budget, first, workers):
    """Yield what _walk would yield from its decision node at (state, oi) on.

    nodes counts that node.  The rest of the tree is its two branches and
    the open BLUE branches on stack, newest first.  The subtree with the
    most free edges is expanded into its counted node and two branches
    until there are _SUBTREES_PER_WORKER subtrees per worker (as many as
    one atomic pipe write of 4-byte indices holds).  Workers take the
    indices from that one queue and each walks its subtrees with the
    budget left at the split, which covers any subtree's share, and stops
    a subtree at its first coloring under first.  The merge adds up nodes
    in DFS order and cuts back to the budget.  Every worker is killed and
    reaped on the way out, however the generator ends.
    """
    step, _, skip, order, _ = tree
    m = len(order)

    def branch(state, oi, c):
        nxt = step(state, order[oi], c)
        return None if nxt is None else (nxt, skip(nxt, oi + 1))

    def free(item):
        return -1 if item is None else m - (item[0][RED] | item[0][BLUE]).bit_count()

    # the rest of the tree in DFS order: (state, oi) for a subtree, None for a node counted here
    items = [branch(state, oi, RED), branch(state, oi, BLUE)]
    items += [branch(s, o, BLUE) for o, s, _ in reversed(stack)]
    items = [item for item in items if item is not None]
    want = min(_SUBTREES_PER_WORKER * workers, select.PIPE_BUF // 4)
    while len(items) - items.count(None) < want:
        frees = [free(item) for item in items]
        most = max(frees, default=0)
        if most <= 0:
            break  # every subtree left is a single coloring
        i = frees.index(most)
        s, o = items[i]
        items[i:i + 1] = [None] + [x for x in (branch(s, o, RED), branch(s, o, BLUE)) if x]
    roots = [item for item in items if item is not None]

    tasks, queue = os.pipe()
    os.write(queue, b"".join(i.to_bytes(4, "little") for i in range(len(roots))))
    os.close(queue)
    running = {}  # result pipe -> worker pid
    try:
        for _ in range(min(workers, len(roots))):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:  # the worker: exit without unwinding the caller's frames
                code = 1
                try:
                    _serve(tree, roots, budget - nodes, first, tasks, into)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            running[out] = pid
            os.close(into)
        done = {}  # subtree index -> (leaves, nodes)
        partial = {fd: b"" for fd in running}
        at = 0
        for item in items:
            if item is None:
                nodes += 1
                if nodes > budget:
                    break
                continue
            while at not in done:
                _receive(running, partial, done)
            leaves, count = done.pop(at)
            at += 1
            for local, mask in leaves:
                if nodes + local > budget:
                    break
                stats.nodes = nodes + local
                yield mask
                if first:
                    return
            nodes += count
            if nodes > budget:
                break
        else:
            stats.nodes = nodes
            return
        stats.nodes, stats.budget_exhausted = budget + 1, True
    finally:
        for fd, pid in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        os.close(tasks)


def _serve(tree, roots, budget, first, tasks, out):
    """Walk each subtree whose index comes off tasks; write (index, leaves, nodes) to out.

    leaves holds (nodes before it, red mask) of each coloring, nodes the
    subtree's count, budget + 1 when it ran out.
    """
    # a collection would touch, and so copy, every object the fork shares
    gc.disable()
    # an interrupt is the parent's to handle: it kills the workers on its way out
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        record = os.read(tasks, 4)  # the queue was written whole, so a read takes one index
        if not record:
            return
        i = int.from_bytes(record, "little")
        stats = SearchStats()
        state, oi = roots[i]
        leaves = [(stats.nodes, mask) for mask in _walk(tree, stats, state, oi, budget, None, first)]
        data = marshal.dumps((i, leaves, stats.nodes))
        view = memoryview(len(data).to_bytes(8, "little") + data)
        while view:
            view = view[os.write(out, view):]


def _receive(running, partial, done):
    """Read the results the workers have written into done; reap a worker whose pipe closed.

    A worker that exits without writing every result it took raises RuntimeError.
    """
    if not running:
        raise RuntimeError("search workers exited before every subtree was walked")
    poller = select.poll()
    for fd in running:
        poller.register(fd, select.POLLIN)
    for fd, _ in poller.poll():
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            pid = running.pop(fd)
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code or partial[fd]:
                raise RuntimeError(f"search worker {pid} ended with exit code {code} "
                                   f"before writing all its results")
            continue
        data = partial[fd] + chunk
        while len(data) >= 8:
            size = 8 + int.from_bytes(data[:8], "little")
            if len(data) < size:
                break
            i, leaves, count = marshal.loads(data[8:size])
            done[i] = (leaves, count)
            data = data[size:]
        partial[fd] = data


def check_free(coloring: Coloring, red: TargetKind, blue: TargetKind) -> Coloring:
    """Return the coloring after re-checking that neither color class holds its target.

    Raises RuntimeError naming the failing side: a coloring that a search or
    a construction built as free and that is not is a bug there.
    """
    for color, side, target in ((RED, "red", red), (BLUE, "blue", blue)):
        if contains_target(monochromatic_subgraph(coloring, color), target):
            raise RuntimeError(
                f"freeness re-check failed: the {side} side contains {target_label(target)}"
            )
    return coloring


def arrows(
    host: Graph,
    red: TargetKind,
    blue: TargetKind,
    *,
    budget: int | None = None,
    deterministic: bool = False,
    copy_cap: int | None = None,
) -> ArrowingResult:
    """Decide host -> (red, blue).

    Arrows means every complete red/blue coloring of the host edges has a
    red copy of the red target or a blue copy of the blue target.  A
    counterexample is a complete free coloring, re-verified by containment
    before it is returned.  In deterministic mode the counterexample is the
    lexicographically least free assignment in canonical edge order (red
    below blue).  A copy_cap of None stands for DEFAULT_COPY_CAP as it is
    at call time.
    """
    t0 = time.perf_counter()
    stats = SearchStats()
    found = next(_free_colorings(
        host, red, blue, stats, order=_branch_order(host, deterministic),
        symmetric=red == blue, budget=budget, copy_cap=copy_cap, first=True,
    ), None)
    stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    if stats.budget_exhausted:
        return ArrowingResult("indeterminate", None, stats)
    if found is None:
        return ArrowingResult("arrows", None, stats)
    return ArrowingResult("counterexample", check_free(Coloring(host, found), red, blue), stats)


def all_free_colorings(host: Graph, red: TargetKind, blue: TargetKind) -> list[Coloring]:
    """Every complete free coloring of the host, in lexicographic order (canonical edge order)."""
    if host.edge_count > 30:
        raise ValueError(
            f"exhaustive enumeration supports at most 30 host edges, got {host.edge_count}"
        )
    order = _branch_order(host, deterministic=True)
    search = _free_colorings(host, red, blue, SearchStats(), order=order, symmetric=False)
    return [Coloring(host, mask) for mask in search]


# ---------------------------------------------------------------------------
# Ramsey and critical numbers


def _arrows_or_raise(host: Graph, red: TargetKind, blue: TargetKind, budget, what: str) -> bool:
    """Whether host -> (red, blue); IndeterminateError naming what when the budget runs out."""
    result = arrows(host, red, blue, budget=budget)
    if result.verdict == "indeterminate":
        raise IndeterminateError(f"budget exhausted deciding {what}")
    return result.arrows


def ramsey_number(
    red: TargetKind,
    blue: TargetKind,
    max_r: int = 64,
    *,
    budget: int | None = None,
) -> int:
    """Smallest r <= max_r with K_r -> (red, blue), by ascending search.

    The scan starts from the Burr lower bound when its hypotheses apply.
    The result is the search value alone; formulas.compare_with_catalog
    checks it against the catalog.  The node budget applies to each host's
    search, not to the scan.
    """
    if max_r > 64:
        raise ValueError("max_r is capped at 64")
    if max_r < 1:
        raise ValueError(f"max_r must be at least 1, got {max_r}")
    start = 1
    try:
        start = max(start, formulas.burr_bound(target_to_spec(red), target_to_spec(blue)))
    except ValueError:  # formulas.HypothesisError included
        pass
    for r in range(start, max_r + 1):
        if _arrows_or_raise(realize(Complete(r)), red, blue, budget, f"K_{r}"):
            return r
    raise NotFoundWithinBoundError(
        f"no complete graph up to K_{max_r} arrows ({target_label(red)}, {target_label(blue)})"
    )


def critical_number(
    red: TargetKind,
    blue: TargetKind,
    family: DeletionFamily,
    r: int,
    *,
    budget: int | None = None,
) -> int:
    """Largest family index whose deletion from K_r preserves arrowing.

    r is required; the paper's critical numbers take r = R(red, blue), which
    ramsey_number gives.  Returns 0 when even the smallest one-edge deletion
    (P_2 / M_1 / K_2) breaks arrowing while K_r itself arrows, and raises
    ValueError when K_r does not arrow (r below R), which is searched only
    when the first deletion fails or K_r has none.  Deleting family member i+1 removes a
    superset of the edges of member i under the canonical placement, so the
    upward scan stops at the first failure.  The node budget applies to
    each host's search, not to the scan.
    """
    last = 0
    index = family.first_index()
    while index <= family.max_index(r):
        host = realize(Minus(Complete(r), family.deletion_spec(index)))
        if not _arrows_or_raise(host, red, blue, budget,
                                f"K_{r} minus {family.value} index {index}"):
            break
        last = index
        index += 1
    if not last and not _arrows_or_raise(realize(Complete(r)), red, blue, budget, f"K_{r}"):
        raise ValueError(f"K_{r} does not arrow ({target_label(red)}, {target_label(blue)}), "
                         f"so r is below their Ramsey number")
    return last


def result_to_json(host_label: str, red: TargetKind, blue: TargetKind, result: ArrowingResult) -> dict:
    """Wire form of a search outcome (counterexample key only when present)."""
    payload = {
        "host": host_label,
        "red": target_label(red),
        "blue": target_label(blue),
        "verdict": result.verdict,
        "stats": {
            "nodes": result.stats.nodes,
            "runtime_ms": round(result.stats.runtime_ms, 1),
            "propagation_mode": result.stats.propagation_mode,
        },
    }
    if result.counterexample is not None:
        payload["counterexample"] = result.counterexample.edge_triples()
    return payload


# ---------------------------------------------------------------------------
# DIMACS export


def export_dimacs(host: Graph, red: TargetKind, blue: TargetKind) -> str:
    """CNF whose satisfying assignments are exactly the free colorings.

    One variable per host edge in canonical order (positive literal = red);
    each red-target copy contributes an all-negative clause, each
    blue-target copy an all-positive clause.  The formula is satisfiable
    iff the host does NOT arrow.
    """
    red_copies = enumerate_copies(host, red, DEFAULT_COPY_CAP)
    blue_copies = enumerate_copies(host, blue, DEFAULT_COPY_CAP)
    lines = [
        "c arrowing CNF: satisfiable iff the host admits a free coloring",
        f"c host: {host.order} vertices, {host.edge_count} edges",
        f"c red target {target_label(red)}: {len(red_copies)} copies, clauses all-negative",
        f"c blue target {target_label(blue)}: {len(blue_copies)} copies, clauses all-positive",
        "c positive literal = red edge",
    ]
    for idx, (u, v) in enumerate(host.edges):
        lines.append(f"c edge {u} {v} var {idx + 1}")
    lines.append(f"p cnf {host.edge_count} {len(red_copies) + len(blue_copies)}")
    for sign, copies in ((-1, red_copies), (1, blue_copies)):
        clauses = sorted([e for e in range(mask.bit_length()) if mask >> e & 1] for mask in copies)
        for ids in clauses:
            lines.append(" ".join(str(sign * (e + 1)) for e in ids) + " 0")
    return "\n".join(lines) + "\n"
