"""Canonical integer encoding of rooted complexes and the local metric.

Every finite subset of the nonnegative integers gets one position in a fixed
enumeration (:func:`subset_from_index`), so a complex on vertices 0..N-1 is a
0/1 sequence.  Codes are compared by the first differing position, where the
sequence holding a 1 there is the *smaller* one; the canonical code of a
rooted complex is the minimum over all labelings that put the root at 0.

Minimal labelings have two structural properties this module relies on:
the labels used form an initial interval 0..N-1, and label order refines
breadth-first distance from the root.  Both follow from minimality (moving
any simplex to a smaller position wins immediately), which is what lets the
search below restrict itself to layer-by-layer orderings.
"""

from __future__ import annotations

import operator
import struct

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain

from .complexes import RootedComplex, SimplicialComplex, _bfs, _grouped
from .errors import ValidationError, _check_int

__all__ = [
    "CanonicalCode",
    "canonical_code",
    "subset_from_index",
    "index_of_subset",
    "find_rooted_isomorphism",
    "bs_distance",
]

_CODE_CACHE: dict = {}
_CODE_CACHE_LIMIT = 1 << 15
_TIE_CAP = 64
_AUTOMORPHISM_BUDGET = 200_000


def subset_from_index(n: int) -> frozenset:
    """The n-th finite subset of the nonnegative integers.

    Position n holds the set of 1-bit positions in the binary expansion of
    n + 1, e.g. 0 -> {0}, 1 -> {1}, 2 -> {0, 1}, 3 -> {2}, 7 -> {3}.  Every
    subset of {0..k} occurs among the first 2**(k+1) positions.
    """
    bits = _check_int(n, "subset index") + 1
    out = []
    pos = 0
    while bits:
        if bits & 1:
            out.append(pos)
        bits >>= 1
        pos += 1
    return frozenset(out)


def index_of_subset(subset) -> int:
    """Inverse of :func:`subset_from_index`."""
    try:
        members = set(map(operator.index, subset))
    except TypeError:
        raise ValidationError(f"subsets must contain integers: {subset!r}") from None
    if not members:
        raise ValidationError("the empty set has no index")
    total = 0
    for v in members:
        if v < 0:
            raise ValidationError("subsets must contain nonnegative integers")
        total += 1 << v
    return total - 1


class CanonicalCode:
    """Sorted positions of the 1-bits of a canonical 0/1 sequence.

    Ordering follows the first-difference rule: at the first position where
    two sequences differ, the one holding a 1 is smaller.  On a shared
    prefix the longer code (more simplices) is therefore the smaller one.

    The positions are kept packed into one bytes string (:func:`_pack`),
    each in a field of ``_width`` bytes, the fewest of :func:`_field_bytes`
    that hold the largest; the width is a function of the positions, so
    equal codes pack equally.
    """

    __slots__ = ("_data", "_width")

    def __init__(self, indices):
        indices = tuple(indices)
        try:
            self._width = _field_bytes(max(indices).bit_length() if indices else 0)
            self._data = _pack(indices, self._width)
        except (struct.error, OverflowError, TypeError, AttributeError):
            raise ValidationError(
                f"code indices must be nonnegative integers: {indices}") from None

    @property
    def indices(self) -> tuple:
        """The positions as a tuple, unpacked on each read."""
        return _unpack(self._data, self._width)

    def __eq__(self, other):
        if not isinstance(other, CanonicalCode):
            return NotImplemented
        return self._data == other._data and self._width == other._width

    def __hash__(self):
        return hash(self._data)

    def __lt__(self, other):
        if not isinstance(other, CanonicalCode):
            return NotImplemented
        a, b = self.indices, other.indices
        for x, y in zip(a, b):
            if x != y:
                return x < y
        return len(a) > len(b)

    def __le__(self, other):
        return self == other or self < other

    def decode(self) -> RootedComplex:
        """The labeled representative: vertices 0..N-1, rooted at 0."""
        simplices = [tuple(sorted(subset_from_index(i))) for i in self.indices]
        return RootedComplex(SimplicialComplex(simplices), 0)

    def __repr__(self):
        return f"CanonicalCode({list(self.indices)!r})"


# -- exact isomorphism search ----------------------------------------------
#
# Backtracking over vertex bijections, used three ways: as an independent
# oracle against code equality, to sort rooted complexes into classes
# (:func:`_root_classes`, for uniform rootings and law validation), and to
# prune automorphic branches inside the canonical-code search.
# Vertices are handled as bit positions so the inner loop is integer work.


def _splitmix64(x):
    """splitmix64's output function (Steele, Lea & Flood, OOPSLA 2014) on a
    uint64 array, wrapping modulo 2**64: a bijection that spreads every
    input bit over the output."""
    x = x + 0x9E3779B97F4A7C15
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


def _refined_colors(positions, member_starts, stars, star_starts) -> list:
    """Position colours from iterated star refinement (1-WL on simplices).

    The simplices of dimension >= 1 lie back to back in ``positions``,
    simplex k at ``positions[member_starts[k]:member_starts[k + 1]]``, and
    the indices of the simplices through position i at
    ``stars[star_starts[i]:star_starts[i + 1]]``; all four are intp
    arrays.  With mix :func:`_splitmix64`, a position starts with the sum
    of its star's mixed simplex sizes.  Each round mixes every position's
    colour once, and then every simplex once, as mix(sum of its positions'
    mixed colours + its mixed size); a position's refined colour is
    mix(colour + sum of its star's simplex hashes).  A multiset is summed,
    not sorted: a sum is a function of the multiset, so the colours stay
    invariant, and the position's own colour inside each simplex of its
    star splits positions as the colours of the simplices' other positions
    would.  Singletons are left out: their colours would only repeat the
    positions' own, so the partitions are those of refining through whole
    stars.  Rounds stop when the number of classes stops growing or every
    position has a colour of its own.

    Colours are mixed before they are summed: the first colours are sums
    of a few size mixes, and unmixed sums of them can agree on unequal
    multisets.  Each round is a few whole-array passes: one
    ``np.add.reduceat`` sums every simplex and a second every star.
    ``reduceat`` reads an empty segment as the element after it, so an
    empty star (an isolated vertex) is summed as 0 by leaving it out.

    Colours are uint64 mixes, returned as ints, the same in every process
    and a function of the isomorphism class of the complex rooted at the
    vertex.  So they compare across complexes, and vertices of unequal
    colour are never mapped onto each other.  A collision of sums can only
    merge classes, which costs the search candidates but never maps a root
    wrongly.  Equal colours prove nothing: all twelve vertices of a
    triangular prism and of K_{3,3} get one colour.
    """
    import numpy as np

    mix = _splitmix64
    filled = star_starts[:-1] < star_starts[1:]
    heads = star_starts[:-1][filled]

    def star_sums(values):
        out = np.zeros(len(filled), np.uint64)
        out[filled] = np.add.reduceat(values[stars], heads)
        return out

    sizes = mix(np.diff(member_starts).astype(np.uint64))
    color = star_sums(sizes)
    classes = len(set(color.tolist()))
    while classes < len(color):
        mixed = mix(color)
        simplex = mix(np.add.reduceat(mixed[positions], member_starts[:-1])
                      + sizes)
        refined = mix(color + star_sums(simplex))
        count = len(set(refined.tolist()))
        if count <= classes:
            break
        color, classes = refined, count
    return color.tolist()


def _flat(segments) -> tuple:
    """The ints of ``segments`` back to back, and the start of each segment
    followed by the end of the last, as intp arrays."""
    import numpy as np

    starts = np.zeros(len(segments) + 1, np.intp)
    np.cumsum(np.fromiter(map(len, segments), np.intp, len(segments)),
              out=starts[1:])
    return (np.fromiter(chain.from_iterable(segments), np.intp, starts[-1]),
            starts)


class _IsoContext:
    """Bitmask view of one complex, reusable across searches.

    Position i is the i-th smallest vertex.  The complex is indexed once,
    into ``members`` (the simplices of dimension >= 1 as position tuples)
    and ``star`` (the indices of those through each position), which are
    passed to :func:`_refined_colors` flattened into arrays, once.  Colours
    (uint64 mixes, the same in every process) and f-vector, all a caller
    reads when colours alone decide, are computed at once; the masks are
    built from those lists by the first search that needs them, and a
    root's breadth-first search is kept for the next.  Building a context
    is what loads numpy in this module.
    """

    __slots__ = ("cx", "verts", "idx", "n", "members", "star",
                 "nbr_positions", "nbr_mask", "star_items", "star_masks",
                 "simplex_masks", "colors", "fvec", "searched")

    def __init__(self, cx: SimplicialComplex):
        self.cx = cx
        self.verts = cx.vertices
        self.idx = {v: i for i, v in enumerate(self.verts)}
        self.n = len(self.verts)
        get = self.idx.__getitem__
        self.members = members = [tuple(map(get, s)) for s in chain.from_iterable(
            map(cx.faces, range(1, cx.dim + 1)))]
        self.star = star = [[] for _ in self.verts]
        for k, positions in enumerate(members):
            for i in positions:
                star[i].append(k)
        self.colors = _refined_colors(*_flat(members), *_flat(star))
        self.fvec = cx.f_vector()
        self.nbr_positions = None
        self.searched = {}

    def build_masks(self) -> None:
        """Star items (one (mask, positions) per simplex, shared by its
        stars), masks and neighbours, read from ``members`` and ``star``."""
        if self.nbr_positions is not None:
            return
        bit = [1 << i for i in range(self.n)].__getitem__
        items = [(sum(map(bit, s)), s) for s in self.members]
        self.star_items = [((1 << i, (i,)), *map(items.__getitem__, ks))
                           for i, ks in enumerate(self.star)]
        self.star_masks = [tuple(mask for mask, _ in its)
                           for its in self.star_items]
        self.simplex_masks = set(chain.from_iterable(self.star_masks))
        self.nbr_positions = [
            tuple(j for _, s in its if len(s) == 2 for j in s if j != i)
            for i, its in enumerate(self.star_items)]
        self.nbr_mask = [sum(map(bit, js)) for js in self.nbr_positions]

    def bfs(self, root) -> tuple:
        """Distance of each position from the vertex ``root`` (-1 outside
        its component) and the positions in breadth-first order, from one
        search per root."""
        found = self.searched.get(root)
        if found is None:
            reached = _bfs(self.cx, root)
            order = list(map(self.idx.__getitem__, reached))
            dist = [-1] * self.n
            for i, d in zip(order, reached.values()):
                dist[i] = d
            found = self.searched[root] = (dist, order)
        return found


def _search(ctxa: _IsoContext, roota, ctxb: _IsoContext, rootb,
            seed=None, budget=None):
    """Find a root-preserving isomorphism as a vertex dict, or None.

    A candidate image must lie at the same distance from the root and carry
    the same refined colour (:func:`_refined_colors`); only candidates that
    pass both are checked against the simplices already mapped.  ``seed``
    pins part of the map, between positions (automorphism extension).  With
    ``budget`` set, the search gives up after that many feasibility checks
    and returns None; callers treat that as "not proven isomorphic".
    """
    if ctxa.n != ctxb.n or ctxa.fvec != ctxb.fvec:
        return None
    ctxa.build_masks()
    ctxb.build_masks()
    n = ctxa.n
    dista, order = ctxa.bfs(roota)
    distb = ctxb.bfs(rootb)[0]
    if sorted(dista) != sorted(distb):
        return None
    if len(order) < n:
        raise ValidationError("isomorphism search requires connected complexes")

    smap = dict(seed or {})
    smap.setdefault(ctxa.idx[roota], ctxb.idx[rootb])

    mapping = [-1] * n
    used = 0
    assigned = 0
    full = (1 << n) - 1
    checks = 0
    # candidate images of order[d] per depth d; smap pins the root order[0]
    stack = [iter((smap[order[0]],))]
    while stack:
        depth = len(stack) - 1
        u = order[depth]
        for v in stack[-1]:
            if used >> v & 1:
                continue
            if dista[u] != distb[v] or ctxa.colors[u] != ctxb.colors[v]:
                continue
            checks += 1
            if budget is not None and checks > budget:
                return None
            tenta = assigned | (1 << u)
            tentb = used | (1 << v)
            cnt_a = 0
            for mask, positions in ctxa.star_items[u]:
                if mask & ~tenta:
                    continue
                img = 0
                for w in positions:
                    img |= 1 << (v if w == u else mapping[w])
                if img not in ctxb.simplex_masks:
                    break
                cnt_a += 1
            else:
                # v is feasible if these images are all its mapped simplices
                cnt_b = 0
                for maskb in ctxb.star_masks[v]:
                    if not maskb & ~tentb:
                        cnt_b += 1
                if cnt_a == cnt_b:
                    break
        else:
            # exhausted: unmap the vertex before and resume its candidates
            stack.pop()
            if stack:
                u = order[depth - 1]
                used &= ~(1 << mapping[u])
                assigned &= ~(1 << u)
                mapping[u] = -1
            continue
        mapping[u] = v
        used = tentb
        assigned = tenta
        if depth + 1 == n:
            return {ctxa.verts[i]: ctxb.verts[mapping[i]] for i in range(n)}
        u = order[depth + 1]
        if u in smap:
            cands = [smap[u]]
        else:
            cm = full & ~used
            for w in ctxa.nbr_positions[u]:
                if mapping[w] >= 0:
                    cm &= ctxb.nbr_mask[mapping[w]]
            cands = []
            while cm:
                low = cm & -cm
                cands.append(low.bit_length() - 1)
                cm ^= low
        stack.append(iter(cands))
    return None


def find_rooted_isomorphism(a: RootedComplex, b: RootedComplex):
    """Exhaustive root-preserving isomorphism search, independent of codes."""
    return _search(_IsoContext(a.complex), a.root, _IsoContext(b.complex), b.root)


def _root_classes(rooted: list) -> list:
    """For each (connected complex, root) pair of ``rooted``, the index of
    the first pair rooted isomorphic to it: its class representative.

    A search runs only between roots of equal fingerprint (vertex count,
    f-vector, the root's refined colour): unequal ones prove two roots
    non-isomorphic, so without symmetry no search runs.  A found isomorphism
    is a vertex bijection, and merging ``z ~ map(z)`` for every ``z``
    collapses whole orbits, so a handful of searches classify the roots
    of a vertex-transitive complex.  Contexts are built once per complex
    object, and union-find keys are (complex id, vertex), so pairs held
    in different complexes meet.
    """
    ctxs = {}
    parent = {}

    def find(key):
        root = key
        while parent.get(root, root) != root:
            root = parent[root]
        while key != root:
            parent[key], key = root, parent[key]
        return root

    # A representative is the first pair of its class, made and kept the
    # root of its union-find tree, so "already classified" is a lookup.
    reps = {}
    reps_by_print = {}
    out = []
    for i, (cx, v) in enumerate(rooted):
        ctx = ctxs.get(id(cx))
        if ctx is None:
            ctx = ctxs[id(cx)] = _IsoContext(cx)
        key = (id(cx), v)
        rep = root = find(key)
        if root not in reps:
            candidates = reps_by_print.setdefault(
                (ctx.n, ctx.fvec, ctx.colors[ctx.idx[v]]), [])
            for rep in candidates:
                vmap = _search(ctxs[rep[0]], rep[1], ctx, v)
                if vmap is not None:
                    # sending rep to v, it classifies every vertex it maps
                    for z, w in vmap.items():
                        pa, pb = find((rep[0], z)), find((key[0], w))
                        if pa != pb:
                            if pb in reps:
                                pa, pb = pb, pa
                            parent[pb] = pa
                    break
            else:
                rep = parent[root] = parent[key] = key
                reps[key] = i
                candidates.append(key)
        out.append(reps[rep])
    return out


# -- canonical code search ---------------------------------------------------


def _prune_automorphic(ctx: _IsoContext, partials: list) -> list:
    """Drop tied branches that a proven automorphism maps onto the first.

    ``ctx`` is the ball on vertices 0..n-1, so its positions are the
    ball's and a branch's order pairs with the first's as a seed.  An
    automorphism preserves refined colours, so only a branch whose colour
    sequence equals the first's can be its image: the others are kept
    unsearched, and when colours are discrete nothing is searched.
    """
    colour = ctx.colors
    base = partials[0][0]
    base_colours = [colour[i] for i in base]
    kept = [partials[0]]
    for cand in partials[1:]:
        order = cand[0]
        if ([colour[i] for i in order] != base_colours
                or _search(ctx, 0, ctx, 0, seed=dict(zip(base, order)),
                           budget=_AUTOMORPHISM_BUDGET) is None):
            kept.append(cand)
    return kept


def _canonical_order(layer: list, masks: list, faces: list,
                     starts: list) -> tuple:
    """The tied minimal label orders, as positions, the block that won
    each label from m on, and whether the search passed ``_TIE_CAP`` (and
    so searched automorphisms).

    Position i lies at distance ``layer[i]`` from the root at position 0.
    ``masks`` holds the ball's simplices as bitmasks of positions, and
    ``faces`` those of dimension >= 2 as (mask, positions) items.  Only
    when a tie passes ``_TIE_CAP`` is the ball built, on vertices 0..n-1,
    for the automorphism searches.

    ``starts`` are the tied minimal orders of an inner ball, each labelling
    the same m positions, which must be the positions of the first layers
    (``[(0,)]``, the root alone, starts from scratch).  The search labels
    those positions from each order, one entry per crossing simplex (edge
    or face) in each later position's block, and continues at label m.  Up
    to label m a fresh search reads only simplices among the first m
    positions, so when the inner ball's own search never passed the tie
    cap, its final branches are exactly the fresh search's branches at
    label m, and the result is the same.

    Every tied branch gives label k the same block, so the winning blocks
    are those of the first order.  Each simplex of two or more vertices is
    an entry e of the block of its last-labelled vertex, say of label k,
    and its mask of labels is e + 2**k: so the blocks, with the labels
    0..m-1 of the inner ball, hold the whole labelled ball.
    """
    n = len(layer)
    m = len(starts[0])
    # label k goes to the layer of position k: labels fill layers in order
    layer_mask = [0] * n
    lo = 0
    for hi in range(1, n + 1):
        if hi == n or layer[hi] != layer[lo]:
            layer_mask[lo:hi] = [(1 << hi) - (1 << lo)] * (hi - lo)
            lo = hi
    # incidence: each position's neighbours as bits, and the items of
    # ``faces`` through it; and for each position w past the m started
    # ones, each simplex through w whose other positions are all started:
    # an edge as its other position i, a larger simplex as n + its index in
    # ``others``, which lists its other positions
    nbrs = [[] for _ in range(n)]
    cofaces = [[] for _ in range(n)]
    crossing = {}
    others = []
    for mask in masks:
        if mask.bit_count() == 2:
            low = mask & -mask
            i = low.bit_length() - 1
            w = mask.bit_length() - 1
            nbrs[i].append(mask ^ low)
            nbrs[w].append(low)
            if i < m <= w:
                crossing.setdefault(w, []).append(i)
    for item in faces:
        mask, simplex = item
        for i in simplex:
            cofaces[i].append(item)
        rest = mask >> m
        if rest and not rest & (rest - 1):
            w = rest.bit_length() - 1 + m
            crossing.setdefault(w, []).append(n + len(others))
            others.append([i for i in simplex if i != w])
    top = 1 << n

    # A branch is (order, blocks, labelled, bits): positions in label order,
    # the block each position would add if it took the next label, the
    # mask of labelled positions and each position's label bit (0 while
    # unlabelled).  A block has one entry per simplex through the position
    # whose other vertices are labelled, the sum of their label bits (the
    # sum over the whole simplex, as the position's own bit is 0); entries
    # are sorted and end in the sentinel ``top``, so on a shared prefix the
    # block with more entries is smaller.  The simplex completed by label k
    # holds bit k and outweighs every earlier entry, so blocks only grow at
    # their end.  (The singleton adds 0 to every block and is left out.)
    # The smallest block wins the label; every tie is carried as its own
    # branch.  A started branch has labelled positions 0..m-1, so the
    # block of each later position holds one entry per crossing simplex,
    # sorted: the blocks a search from the root would have built by then.
    partials = []
    started = (1 << m) - 1
    for start in starts:
        bits = [0] * n
        for k, i in enumerate(start):
            bits[i] = 1 << k
        blocks = [(top,)] * n
        sums = bits + [sum(map(bits.__getitem__, f)) for f in others]
        for w, ends in crossing.items():
            blocks[w] = (*sorted(map(sums.__getitem__, ends)), top)
        partials.append((tuple(start), blocks, started, bits))
    pruned = False
    ctx = None
    won = []
    for k in range(m, n):
        in_layer = layer_mask[k]
        best = None
        chosen = []
        for branch in partials:
            blocks = branch[1]
            free = in_layer & ~branch[2]
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                block = blocks[v]
                if best is None or block < best:
                    best = block
                    chosen = [(branch, v)]
                elif block == best:
                    chosen.append((branch, v))
        bit = 1 << k
        edge = (bit, top)
        partials = []
        while chosen:
            branch, v = chosen.pop()
            order, blocks, labelled, bits = branch
            if chosen and chosen[-1][0] is branch:
                blocks = blocks.copy()
                bits = bits.copy()
            # else no other extension of the branch is left: this one takes
            # its lists, and the old branch is freed as the loop goes
            order += (v,)
            labelled |= 1 << v
            bits[v] = bit
            # each simplex through v that leaves one vertex w unlabelled,
            # then the edge vw for each unlabelled neighbour w: all hold
            # bit k, so they go at the end of w's block, the edge first
            completed = {}
            unlabelled = ~labelled
            get = bits.__getitem__
            for mask, simplex in cofaces[v]:
                rest = mask & unlabelled
                if rest and not rest & (rest - 1):
                    if rest in completed:
                        completed[rest].append(sum(map(get, simplex)))
                    else:
                        completed[rest] = [sum(map(get, simplex))]
            for w in nbrs[v]:
                if labelled & w:
                    continue
                entries = completed.get(w)
                w = w.bit_length() - 1
                if entries:
                    entries.sort()
                    blocks[w] = (*blocks[w][:-1], bit, *entries, top)
                else:
                    blocks[w] = blocks[w][:-1] + edge
            partials.append((order, blocks, labelled, bits))
        partials.reverse()
        if len(partials) > _TIE_CAP:
            pruned = True
            if ctx is None:
                # the ball is built only here, for the automorphism searches
                ctx = _IsoContext(SimplicialComplex._from_faces(_grouped(chain(
                    ((i,) for i in range(n)), (tuple(sorted(s)) for _, s in faces),
                    ((i, w.bit_length() - 1) for i in range(n) for w in nbrs[i]
                     if w > 1 << i)))))
            partials = _prune_automorphic(ctx, partials)
        won.append(best)
    return [branch[0] for branch in partials], won, pruned


# struct codes of the field widths up to 8 bytes; wider fields take one
# ``to_bytes`` per value
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _field_bytes(bits: int) -> int:
    """Bytes per packed field for values of up to ``bits`` bits: 1, 2, 4
    or 8, and past 8 as many as the values need."""
    size = (bits + 7) // 8
    return size if size > 8 else 1 << max(size - 1, 0).bit_length()


def _pack(values, width: int) -> bytes:
    """The bytes of the nonnegative ``values`` (a sequence), in order, each
    in a little-endian field of ``width`` bytes."""
    code = _FORMATS.get(width)
    if code is None:
        return b"".join([v.to_bytes(width, "little") for v in values])
    return struct.pack(f"<{len(values)}{code}", *values)


def _unpack(data: bytes, width: int) -> tuple:
    """The values that :func:`_pack` put into ``data``."""
    code = _FORMATS.get(width)
    if code is None:
        return tuple(int.from_bytes(data[i:i + width], "little")
                     for i in range(0, len(data), width))
    return struct.unpack(f"<{len(data) // width}{code}", data)


def _ball(cx: SimplicialComplex, root, r) -> tuple:
    """(dist, vert, simplices, masks) of the radius-``r`` ball of ``cx`` at
    ``root`` (the root's whole component when ``r`` is None).

    One breadth-first search gives ``dist`` and puts the ball's vertices
    at positions in (distance, id) order, ``vert``, and one pass over
    their stars finds the ball's simplices: a simplex is taken from the
    star of its first vertex, and only the stars of the outer layer are
    filtered.  ``masks`` holds each simplex as a bitmask of positions.
    """
    dist = _bfs(cx, root, r)
    vert = sorted(sorted(dist), key=dist.__getitem__)
    bit = {v: 1 << i for i, v in enumerate(vert)}
    # only the outer layer, the tail of vert, has neighbours outside
    inner = [v for v in vert if dist[v] != r]
    star = cx.star
    inside = bit.__contains__
    simplices = [s for v in inner for s in star(v) if s[0] == v]
    simplices += [s for v in vert[len(inner):] for s in star(v)
                  if s[0] == v and all(map(inside, s))]
    get = bit.__getitem__
    return dist, vert, simplices, [sum(map(get, s)) for s in simplices]


def _ball_codes(cx: SimplicialComplex, root, radii) -> list:
    """Minimal codes of the balls of ``cx`` at ``root`` of each radius in
    ``radii``, in order, all read from one :func:`_ball` of the last
    radius.  Radii ascend, and None (the root's whole component) may only
    come last.

    With n the positions at distance <= r, the r-ball's masks are the
    masks below ``1 << n``: a prefix of the sorted masks, at the same
    positions.  ``_CODE_CACHE`` keys the ball by n and that prefix, packed
    in fields of ``_field_bytes(n)`` bytes (:func:`_pack`); a radius that
    adds no position has the code of the radius before.

    An entry is (code, orders).  ``orders`` holds the search's tied minimal
    orders back to back, packed in fields of ``_field_bytes(n.bit_length())``
    bytes, when the search never passed the tie cap; else None.  They
    depend on the key alone, so they are kept even for a root's whole
    component: the same key can be an inner ball elsewhere.

    A miss runs the canonical search on the ball's masks, and the positions
    of each simplex of dimension >= 2, so no vertex id reaches it.  With L
    the ball's last layer and L >= 2, it resumes from the orders of the
    (L-1)-ball's entry, if that has any, and starts from the root
    otherwise.  The code is read off the search's winning blocks, already
    in ascending order: after the inner ball's code (the root's 0 when the
    search starts from the root), label k adds its singleton, 2**k - 1,
    and e + 2**k - 1 for each entry e of its block.
    """
    reach = radii[-1]
    dist, vert, simplices, masks = _ball(cx, root, reach)
    ordered = sorted(masks)
    codes = []
    m = 0
    for r in radii:
        if r == reach:
            n, prefix = len(vert), ordered
        else:
            n = bisect_right(vert, r, key=dist.__getitem__)
            prefix = ordered[:bisect_left(ordered, 1 << n)]
        if n == m:
            codes.append(codes[-1])
            continue
        m = n
        key = (n, _pack(prefix, _field_bytes(n)))
        entry = _CODE_CACHE.get(key)
        if entry is None:
            top = 1 << n
            index = dict(zip(vert, range(n))).__getitem__
            faces = [(mask, tuple(map(index, s)))
                     for mask, s in zip(masks, simplices)
                     if len(s) > 2 and mask < top]
            layer = [dist[v] for v in vert[:n]]
            starts = [(0,)]
            indices = [0]
            if layer[-1] >= 2:
                inner = layer.index(layer[-1])
                inner_code, kept = _CODE_CACHE.get((inner, _pack(
                    ordered[:bisect_left(ordered, 1 << inner)],
                    _field_bytes(inner))), (None, None))
                if kept is not None:
                    kept = _unpack(kept, _field_bytes(inner.bit_length()))
                    starts = [kept[i:i + inner]
                              for i in range(0, len(kept), inner)]
                    indices = list(inner_code.indices)
            inside = masks if n == len(vert) else [x for x in masks if x < top]
            orders, won, pruned = _canonical_order(layer, inside, faces, starts)
            for k, block in enumerate(won, len(starts[0])):
                base = (1 << k) - 1
                indices.append(base)
                indices += [e + base for e in block[:-1]]
            # pruned branches are missing from the orders
            kept = None if pruned else _pack(list(chain.from_iterable(orders)),
                                             _field_bytes(n.bit_length()))
            entry = (CanonicalCode(indices), kept)
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()
            _CODE_CACHE[key] = entry
        codes.append(entry[0])
    return codes


def canonical_code(rc: RootedComplex) -> CanonicalCode:
    """Minimal code of the rooted isomorphism class of ``rc``.

    Branch-and-bound over label orders compatible with breadth-first layers,
    carrying every tied branch; ties are thinned only when an explicit
    automorphism proves two branches equivalent.  Results are memoized on
    the simplices as bitmasks of (distance, id) positions, so repeated
    structure (lattice patches, balls of transitive complexes) is
    canonicalized once.
    """
    return _ball_codes(rc.complex, rc.root, (None,))[0]


def bs_distance(a: RootedComplex, b: RootedComplex, rmax=None) -> Fraction:
    """Local (ball-comparison) distance between rooted isomorphism classes.

    1 / 2**R with R the largest radius at which the closed balls are rooted
    isomorphic; 0 when the classes coincide.  Radius-0 balls always agree,
    so the value is at most 1.  With ``rmax`` only balls up to that radius
    are compared, and balls that agree that far give 0.
    """
    if rmax is not None:
        rmax = _check_int(rmax, "rmax")
    # min(rmax, eccentricity) for each: past the larger eccentricity both
    # balls are the roots' whole components, so no radius beyond it tells
    # them apart
    reach = max(max(_bfs(x.complex, x.root, rmax).values()) for x in (a, b))
    for r in range(1, reach + 1):
        if (_ball_codes(a.complex, a.root, (r,))
                != _ball_codes(b.complex, b.root, (r,))):
            return Fraction(1, 2 ** (r - 1))
    return Fraction(0)
