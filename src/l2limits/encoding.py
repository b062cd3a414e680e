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

import struct

from bisect import bisect_left
from fractions import Fraction
from itertools import chain

from .complexes import RootedComplex, SimplicialComplex, _bfs
from .errors import ValidationError

__all__ = [
    "CanonicalCode",
    "canonical_code",
    "subset_from_index",
    "index_of_subset",
    "rooted_isomorphic",
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
    if n < 0:
        raise ValidationError("subset index must be nonnegative")
    bits = n + 1
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
    members = set(subset)
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
        self._width = _field_bytes(max(indices).bit_length() if indices else 0)
        try:
            self._data = _pack(indices, self._width)
        except (struct.error, OverflowError):
            raise ValidationError(f"code indices must be nonnegative: {indices}") from None

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
# oracle against code equality, to merge root orbits in uniform rootings,
# and to prune automorphic branches inside the canonical-code search.
# Vertices are handled as bit positions so the inner loop is integer work.


def _refined_colors(cx: SimplicialComplex) -> dict:
    """Vertex colours from iterated star refinement (1-WL on simplices).

    A vertex starts with the sorted sizes of the simplices of dimension
    >= 1 in its star.  Each round hashes a vertex's old colour with the
    sorted colours of those simplices, a simplex's colour being the sorted
    colours of its vertices (the vertex's own colour is known, so this
    splits vertices exactly as the colours of each simplex's other
    vertices would, with one sort per simplex).  Every vertex's singleton
    is left out: its colour would only repeat the vertex's own, so the
    partitions are those of refining through whole stars.  Rounds stop
    when the number of classes stops growing or every vertex has a colour
    of its own.

    Colours are hashes of int tuples: the same in every process and a
    function of the isomorphism class of the complex rooted at the vertex.
    So they compare across complexes, and vertices of unequal colour are
    never mapped onto each other.  Equal colours prove nothing: all twelve
    vertices of a triangular prism and of K_{3,3} get one colour.
    """
    verts = cx.vertices
    pos = {v: i for i, v in enumerate(verts)}
    members = []
    star = [[] for _ in verts]
    for s in chain.from_iterable(map(cx.faces, range(1, cx.dim + 1))):
        positions = [pos[u] for u in s]
        k = len(members)
        members.append(positions)
        for i in positions:
            star[i].append(k)
    color = [hash(tuple(sorted([len(members[k]) for k in ks]))) for ks in star]
    classes = len(set(color))
    while classes < len(color):
        simplex_color = [hash(tuple(sorted([color[i] for i in positions])))
                         for positions in members]
        refined = [hash((c, tuple(sorted([simplex_color[k] for k in ks]))))
                   for c, ks in zip(color, star)]
        count = len(set(refined))
        if count <= classes:
            break
        color, classes = refined, count
    return dict(zip(verts, color))


class _IsoContext:
    """Bitmask view of one complex, reusable across searches.

    Vertex order, f-vector and refined colours are computed at once: they
    are all a caller reads when colours alone decide.  The neighbour, star
    and simplex masks are built by the first search that needs them, and a
    root's breadth-first search is kept for every search from that root.
    """

    __slots__ = ("cx", "verts", "idx", "n", "nbr_positions", "nbr_mask",
                 "star_items", "star_masks", "simplex_masks", "colors",
                 "fvec", "searched")

    def __init__(self, cx: SimplicialComplex):
        self.cx = cx
        self.verts = cx.vertices
        self.idx = {v: i for i, v in enumerate(self.verts)}
        self.n = len(self.verts)
        colors = _refined_colors(cx)
        self.colors = [colors[v] for v in self.verts]
        self.fvec = cx.f_vector()
        self.nbr_positions = None
        self.searched = {}

    def build_masks(self) -> None:
        if self.nbr_positions is not None:
            return
        cx = self.cx
        idx = self.idx
        self.nbr_positions = [
            tuple(idx[w] for w in cx.neighbors(v)) for v in self.verts
        ]
        self.nbr_mask = [
            sum(1 << j for j in positions) for positions in self.nbr_positions
        ]
        # one (mask, positions) item per simplex, shared by every star
        # that holds it
        item = {}
        for s in chain.from_iterable(map(cx.faces, range(cx.dim + 1))):
            positions = tuple(map(idx.__getitem__, s))
            item[s] = (sum(1 << j for j in positions), positions)
        get = item.__getitem__
        self.star_items = [tuple(map(get, cx.star(v))) for v in self.verts]
        self.star_masks = [tuple(mask for mask, _ in items)
                           for items in self.star_items]
        self.simplex_masks = {mask for mask, _ in item.values()}

    def bfs(self, root) -> tuple:
        """Distance of each position from ``root`` (-1 outside its
        component) and the positions in breadth-first order, from one
        search per root."""
        found = self.searched.get(root)
        if found is None:
            idx = self.idx
            dist = [-1] * self.n
            order = []
            for v, d in _bfs(self.cx, root).items():
                dist[idx[v]] = d
                order.append(idx[v])
            found = self.searched[root] = (dist, order)
        return found


def _search(ctxa: _IsoContext, roota, ctxb: _IsoContext, rootb,
            seed=None, budget=None):
    """Find a root-preserving isomorphism as a vertex dict, or None.

    A candidate image must lie at the same distance from the root and carry
    the same refined colour (:func:`_refined_colors`); only candidates that
    pass both are checked against the simplices already mapped.  ``seed``
    pins part of the map (used for automorphism extension).  With
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

    smap = {ctxa.idx[u]: ctxb.idx[v] for u, v in (seed or {}).items()}
    smap.setdefault(ctxa.idx[roota], ctxb.idx[rootb])

    mapping = [-1] * n
    used = 0
    assigned = 0
    cand_lists: list = [None] * n
    ptrs = [0] * n
    full = (1 << n) - 1
    checks = 0
    depth = 0

    while True:
        if depth == n:
            return {ctxa.verts[i]: ctxb.verts[mapping[i]] for i in range(n)}
        u = order[depth]
        if cand_lists[depth] is None:
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
            cand_lists[depth] = cands
            ptrs[depth] = 0

        advanced = False
        cands = cand_lists[depth]
        while ptrs[depth] < len(cands):
            v = cands[ptrs[depth]]
            ptrs[depth] += 1
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
            ok = True
            for mask, positions in ctxa.star_items[u]:
                if mask & ~tenta:
                    continue
                img = 0
                for w in positions:
                    img |= 1 << (v if w == u else mapping[w])
                if img not in ctxb.simplex_masks:
                    ok = False
                    break
                cnt_a += 1
            if ok:
                cnt_b = 0
                for maskb in ctxb.star_masks[v]:
                    if not maskb & ~tentb:
                        cnt_b += 1
                ok = cnt_a == cnt_b
            if ok:
                mapping[u] = v
                used = tentb
                assigned = tenta
                depth += 1
                advanced = True
                break
        if advanced:
            continue
        cand_lists[depth] = None
        depth -= 1
        if depth < 0:
            return None
        u = order[depth]
        v = mapping[u]
        mapping[u] = -1
        used &= ~(1 << v)
        assigned &= ~(1 << u)


def find_rooted_isomorphism(a: RootedComplex, b: RootedComplex):
    """Exhaustive root-preserving isomorphism search, independent of codes."""
    return _search(_IsoContext(a.complex), a.root, _IsoContext(b.complex), b.root)


# -- canonical code search ---------------------------------------------------


def _prune_automorphic(ctx, vert, colour, partials):
    """Drop tied branches that a proven automorphism maps onto the first.

    Branch orders are positions; ``vert`` turns them into vertices and
    ``colour`` gives each position its refined colour.  An automorphism
    preserves refined colours, so only a branch whose colour sequence
    equals the first's can be its image: the others are kept unsearched,
    and when colours are discrete nothing is searched.
    """
    base = partials[0][0]
    base_colours = [colour[i] for i in base]
    root = vert[0]
    kept = [partials[0]]
    for cand in partials[1:]:
        order = cand[0]
        if [colour[i] for i in order] != base_colours:
            kept.append(cand)
            continue
        seed = {vert[a]: vert[b] for a, b in zip(base, order)}
        auto = _search(ctx, root, ctx, root, seed=seed,
                       budget=_AUTOMORPHISM_BUDGET)
        if auto is None:
            kept.append(cand)
    return kept


def _canonical_order(cx: SimplicialComplex, vert: list, layer: list,
                     masks: list, simplices: list, starts: list) -> tuple:
    """The tied minimal label orders, as positions, and whether the search
    passed ``_TIE_CAP`` (and so searched automorphisms).

    Position i is vertex ``vert[i]`` of ``cx``, at distance ``layer[i]``
    from the root at position 0.  The ball's simplices are given as
    bitmasks of positions (``masks``) and, in the same order, as vertex
    tuples of ``cx`` (``simplices``).  ``cx`` is read only to cut the ball
    when a tie passes ``_TIE_CAP`` and automorphisms are searched.

    ``starts`` are the tied minimal orders of an inner ball, each labelling
    the same m positions, which must be the positions of the first layers
    (``[(0,)]``, the root alone, starts from scratch).  The search labels
    those positions from each order and continues at label m.  Up to label
    m a fresh search reads only simplices among the first m positions, so
    when the inner ball's own search never passed the tie cap, its final
    branches are exactly the fresh search's branches at label m, and the
    result is the same.
    """
    n = len(vert)
    m = len(starts[0])
    # label k goes to the layer of position k: labels fill layers in order
    layer_mask = [0] * n
    lo = 0
    for hi in range(1, n + 1):
        if hi == n or layer[hi] != layer[lo]:
            layer_mask[lo:hi] = [(1 << hi) - (1 << lo)] * (hi - lo)
            lo = hi
    # incidence: each position's neighbours as bits, and the simplices of
    # dimension >= 2 through it as (mask, positions); and for each position
    # w past the m started ones, the simplices through w whose other
    # positions are all started, by those positions: edges, then the rest
    nbrs = [[] for _ in range(n)]
    cofaces = [[] for _ in range(n)]
    crossing = {}
    index = {v: i for i, v in enumerate(vert)}.__getitem__
    for mask, simplex in zip(masks, simplices):
        if len(simplex) == 2:
            low = mask & -mask
            i = low.bit_length() - 1
            w = mask.bit_length() - 1
            nbrs[i].append(mask ^ low)
            nbrs[w].append(low)
            if i < m <= w:
                crossing.setdefault(w, ([], []))[0].append(i)
        elif len(simplex) > 2:
            simplex = tuple(map(index, simplex))
            item = (mask, simplex)
            for i in simplex:
                cofaces[i].append(item)
            rest = mask >> m
            if rest and not rest & (rest - 1):
                w = rest.bit_length() - 1 + m
                crossing.setdefault(w, ([], []))[1].append(
                    [i for i in simplex if i != w])
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
        get = bits.__getitem__
        for w, (ends, faces) in crossing.items():
            if faces:
                entries = [*map(get, ends), *[sum(map(get, f)) for f in faces]]
                entries.sort()
                blocks[w] = (*entries, top)
            else:
                blocks[w] = (*sorted(map(get, ends)), top)
        partials.append((tuple(start), blocks, started, bits))
    pruned = False
    ctx = None
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
                # the ball is cut only here, for the automorphism searches
                ball = cx if n == len(cx.faces(0)) else cx.induced(vert)
                ctx = _IsoContext(ball)
                colour = [ctx.colors[ctx.idx[v]] for v in vert]
            partials = _prune_automorphic(ctx, vert, colour, partials)
    return [branch[0] for branch in partials], pruned


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


def _ball_code(cx: SimplicialComplex, root, r=None) -> CanonicalCode:
    """Minimal code of the radius-``r`` ball of ``cx`` at ``root`` (the
    root's whole component when ``r`` is None), read from ``cx`` itself.

    One breadth-first search puts the ball's vertices at positions in
    (distance, id) order, and one pass over their stars finds the ball's
    simplices: a simplex is taken from the star of its first vertex, and
    only the stars of the outer layer are filtered.  ``_CODE_CACHE`` is
    keyed by the vertex count n and the simplices as bitmasks of
    positions, sorted and packed in fields of ``_field_bytes(n)`` bytes
    (:func:`_pack`).
    On a miss the masks give the canonical search its incidence, and the
    simplices, relabelled, the code's indices.  The ball is cut only when a tie
    passes ``_TIE_CAP`` and automorphisms are searched.

    An entry is (code, orders).  ``orders`` holds the search's tied minimal
    orders back to back, packed in fields of ``_field_bytes(n.bit_length())``
    bytes, when the search never passed the tie cap; else None.  They
    depend on the key alone, so they are kept even for a root's whole
    component: the same key can be an inner ball elsewhere.
    The masks of a ball's (L-1)-ball, L its last layer, are the masks
    below ``1 << m``, m the positions closer than L: a prefix of the sorted
    masks, at the same positions.  So on a miss with L >= 2 the search
    resumes from the orders of that inner entry, if it has any, and starts
    from the root otherwise.
    """
    if r is not None and r < 0:
        raise ValidationError("ball radius must be nonnegative")
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
    masks = [sum(map(get, s)) for s in simplices]
    n = len(vert)
    ordered = sorted(masks)
    key = (n, _pack(ordered, _field_bytes(n)))
    entry = _CODE_CACHE.get(key)
    if entry is None:
        layer = [dist[v] for v in vert]
        last = layer[-1]
        starts = [(0,)]
        if last >= 2:
            m = layer.index(last)
            inner_key = (m, _pack(ordered[:bisect_left(ordered, 1 << m)],
                                  _field_bytes(m)))
            kept = _CODE_CACHE.get(inner_key, (None, None))[1]
            if kept is not None:
                kept = _unpack(kept, _field_bytes(m.bit_length()))
                starts = [kept[i:i + m] for i in range(0, len(kept), m)]
        orders, pruned = _canonical_order(cx, vert, layer, masks, simplices,
                                          starts)
        get = {vert[i]: 1 << k for k, i in enumerate(orders[0])}.__getitem__
        code = CanonicalCode(sorted([sum(map(get, s)) - 1 for s in simplices]))
        # pruned branches are missing from the orders
        if pruned:
            orders = None
        else:
            orders = _pack(list(chain.from_iterable(orders)),
                           _field_bytes(n.bit_length()))
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        entry = _CODE_CACHE[key] = (code, orders)
    return entry[0]


def canonical_code(rc: RootedComplex) -> CanonicalCode:
    """Minimal code of the rooted isomorphism class of ``rc``.

    Branch-and-bound over label orders compatible with breadth-first layers,
    carrying every tied branch; ties are thinned only when an explicit
    automorphism proves two branches equivalent.  Results are memoized on
    the simplices as bitmasks of (distance, id) positions, so repeated
    structure (lattice patches, balls of transitive complexes) is
    canonicalized once.
    """
    return _ball_code(rc.complex, rc.root)


def rooted_isomorphic(a: RootedComplex, b: RootedComplex) -> bool:
    """Equality of rooted isomorphism classes, decided by canonical codes."""
    return canonical_code(a) == canonical_code(b)


def bs_distance(a: RootedComplex, b: RootedComplex, rmax=None) -> Fraction:
    """Local (ball-comparison) distance between rooted isomorphism classes.

    1 / 2**R with R the largest radius at which the closed balls are rooted
    isomorphic; 0 when the classes coincide.  Radius-0 balls always agree,
    so the value is at most 1.  With ``rmax`` only balls up to that radius
    are compared, and balls that agree that far give 0.
    """
    if rmax is None:
        # balls at the largest eccentricity are the full complexes
        rmax = max(a.eccentricity(), b.eccentricity())
    elif rmax < 0:
        raise ValidationError("rmax must be nonnegative")
    for r in range(1, rmax + 1):
        if (_ball_code(a.complex, a.root, r)
                != _ball_code(b.complex, b.root, r)):
            return Fraction(1, 2 ** (r - 1))
    return Fraction(0)
