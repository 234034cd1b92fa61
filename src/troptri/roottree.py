"""Back-substitution driver for triangular systems.

The driver grows a rooted tree whose depth-i vertices carry compatible
approximate roots of the i-th polynomial after the ancestors' roots have
been substituted.  A leaf is extended when the next polynomial's Newton
polygon can be trusted as it stands ("grow"); otherwise some root on the
branch is recomputed to higher precision ("reinforce") until the polygon
stabilizes or the precision safeguard trips.  The tropical points are
the per-branch valuation vectors of the finished tree.

One store per tree keeps every polynomial the tree derives, under three
kinds of key, each led by the identity of the polynomial it derives from:

* (polynomial, root): it with the root put in, so branches with equal
  roots share it;
* (composed polynomial, known terms): it recentered at a root's known
  prefix, which is what reinforcing that root expands;
* (polynomial, root, budget): the finished roots it gives the root when
  expanded at the root's tail exponent to that budget, so a subtree copy
  that meets the same polynomial again reuses them.

No polynomial lives on a vertex, so a vertex never reads one built on
ancestor roots that a reinforcement has since refined.  Roots are values, so
the children grown at one (coordinate, exponent) share the tree's one
bare-tail root, and ``point_rows`` writes each root's valuation once.
"""

from heapq import heappop, heappush

from .errors import NonSplittingError, NonTriangularError, PrecisionLimitError, TropError
from .expansion import ApproxRoot, puiseux_expansion
from .polygon import is_unique, newton_polygon
from .rationals import exact, format_rat, int_if_integral
from .residue import ResiduePoly, roots_in_units
from .upoly import UPoly, compose, initial_form


class TriangularSystem:
    """Polynomials f_1..f_n with f_i using x_i and no coordinate past it.

    ``used[k]`` is the set of coordinate indices that f_(k+1) uses.
    """

    __slots__ = ("field", "n", "polys", "used")

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise NonTriangularError("a triangular system needs at least one polynomial")
        field = polys[0].field
        n = len(polys)
        uses = []
        for i, f in enumerate(polys):
            if f.nvars != n:
                raise NonTriangularError("f%d is not a polynomial in %d coordinates" % (i + 1, n))
            if f.is_zero():
                raise NonTriangularError("f%d is the zero polynomial" % (i + 1))
            used = f.variables()
            if any(v > i for v in used):
                raise NonTriangularError(
                    "f%d uses x%d; only x1..x%d are allowed" % (i + 1, max(used) + 1, i + 1)
                )
            if i not in used:
                raise NonTriangularError("f%d does not use x%d" % (i + 1, i + 1))
            uses.append(frozenset(used))
        self.field = field
        self.n = n
        self.polys = tuple(polys)
        self.used = tuple(uses)


class Vertex:
    """``source`` is the polynomial P the root's tail u*t^w (w = ``root.tail``) was read
    off, so u = c + ..., c a nonzero root of ``initial_form(P, w)``; that stays so when
    ancestors are refined, which only specializes P's tails."""

    __slots__ = ("vid", "parent", "children", "root", "prec", "depth", "dead", "source")

    def __init__(self, vid, parent, depth, root, prec, source=None):
        self.vid = vid
        self.parent = parent
        self.children = []
        self.root = root  # ApproxRoot, or None at the tree root
        self.prec = prec
        self.depth = depth
        self.dead = False
        self.source = source


def precisions(p_step, p_max):
    """The precision increment and bound in stored form; a ValueError names a bad one."""
    p_step, p_max = exact(p_step, "p_step"), exact(p_max, "p_max")
    if p_step <= 0:
        raise ValueError("the precision increment must be positive, got %s" % format_rat(p_step))
    if p_max < 0:
        raise ValueError("the precision bound must be nonnegative, got %s" % format_rat(p_max))
    return p_step, p_max


class RootTree:
    def __init__(self, system, p_step, p_max):
        p_step, p_max = precisions(p_step, p_max)
        self.system = system
        self.field = system.field
        self.n = system.n
        self.p_step = p_step
        self.p_max = p_max
        # (kind, f index, vertex id, polynomial) per Newton polygon the driver
        # inspects; the polygon is kept on its polynomial, and --newton-svg
        # draws it (svg.write_polygon_log)
        self.polygon_log = []
        self.grow_count = 0
        self.reinforce_count = 0
        # vid -> Vertex; no vertex is ever removed, so the ids run 0..N-1
        self.vertices = {}
        # for every branch of this tree: (id(g), root) -> (g, g with the root put
        # in), (id(f), known) -> (f, the composed f recentered at the known
        # terms), and (id(f), root, budget) -> (f, the refined roots f's
        # expansion gives the root to that budget); holding g or f keeps its id
        # from being reused (see _next_polynomial, reinforcement_polynomial and
        # _corrections)
        self.store = {}
        # heap of (-depth, vid) for every vertex made with depth < n: the top
        # is the deepest, then oldest, that may still be open (_select_leaf)
        self._open = []
        self._bare = {}  # (index, w) -> ApproxRoot(index, (), w), for grow
        self.root_id = self._new_vertex(parent=None, depth=0, root=None, prec=0).vid

    # -- construction helpers -------------------------------------------------

    def _new_vertex(self, parent, depth, root, prec, source=None):
        v = Vertex(len(self.vertices), parent, depth, root, prec, source)
        self.vertices[v.vid] = v
        if depth < self.n:
            heappush(self._open, (-depth, v.vid))
        return v

    def branch(self, vid):
        """Vertices v_1..v_k on the branch ending at vid (root excluded)."""
        chain = []
        v = self.vertices[vid]
        while v.parent is not None:
            chain.append(v)
            v = self.vertices[v.parent]
        chain.reverse()
        return chain

    # -- the two tree-changing operations -------------------------------------

    def _next_polynomial(self, v) -> UPoly:
        """f_(k+1) in x_(k+1), with the roots of v's branch (depth k) put in.

        Putting a root in replaces x_j by u_j at the same index, so only the
        roots whose coordinates f_(k+1) uses change it.  Those go in through
        the store, topmost first; the last key (the deepest such root, or
        None when there is none) holds the polynomial composed in x_(k+1).
        A polynomial that vanishes there is named with v's id.
        """
        k, vid = v.depth, v.vid
        used = self.system.used[k]
        lowest = min(used)
        roots = []
        while v.depth > lowest:
            if v.depth - 1 in used:
                roots.append(v.root)
            v = self.vertices[v.parent]
        g = self.system.polys[k]
        for root in roots[:0:-1]:
            g = self._stored(g, root)
        try:
            return self._stored(g, roots[0] if roots else None, k)
        except TropError as exc:
            exc.args = ("f%d vanishes on the branch to vertex %d: %s" % (k + 1, vid, exc),)
            raise

    def _stored(self, g, root, k=None):
        """g with the root put in, composed in x_(k+1) when k is given."""
        key = (id(g), root)
        entry = self.store.get(key)
        if entry is None:
            h = g if root is None else g.substitute(root.index, root.known, root.tail)
            if k is not None:
                h = compose(h, k)
            entry = self.store[key] = (g, h)
        return entry[1]

    def extension_polynomial(self, vid) -> UPoly:
        """The next polynomial with this branch's roots substituted."""
        v = self.vertices[vid]
        if v.depth >= self.n:
            raise ValueError("the branch is already full length")
        return self._next_polynomial(v)

    def reinforcement_polynomial(self, vid, composed=None) -> UPoly:
        """f_k recentered at the known part of this vertex's root.

        Ancestors contribute their full roots (tails included); the
        vertex's own root contributes only its known prefix, so the
        polynomial's roots are exactly the possible corrections.  It lives
        in the store, where ``reinforce`` puts the ones its expansion built.
        ``composed``, if given, is ``_next_polynomial`` of the parent.
        """
        v = self.vertices[vid]
        if v.depth < 1:
            raise ValueError("the tree root carries no root to reinforce")
        if composed is None:
            composed = self._next_polynomial(self.vertices[v.parent])
        known = v.root.known
        if not known:
            return composed
        key = (id(composed), known)
        entry = self.store.get(key)
        if entry is None:
            recentered = composed.shift_substitute(known)
            entry = self.store[key] = (composed, recentered)
        return entry[1]

    def grow(self, vid, ext=None):
        """Attach one child per tropical point of the extension polynomial."""
        v = self.vertices[vid]
        if ext is None:
            ext = self.extension_polynomial(vid)
        self.grow_count += 1
        points = newton_polygon(ext).tropical_points()
        if not points:
            v.dead = True
            return
        for w in points:
            key = (v.depth, w)
            root = self._bare.get(key) or self._bare.setdefault(key, ApproxRoot(v.depth, (), w))
            child = self._new_vertex(parent=vid, depth=v.depth + 1, root=root, prec=0, source=ext)
            v.children.append(child.vid)

    def reinforce(self, vid):
        """Recompute one root on the branch to higher precision.

        Picks the first branch vertex whose root was computed with stale
        precision (else the branch head), expands corrections past the
        root's known prefix at its tail exponent, and writes the refined
        roots into the vertex and its subtree's copies (``_replace_subtree``).
        Raises PrecisionLimitError when the branch head's precision would
        exceed the safeguard, or when the reinforcement would leave the tree
        as it was: the driver is deterministic, so it would repeat that
        reinforcement forever.  Every error of the reinforcement itself is
        prefixed once with the polynomial and the vertex it reinforces; one
        from putting the ancestors' roots in keeps ``_next_polynomial``'s.
        """
        chain = self.branch(vid)
        if not chain:
            raise ValueError("cannot reinforce at the tree root")
        self.reinforce_count += 1
        head_prec = chain[0].prec
        l = next((
            idx for idx in range(1, len(chain))
            if not chain[idx].root.is_exact and chain[idx].prec < head_prec
        ), None)
        if l is None:
            # the head, else the first uncertain vertex: an exact head's
            # branch is reachable only through uncertain ancestors
            l = next(idx for idx, v in enumerate(chain) if not v.root.is_exact)
        target_vertex = chain[l]
        old_prec = target_vertex.prec
        root = target_vertex.root
        # outside the handler: _next_polynomial names its own failure
        composed = self._next_polynomial(self.vertices[target_vertex.parent])
        try:
            if l == 0:
                new_prec = int_if_integral(head_prec + self.p_step)
                if new_prec > self.p_max:
                    raise PrecisionLimitError(
                        "precision %s for the branch head would exceed the bound %s" % (new_prec, self.p_max)
                    )
                target_vertex.prec = new_prec
                target = new_prec
            else:
                target_vertex.prec = head_prec
                target = self.p_max
            reinf = self.reinforcement_polynomial(target_vertex.vid, composed)
            self.polygon_log.append(("reinforcement", l + 1, target_vertex.vid, reinf))
            corrections = self._corrections(reinf, root, target)
            refined = sorted(corrections, key=ApproxRoot.sort_key)
            if target_vertex.prec == old_prec and refined == [root]:
                raise PrecisionLimitError("the root gains no precision within the bound %s" % self.p_max)
        except TropError as exc:
            exc.args = ("reinforcing f%d at vertex %d: %s" % (l + 1, target_vertex.vid, exc),)
            raise
        sources = {}
        for corr, g in corrections.items():
            if g is not None and corr.known:
                self.store.setdefault((id(composed), corr.known), (composed, g))
            # of the polynomials handed back, only reinf may have failed is_unique
            sources[corr] = g if g is not None and (g is not reinf or is_unique(g)) else target_vertex.source
        self._replace_subtree(target_vertex, refined, sources)

    def _corrections(self, reinf: UPoly, root: ApproxRoot, target):
        """The refined roots, each mapped to its polynomial as
        ``puiseux_expansion`` maps it, from expanding the reinforcement
        polynomial at the root's tail exponent after its known prefix.

        A vertex stands for the roots whose tail u*t^(w_r) has u of valuation
        exactly zero: the roots at higher tropical points belong to its
        siblings, one per point, so only w_r is expanded.  When the polygon
        is untrusted or does not offer w_r, the root itself comes back, mapped
        to the reinforcement polynomial, and the driver tries again with
        better ancestor precision.
        """
        w_r = root.tail
        if is_unique(reinf) and w_r in newton_polygon(reinf).tropical_points():
            budget = target - (w_r - root.valuation())
            key = (id(reinf), root, budget)
            entry = self.store.get(key)
            if entry is None:
                expansion = puiseux_expansion(reinf, w_r, budget, root.known)
                entry = self.store[key] = (reinf, expansion)
            if entry[1]:
                return entry[1]
        return {root: reinf}

    def _replace_subtree(self, vertex, refined, sources):
        """Write the first refined root into the vertex, and put one copy of
        its subtree per other refined root right after it among its siblings.

        The vertex stands for the roots whose tail u*t^(w_r) has u of
        valuation exactly zero; roots at higher points belong to its
        siblings.  Its subtree was grown with u symbolic, and every polygon
        trusted there (``step``) is the same for every such u = c + ..., c a
        root of the vertex's residue equation.  Each refined root's first new
        term, or its bare tail, sits at w_r (``_corrections``): one such u.
        The vertex keeps its id, precision and subtree, so no vertex is
        ever removed.
        """
        siblings = self.vertices[vertex.parent].children
        at = siblings.index(vertex.vid) + 1
        siblings[at:at] = [self._copy_subtree(vertex, r, sources[r]) for r in refined[1:]]
        vertex.root, vertex.source = refined[0], sources[refined[0]]

    def _copy_subtree(self, template, new_root, new_source) -> int:
        """Copy the template's subtree under its parent, ``new_root`` and its source
        at the top and ids in preorder; the caller links the returned top copy in."""
        top = None
        stack = [(template, template.parent, new_root, new_source)]
        while stack:
            template, parent_id, root, source = stack.pop()
            copy = self._new_vertex(
                parent=parent_id, depth=template.depth, root=root, prec=template.prec, source=source
            )
            copy.dead = template.dead
            if top is None:
                top = copy.vid
            else:
                self.vertices[parent_id].children.append(copy.vid)
            for child_id in reversed(template.children):
                child = self.vertices[child_id]
                stack.append((child, copy.vid, child.root, child.source))
        return top

    # -- driver ----------------------------------------------------------------

    def _select_leaf(self):
        """The deepest open leaf; among those, the oldest (smallest id).  Drops
        closed vertices off the heap (none ever reopens) but keeps the leaf,
        which a reinforcement leaves open."""
        while self._open:
            v = self.vertices[self._open[0][1]]
            if not (v.children or v.dead):
                return v
            heappop(self._open)
        return None

    def step(self) -> bool:
        """One driver iteration; False when the tree is finished."""
        leaf = self._select_leaf()
        if leaf is None:
            return False
        ext = self.extension_polynomial(leaf.vid)
        self.polygon_log.append(("extension", leaf.depth + 1, leaf.vid, ext))
        if is_unique(ext) or self._corners_hold(leaf, ext):
            self.grow(leaf.vid, ext)
        else:
            self.reinforce(leaf.vid)
        return True

    def _corners_hold(self, leaf, ext):
        """Whether each corner of ext's polygon that ``is_unique`` leaves untrusted
        holds all the same: its lowest part A is a polynomial in one tail u_i that
        vanishes at no nonzero root of h, the u-free initial form u_i's leading
        coefficient solves (``Vertex``), its roots kept for the expansion after a
        failed test; when h does not split, A's roots must split and miss h's."""
        field, k = self.field, leaf.depth
        add, mul = field.add, field.mul
        for j, _ in newton_polygon(ext).corners:
            if ext.coeffs[j].initial_term() is not None:
                continue
            lowest = ext.coeffs[j].initial_terms()
            tails = {i for i in self.system.used[k] if i != k for deg in lowest if deg[i]}
            if len(tails) != 1:
                return False
            (i,) = tails
            v = leaf
            while v.depth > i + 1:
                v = self.vertices[v.parent]
            h = v.source and initial_form(v.source, v.root.tail)
            if h is None or not any(h.coeffs[:-1]):  # no nonzero root: no roots at w
                return False
            a = [field.zero] * (1 + max(lowest)[i])  # A's tuples are zero off i
            for deg, c in lowest.items():
                a[deg[i]] = c
            try:
                roots, q = roots_in_units(h), a
            except NonSplittingError:
                try:
                    roots, q = roots_in_units(ResiduePoly(field, a)), h.coeffs
                except NonSplittingError:
                    return False
            for r in roots:
                value = q[-1]
                for c in q[-2::-1]:
                    value = add(mul(value, r), c)
                if value == 0:
                    return False
        return True

    def run(self):
        while self.step():
            pass
        return self

    def points(self):
        """Branch valuation vectors, depth-first, first occurrence kept."""
        return [vals for vals, _ in self.point_rows()]

    def point_rows(self):
        """(valuation vector, its coordinates as text) per branch vector, in the
        order of ``points``: one depth-first walk in which each vertex extends
        its parent's tuples by its root's, leaves deduped on their texts."""
        vertices = self.vertices
        seen = {}  # root -> (valuation, text)
        out = {}  # a dict keeps each key where it was first put in
        stack = [(vertices[vid], (), ()) for vid in reversed(vertices[self.root_id].children)]
        while stack:
            v, vals, texts = stack.pop()
            row = seen.get(v.root)
            if row is None:
                w = v.root.valuation()
                row = seen[v.root] = w, format_rat(w)
            vals, texts = vals + (row[0],), texts + (row[1],)
            if v.children:
                for vid in reversed(v.children):
                    stack.append((vertices[vid], vals, texts))
            elif v.depth == self.n:
                out.setdefault(texts, (vals, texts))
        return list(out.values())

    # -- reporting ---------------------------------------------------------------

    def to_json_dict(self):
        vertices = []
        for v in self.vertices.values():
            row = {"id": v.vid, "parent": v.parent, "valuation": None, "precision": None,
                   "exact": None, "dead": v.dead}
            if v.root is not None:
                row.update(valuation=format_rat(v.root.valuation()),
                           precision=format_rat(v.prec), exact=v.root.is_exact)
            vertices.append(row)
        return {"root": self.root_id, "vertices": vertices}


def trop_triangular(system: TriangularSystem, p_step=1, p_max=32) -> set:
    """The tropical points of the system as a set of rational vectors."""
    tree = RootTree(system, p_step, p_max)
    tree.run()
    return set(tree.points())
