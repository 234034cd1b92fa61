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

from fractions import Fraction
from heapq import heappop, heappush

from .errors import (
    NonSplittingError,
    NonTriangularError,
    PrecisionLimitError,
    RecursionLimitError,
    ZeroSubstitutionError,
)
from .expansion import ApproxRoot, puiseux_expansion
from .polygon import is_unique, newton_polygon
from .rationals import format_rat, int_if_integral
from .upoly import UPoly, compose


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
    __slots__ = ("vid", "parent", "children", "root", "prec", "depth", "dead")

    def __init__(self, vid, parent, depth, root, prec):
        self.vid = vid
        self.parent = parent
        self.children = []
        self.root = root  # ApproxRoot, or None at the tree root
        self.prec = prec
        self.depth = depth
        self.dead = False


class RootTree:
    def __init__(self, system, p_step, p_max):
        p_step = int_if_integral(Fraction(p_step))
        p_max = int_if_integral(Fraction(p_max))
        if p_step <= 0:
            raise ValueError("the precision increment must be positive")
        if p_max < 0:
            raise ValueError("the precision bound must be nonnegative")
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

    def _new_vertex(self, parent, depth, root, prec):
        v = Vertex(len(self.vertices), parent, depth, root, prec)
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
        except ZeroSubstitutionError as exc:
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
            child = self._new_vertex(parent=vid, depth=v.depth + 1, root=root, prec=0)
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
        reinforcement forever.  Its errors name the polynomial reinforced,
        and all but a residue field too small to split name the vertex too.
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
        if l == 0:
            new_prec = int_if_integral(head_prec + self.p_step)
            if new_prec > self.p_max:
                raise PrecisionLimitError(
                    "reinforcing f1 at vertex %d: precision %s for the branch head would "
                    "exceed the bound %s" % (target_vertex.vid, new_prec, self.p_max)
                )
            target_vertex.prec = new_prec
            target = new_prec
        else:
            target_vertex.prec = head_prec
            target = self.p_max

        root = target_vertex.root
        composed = self._next_polynomial(self.vertices[target_vertex.parent])
        reinf = self.reinforcement_polynomial(target_vertex.vid, composed)
        self.polygon_log.append(("reinforcement", l + 1, target_vertex.vid, reinf))
        try:
            corrections = self._corrections(reinf, root, target)
        except NonSplittingError as exc:
            exc.args = ("residue field too small in f%d: %s" % (l + 1, exc),)
            raise
        except RecursionLimitError as exc:
            exc.args = ("reinforcing f%d at vertex %d: %s" % (l + 1, target_vertex.vid, exc),)
            raise
        for corr, g in corrections.items():
            if g is not None and corr.known:
                self.store.setdefault((id(composed), corr.known), (composed, g))
        refined = sorted(corrections, key=ApproxRoot.sort_key)
        if target_vertex.prec == old_prec and refined == [root]:
            raise PrecisionLimitError(
                "reinforcing f%d at vertex %d gains no precision within the bound %s"
                % (l + 1, target_vertex.vid, self.p_max)
            )
        self._replace_subtree(target_vertex, refined)

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

    def _replace_subtree(self, vertex, refined):
        """Write the first refined root into the vertex, and put one copy of
        its subtree per other refined root right after it among its siblings.

        The vertex stands for the roots whose tail u*t^(w_r) has u of
        valuation exactly zero; roots at higher points belong to its
        siblings.  Its subtree was grown with u symbolic, and every polygon
        trusted there passed ``is_unique``: it is the same for every such u.
        Each refined root's first new term, or its bare tail, sits at w_r
        (``_corrections``), so it puts in one such u, c + ... with c != 0.
        The vertex keeps its id, precision and subtree, so no vertex is
        ever removed.
        """
        siblings = self.vertices[vertex.parent].children
        at = siblings.index(vertex.vid) + 1
        siblings[at:at] = [self._copy_subtree(vertex, r) for r in refined[1:]]
        vertex.root = refined[0]

    def _copy_subtree(self, template, new_root) -> int:
        """Copy the template's subtree under its parent, ``new_root`` at the
        top and ids in preorder; the caller links the returned top copy in."""
        top = None
        stack = [(template, template.parent, new_root)]
        while stack:
            template, parent_id, root = stack.pop()
            copy = self._new_vertex(
                parent=parent_id, depth=template.depth, root=root, prec=template.prec
            )
            copy.dead = template.dead
            if top is None:
                top = copy.vid
            else:
                self.vertices[parent_id].children.append(copy.vid)
            for child_id in reversed(template.children):
                child = self.vertices[child_id]
                stack.append((child, copy.vid, child.root))
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
        if is_unique(ext):
            self.grow(leaf.vid, ext)
        else:
            self.reinforce(leaf.vid)
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
        order of ``points``: a row per vertex on a branch that reaches depth n,
        made once from its parent's, and the leaves deduped on an int key."""
        rows = {self.root_id: (0, (), ())}  # vid -> (key, vector, texts)
        keys = {}  # (parent's key, valuation's text) -> key
        seen = {}  # root -> (valuation, text)
        out = {}  # a dict keeps each key where it was first put in
        stack = [self.root_id]
        while stack:
            v = self.vertices[stack.pop()]
            if v.children:
                stack.extend(reversed(v.children))
            elif v.depth == self.n:
                chain = []
                while v.vid not in rows:
                    chain.append(v)
                    v = self.vertices[v.parent]
                key, vals, strs = rows[v.vid]
                for u in reversed(chain):
                    if u.root not in seen:
                        w = u.root.valuation()
                        seen[u.root] = w, format_rat(w)
                    w, text = seen[u.root]
                    key = keys.setdefault((key, text), len(keys) + 1)
                    rows[u.vid] = key, vals, strs = key, vals + (w,), strs + (text,)
                out.setdefault(key, (vals, strs))
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
