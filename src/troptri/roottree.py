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
* (polynomial, valuation, budget): its expansion of the roots of that
  valuation to that budget, so a subtree copy that meets the same
  polynomial again reuses it.

No polynomial lives on a vertex, so a vertex never reads one built on
ancestors it no longer has.
"""

from fractions import Fraction

from .errors import (
    NonSplittingError,
    NonTriangularError,
    PrecisionLimitError,
    ZeroSubstitutionError,
)
from .expansion import DEFAULT_MAX_DEPTH, ApproxRoot, puiseux_expansion
from .polygon import is_unique, newton_polygon
from .rationals import int_if_integral
from .upoly import UPoly, compose, format_residue_terms


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
    def __init__(self, system, p_step, p_max, max_depth=DEFAULT_MAX_DEPTH, record_polygons=False):
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
        self.max_depth = max_depth
        self.record_polygons = record_polygons
        # (label, polygon, vertex labels) per polygon the driver inspects,
        # for diagnostics and SVG output
        self.polygon_log = []
        self.grow_count = 0
        self.reinforce_count = 0
        self._next_id = 0
        self.vertices = {}
        # for every branch of this tree: (id(g), root) -> (g, g with the root put
        # in), (id(f), known) -> (f, the composed f recentered at the known
        # terms), and (id(f), w, budget) -> (f, the expansion of f's roots of
        # valuation w to that budget); holding g or f keeps its id from being
        # reused (see _next_polynomial, reinforcement_polynomial and _corrections)
        self.store = {}
        self.root_id = self._new_vertex(parent=None, depth=0, root=None, prec=0).vid

    # -- construction helpers -------------------------------------------------

    def _new_vertex(self, parent, depth, root, prec):
        v = Vertex(self._next_id, parent, depth, root, prec)
        self._next_id += 1
        self.vertices[v.vid] = v
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
        """
        k = v.depth
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
        return self._stored(g, roots[0] if roots else None, k)

    def _stored(self, g, root, k=None):
        """g with the root put in, composed in x_(k+1) when k is given."""
        key = (id(g), root)
        entry = self.store.get(key)
        if entry is None:
            h = g if root is None else g.substitute(root.index, *root.scalars(self.field))
            if k is not None:
                try:
                    h = compose(h, k)
                except ZeroSubstitutionError as exc:
                    exc.args = ("f%d vanishes on the branch: %s" % (k + 1, exc),)
                    raise
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
            recentered = composed.shift_substitute(v.root.known_scalar(self.field))
            entry = self.store[key] = (composed, recentered)
        return entry[1]

    def grow(self, vid, ext=None, polygon=None):
        """Attach one child per tropical point of the extension polynomial."""
        v = self.vertices[vid]
        if ext is None:
            ext = self.extension_polynomial(vid)
        if polygon is None:
            polygon = newton_polygon(ext)
        self.grow_count += 1
        points = polygon.tropical_points()
        if not points:
            v.dead = True
            return
        for w in points:
            child = self._new_vertex(
                parent=vid,
                depth=v.depth + 1,
                root=ApproxRoot(v.depth, (), w),
                prec=0,
            )
            v.children.append(child.vid)

    def reinforce(self, vid):
        """Recompute one root on the branch to higher precision.

        Picks the first branch vertex whose root was computed with stale
        precision (else the branch head), expands corrections past the
        root's known prefix, and replaces the vertex by one vertex per
        correction (``_replace_subtree``).  Raises PrecisionLimitError when
        the branch head's precision would exceed the safeguard, or when the
        reinforcement would leave the tree as it was: the driver is
        deterministic, so it would repeat that reinforcement forever.
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
        if l == 0 and not chain[0].root.is_exact:
            new_prec = int_if_integral(head_prec + self.p_step)
            if new_prec > self.p_max:
                raise PrecisionLimitError(
                    "precision %s for the branch head would exceed the bound %s"
                    % (new_prec, self.p_max),
                    source="f1",
                )
            target_vertex.prec = new_prec
            target = new_prec
        else:
            target_vertex.prec = head_prec
            target = self.p_max

        root = target_vertex.root
        composed = self._next_polynomial(self.vertices[target_vertex.parent])
        reinf = self.reinforcement_polynomial(target_vertex.vid, composed)
        polygon = newton_polygon(reinf)
        self._log_polygon("reinforcement", l + 1, target_vertex.vid, reinf, polygon)
        corrections = self._corrections(reinf, polygon, root, target, l + 1)
        refined = []
        for corr, g in corrections.items():
            new_root = self._merge_root(root, corr)
            if g is not None and new_root.known:
                self.store.setdefault((id(composed), new_root.known), (composed, g))
            refined.append(new_root)
        refined.sort(key=ApproxRoot.sort_key)
        if target_vertex.prec == old_prec and refined == [root]:
            raise PrecisionLimitError(
                "reinforcing f%d at vertex %d gains no precision within the bound %s"
                % (l + 1, target_vertex.vid, self.p_max),
                source="f%d" % (l + 1),
            )
        self._replace_subtree(target_vertex, refined)

    def _corrections(self, reinf: UPoly, polygon, root: ApproxRoot, target, findex):
        """Expansions of the reinforcement polynomial past the root's tail.

        Roots with a known prefix keep their valuation whatever the
        correction, so every tropical point at or past the tail exponent
        is admissible; a bare tail *is* the valuation, so only the tail
        exponent itself is (higher points belong to sibling branches).
        """
        w_r = root.tail
        if not is_unique(reinf, polygon):
            # cannot trust any tropical point; record the bookkeeping and
            # let the driver try again with better ancestor precision
            return {ApproxRoot(root.index, (), w_r): reinf}
        points = polygon.tropical_points()
        if root.known:
            admissible = [w for w in reversed(points) if w >= w_r]
        else:
            admissible = [w for w in points if w == w_r]
        out = {}
        w0 = root.valuation()
        for w in admissible:
            budget = target - (w - w0)
            key = (id(reinf), w, budget)
            entry = self.store.get(key)
            if entry is None:
                try:
                    expansion = puiseux_expansion(reinf, w, budget, self.max_depth)
                except NonSplittingError as exc:
                    exc.source = exc.source or "f%d" % findex
                    raise
                entry = self.store[key] = (reinf, expansion)
            out.update(entry[1])
        if not out:
            out = {ApproxRoot(root.index, (), w_r): reinf}
        return out

    @staticmethod
    def _merge_root(root: ApproxRoot, corr: ApproxRoot) -> ApproxRoot:
        return ApproxRoot(root.index, root.known + corr.known, corr.tail)

    def _replace_subtree(self, vertex, refined):
        """Replace the vertex by one vertex per refined root.

        The vertex's subtree was grown with its root's tail u*t^(w_r)
        symbolic, and every polygon trusted there passed ``is_unique``: it
        is the same for every value of u of valuation zero.  A refined
        root whose first new term (or bare tail) sits at w_r is such a
        value, u = c + ... with c != 0, so it gets a copy of the subtree.
        A refined root whose next term sits past w_r puts in a u of
        positive valuation, which the subtree never covered; it gets a
        fresh childless vertex at the same depth and precision, and the
        driver grows it again.
        """
        parent = self.vertices[vertex.parent]
        parent.children.remove(vertex.vid)
        k = len(vertex.root.known)
        for new_root in refined:
            nxt = new_root.known[k][0] if len(new_root.known) > k else new_root.tail
            if nxt == vertex.root.tail:
                copy_id = self._copy_subtree(vertex, parent.vid, new_root)
            else:
                copy_id = self._new_vertex(parent.vid, vertex.depth, new_root, vertex.prec).vid
            parent.children.append(copy_id)
        self._drop_subtree(vertex.vid)

    def _drop_subtree(self, vid):
        stack = [vid]
        while stack:
            stack.extend(reversed(self.vertices.pop(stack.pop()).children))

    def _copy_subtree(self, template, parent_id, new_root) -> int:
        """Copy the template's subtree under ``parent_id``, ids in preorder;
        the caller links the returned top copy to its parent."""
        top = None
        stack = [(template, parent_id, new_root)]
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
        """The deepest open leaf; among those, the oldest (smallest id)."""
        best = None
        for v in self.vertices.values():
            if v.children or v.dead or v.depth >= self.n:
                continue
            if best is None or (v.depth, -v.vid) > (best.depth, -best.vid):
                best = v
        return best

    def step(self) -> bool:
        """One driver iteration; False when the tree is finished."""
        leaf = self._select_leaf()
        if leaf is None:
            return False
        ext = self.extension_polynomial(leaf.vid)
        polygon = newton_polygon(ext)
        self._log_polygon("extension", leaf.depth + 1, leaf.vid, ext, polygon)
        if is_unique(ext, polygon):
            self.grow(leaf.vid, ext, polygon)
        else:
            self.reinforce(leaf.vid)
        return True

    def run(self):
        while self.step():
            pass
        return self

    def points(self):
        """Branch valuation vectors, depth-first, first occurrence kept."""
        out = {}  # a dict keeps each key where it was first put in
        stack = [(self.root_id, ())]
        while stack:
            vid, vals = stack.pop()
            v = self.vertices[vid]
            if v.root is not None:
                vals = vals + (v.root.valuation(),)
            if v.children:
                stack.extend((c, vals) for c in reversed(v.children))
            elif v.depth == self.n and not v.dead:
                out[vals] = None
        return list(out)

    def point_set(self):
        return set(self.points())

    # -- reporting ---------------------------------------------------------------

    def _log_polygon(self, kind, findex, vid, poly: UPoly, polygon):
        if not self.record_polygons:
            return
        label = "%s f%d at vertex %d" % (kind, findex, vid)
        labels = [
            format_residue_terms(poly.coeffs[j].initial_terms())
            for j, _ in polygon.vertices
        ]
        self.polygon_log.append((label, polygon, labels))

    def to_json_dict(self):
        from .rationals import format_rat

        vertices = []
        for vid in sorted(self.vertices):
            v = self.vertices[vid]
            if v.root is None:
                vertices.append(
                    {"id": v.vid, "parent": None, "valuation": None, "precision": None,
                     "exact": None, "dead": v.dead}
                )
            else:
                vertices.append(
                    {
                        "id": v.vid,
                        "parent": v.parent,
                        "valuation": format_rat(v.root.valuation()),
                        "precision": format_rat(v.prec),
                        "exact": v.root.is_exact,
                        "dead": v.dead,
                    }
                )
        return {"root": self.root_id, "vertices": vertices}


def trop_triangular(system: TriangularSystem, p_step=1, p_max=32,
                    max_depth=DEFAULT_MAX_DEPTH) -> set:
    """The tropical points of the system as a set of rational vectors."""
    tree = RootTree(system, p_step, p_max, max_depth=max_depth)
    tree.run()
    return tree.point_set()
