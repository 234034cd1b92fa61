"""Back-substitution driver for triangular systems.

The driver grows a rooted tree whose depth-i vertices carry compatible
approximate roots of the i-th polynomial after the ancestors' roots have
been substituted.  A leaf is extended when the next polynomial's Newton
polygon can be trusted as it stands ("grow"); otherwise some root on the
branch is recomputed to higher precision ("reinforce") until the polygon
stabilizes or the precision safeguard trips.  The tropical points are
the per-branch valuation vectors of the finished tree.
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
from .upoly import UPoly, compose, format_residue_terms


class TriangularSystem:
    """Polynomials f_1..f_n with f_i using exactly the coordinates x_1..x_i."""

    __slots__ = ("field", "n", "polys")

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise NonTriangularError("a triangular system needs at least one polynomial")
        field = polys[0].field
        n = len(polys)
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
        self.field = field
        self.n = n
        self.polys = tuple(polys)


class Vertex:
    __slots__ = (
        "vid", "parent", "children", "root", "prec", "depth", "dead", "substituted", "recentered",
    )

    def __init__(self, vid, parent, depth, root, prec):
        self.vid = vid
        self.parent = parent
        self.children = []
        self.root = root  # ApproxRoot, or None at the tree root
        self.prec = prec
        self.depth = depth
        self.dead = False
        # f_{depth+1..n} with x_1..x_depth replaced by the branch's roots,
        # each entry filled on first use.  A vertex's root never changes
        # after it is created (reinforce replaces vertices by copies, which
        # start empty and refill from their new parent), so the cache is
        # never invalidated.
        self.substituted = None
        # f_depth recentered at the root's known terms, when the expansion
        # that produced the root handed it over; set only on vertices that
        # reinforce created directly, whose parent is the one it was built on
        self.recentered = None


class PolygonEvent:
    """One polygon inspected by the driver, for diagnostics and SVG output."""

    __slots__ = ("label", "polygon", "vertex_labels")

    def __init__(self, label, polygon, vertex_labels):
        self.label = label
        self.polygon = polygon
        self.vertex_labels = vertex_labels


class RootTree:
    def __init__(self, system, p_step, p_max, max_depth=DEFAULT_MAX_DEPTH, record_polygons=False):
        p_step = Fraction(p_step)
        p_max = Fraction(p_max)
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
        self.polygon_log = []
        self.grow_count = 0
        self.reinforce_count = 0
        self._next_id = 0
        self.vertices = {}
        root = self._new_vertex(parent=None, depth=0, root=None, prec=Fraction(0))
        root.substituted = list(system.polys)
        self.root_id = root.vid

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

    def _substituted(self, v, i=0):
        """The vertex's cached f_{d+1+i}; a child puts its one root into its parent's."""
        if v.substituted is None:
            v.substituted = [None] * (self.n - v.depth)
        g = v.substituted[i]
        if g is None:
            above = self._substituted(self.vertices[v.parent], i + 1)
            g = above.substitute(v.depth - 1, v.root.as_mpoly(self.field, self.n))
            v.substituted[i] = g
        return g

    # -- the two tree-changing operations -------------------------------------

    def _next_polynomial(self, v) -> UPoly:
        """f_{d+1} in x_{d+1}, with the roots of v's branch (depth d) substituted."""
        try:
            return compose(self._substituted(v), (), v.depth)
        except ZeroSubstitutionError as exc:
            exc.args = ("f%d vanishes on the branch: %s" % (v.depth + 1, exc),)
            raise

    def extension_polynomial(self, vid) -> UPoly:
        """The next polynomial with this branch's roots substituted."""
        v = self.vertices[vid]
        if v.depth >= self.n:
            raise ValueError("the branch is already full length")
        return self._next_polynomial(v)

    def reinforcement_polynomial(self, vid) -> UPoly:
        """f_k recentered at the known part of this vertex's root.

        Ancestors contribute their full roots (tails included); the
        vertex's own root contributes only its known prefix, so the
        polynomial's roots are exactly the possible corrections.  A vertex
        made by ``reinforce`` already holds it from its expansion.
        """
        v = self.vertices[vid]
        if v.depth < 1:
            raise ValueError("the tree root carries no root to reinforce")
        if v.recentered is not None:
            return v.recentered
        composed = self._next_polynomial(self.vertices[v.parent])
        if not v.root.known:
            return composed
        return composed.shift_substitute(v.root.known_scalar(self.field), 0)

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
        for w in sorted(points, reverse=True):
            child = self._new_vertex(
                parent=vid,
                depth=v.depth + 1,
                root=ApproxRoot(v.depth, (), w),
                prec=Fraction(0),
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
        stale = [
            idx
            for idx in range(1, len(chain))
            if not chain[idx].root.is_exact and chain[idx].prec < head_prec
        ]
        if stale:
            l = stale[0]
        elif not chain[0].root.is_exact:
            l = 0
        else:
            uncertain = [idx for idx in range(len(chain)) if not chain[idx].root.is_exact]
            l = uncertain[0]  # reachable only through uncertain ancestors
        target_vertex = chain[l]
        old_prec = target_vertex.prec
        if l == 0 and not chain[0].root.is_exact:
            new_prec = head_prec + self.p_step
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
        reinf = self.reinforcement_polynomial(target_vertex.vid)
        polygon = newton_polygon(reinf)
        self._log_polygon(
            "reinforcement f%d at vertex %d" % (l + 1, target_vertex.vid), reinf, polygon
        )
        corrections = self._corrections(reinf, polygon, root, target, l + 1)
        refined = sorted(
            ((self._merge_root(root, corr), g) for corr, g in corrections.items()),
            key=lambda pair: pair[0].sort_key(),
        )
        if target_vertex.prec == old_prec and [r for r, _ in refined] == [root]:
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
            admissible = sorted(w for w in points if w >= w_r)
        else:
            admissible = [w for w in points if w == w_r]
        out = {}
        w0 = root.valuation()
        for w in admissible:
            budget = target - (w - w0)
            try:
                out.update(puiseux_expansion(reinf, w, budget, self.max_depth))
            except NonSplittingError as exc:
                exc.source = exc.source or "f%d" % findex
                raise
        if not out:
            out = {ApproxRoot(root.index, (), w_r): reinf}
        return out

    @staticmethod
    def _merge_root(root: ApproxRoot, corr: ApproxRoot) -> ApproxRoot:
        return ApproxRoot(root.index, root.known + corr.known, corr.tail)

    def _replace_subtree(self, vertex, refined):
        """Replace the vertex by one vertex per (root, recentered polynomial) pair.

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
        for new_root, recentered in refined:
            nxt = new_root.known[k][0] if len(new_root.known) > k else new_root.tail
            if nxt == vertex.root.tail:
                copy_id = self._copy_subtree(vertex, parent.vid, new_root)
            else:
                copy_id = self._new_vertex(parent.vid, vertex.depth, new_root, vertex.prec).vid
            # the copy keeps the vertex's parent, which the polynomial was built on;
            # copies further down have new ancestors and start without one
            self.vertices[copy_id].recentered = recentered
            parent.children.append(copy_id)
        self._drop_subtree(vertex.vid)

    def _drop_subtree(self, vid):
        v = self.vertices.pop(vid)
        for c in v.children:
            self._drop_subtree(c)

    def _copy_subtree(self, template, parent_id, new_root) -> int:
        copy = self._new_vertex(
            parent=parent_id, depth=template.depth, root=new_root, prec=template.prec
        )
        copy.dead = template.dead
        for child_id in template.children:
            child = self.vertices[child_id]
            copy.children.append(self._copy_subtree(child, copy.vid, child.root))
        return copy.vid

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
        self._log_polygon(
            "extension f%d at vertex %d" % (leaf.depth + 1, leaf.vid), ext, polygon
        )
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
        out = []
        seen = set()

        def visit(vid, vals):
            v = self.vertices[vid]
            if v.root is not None:
                vals = vals + (v.root.valuation(),)
            if not v.children:
                if v.depth == self.n and not v.dead and vals not in seen:
                    seen.add(vals)
                    out.append(vals)
                return
            for c in v.children:
                visit(c, vals)

        visit(self.root_id, ())
        return out

    def point_set(self):
        return set(self.points())

    # -- reporting ---------------------------------------------------------------

    def _log_polygon(self, label, poly: UPoly, polygon):
        if not self.record_polygons:
            return
        labels = [
            format_residue_terms(poly.coeffs[j].initial_terms())
            for j, _ in polygon.vertices
        ]
        self.polygon_log.append(PolygonEvent(label, polygon, labels))

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
