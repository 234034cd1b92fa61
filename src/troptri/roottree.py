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
    __slots__ = ("vid", "parent", "children", "root", "prec", "depth", "dead")

    def __init__(self, vid, parent, depth, root, prec):
        self.vid = vid
        self.parent = parent
        self.children = []
        self.root = root  # ApproxRoot, or None at the tree root
        self.prec = prec
        self.depth = depth
        self.dead = False


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

    # -- the two tree-changing operations -------------------------------------

    def extension_polynomial(self, vid) -> UPoly:
        """The next polynomial with this branch's roots substituted."""
        v = self.vertices[vid]
        k = v.depth
        if k >= self.n:
            raise ValueError("the branch is already full length")
        values = [b.root.as_ucoeff(self.field, self.n) for b in self.branch(vid)]
        try:
            return compose(self.system.polys[k], values, k)
        except ZeroSubstitutionError as exc:
            exc.args = ("f%d vanishes on the branch: %s" % (k + 1, exc),)
            raise

    def reinforcement_polynomial(self, vid) -> UPoly:
        """f_k recentered at the known part of this vertex's root.

        Ancestors contribute their full roots (tails included); the
        vertex's own root contributes only its known prefix, so the
        polynomial's roots are exactly the possible corrections.
        """
        v = self.vertices[vid]
        k = v.depth
        if k < 1:
            raise ValueError("the tree root carries no root to reinforce")
        chain = self.branch(vid)
        values = [b.root.as_ucoeff(self.field, self.n) for b in chain[:-1]]
        try:
            composed = compose(self.system.polys[k - 1], values, k - 1)
        except ZeroSubstitutionError as exc:
            exc.args = ("f%d vanishes on the branch: %s" % (k, exc),)
            raise
        return composed.shift_substitute(v.root.known_scalar(self.field), 0)

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
        root's known prefix, and replaces the vertex (subtree copied per
        correction).  Raises PrecisionLimitError when the branch head's
        precision would exceed the safeguard.
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
        self._log_polygon("reinforcement f%d at vertex %d" % (l + 1, target_vertex.vid), reinf)
        corrections = self._corrections(reinf, root, target, l + 1)
        refined = sorted(
            {self._merge_root(root, corr) for corr in corrections},
            key=lambda r: r.sort_key(),
        )
        self._replace_subtree(target_vertex, refined)

    def _corrections(self, reinf: UPoly, root: ApproxRoot, target, findex):
        """Expansions of the reinforcement polynomial past the root's tail.

        Roots with a known prefix keep their valuation whatever the
        correction, so every tropical point at or past the tail exponent
        is admissible; a bare tail *is* the valuation, so only the tail
        exponent itself is (higher points belong to sibling branches).
        """
        w_r = root.tail
        if not is_unique(reinf):
            # cannot trust any tropical point; record the bookkeeping and
            # let the driver try again with better ancestor precision
            return {ApproxRoot(root.index, (), w_r)}
        points = newton_polygon(reinf).tropical_points()
        if root.known:
            admissible = sorted(w for w in points if w >= w_r)
        else:
            admissible = [w for w in points if w == w_r]
        out = set()
        w0 = root.valuation()
        for w in admissible:
            budget = target - (w - w0)
            try:
                out |= puiseux_expansion(reinf, w, budget, self.max_depth)
            except NonSplittingError as exc:
                exc.source = exc.source or "f%d" % findex
                raise
        if not out:
            out = {ApproxRoot(root.index, (), w_r)}
        return out

    @staticmethod
    def _merge_root(root: ApproxRoot, corr: ApproxRoot) -> ApproxRoot:
        return ApproxRoot(root.index, root.known + corr.known, corr.tail)

    def _replace_subtree(self, vertex, refined_roots):
        parent = self.vertices[vertex.parent]
        parent.children.remove(vertex.vid)
        for new_root in refined_roots:
            parent.children.append(self._copy_subtree(vertex, parent.vid, new_root))
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
        self._log_polygon(
            "extension f%d at vertex %d" % (leaf.depth + 1, leaf.vid), ext
        )
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

    def _log_polygon(self, label, poly: UPoly):
        if not self.record_polygons or poly.is_zero():
            return
        polygon = newton_polygon(poly)
        labels = [
            format_residue_terms(poly.coeffs[j].initial_terms())
            for j, _ in polygon.vertices
        ]
        self.polygon_log.append(PolygonEvent(label, polygon, labels))

    def check_invariants(self):
        """Structural sanity: connectivity, depth bound, branch typing, precisions."""
        assert self.root_id in self.vertices
        for v in self.vertices.values():
            assert v.depth <= self.n
            for c in v.children:
                child = self.vertices[c]
                assert child.parent == v.vid
                assert child.depth == v.depth + 1
            if v.root is not None:
                assert v.root.index == v.depth - 1
                chain = self.branch(v.vid)
                assert v.prec <= chain[0].prec
        return True

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
