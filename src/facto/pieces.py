"""Graded realizations, one degree piece at a time.

A graded k-vector space T with a degree-raising nilpotent operator x is the
direct sum of its degree pieces T_s, and x is a set of shift blocks
T_s -> T_{s+1}.  So the realization algorithms of `modules` (Jordan normal
forms, x-stable subspaces, quotients) run on one small piece at a time and
never build the ambient matrix of x.

A realization is held as `dims` {s: dim T_s}, in ascending s and without
empty pieces, and `shifts` {s: the matrix of x : T_s -> T_{s+1}}, absent
where x is 0 on T_s.  A vector of T_s is written in T_s's own coordinates,
and a subspace is held as its pieces {s: vectors of T_s}, which `bases`
turns into per-degree `linalg.Echelon`s.  `ambient` and `assemble` read and
write the ambient operator and change of basis of `modules.decompose`,
whose coordinates are graded by a list of degrees.
"""

from __future__ import annotations

from . import linalg


class RealizationError(Exception):
    """A realization breaks a module invariant: an x-operator that is not
    graded nilpotent of order <= d, or a span that is not x-stable; also a
    module computation that fails one of its own consistency checks."""


NOT_NILPOTENT = "operator is not nilpotent of order <= d"
NO_FILL = ("Jordan chains do not fill the space "
           "(the operator does not raise degrees by 1)")


def indices_by_degree(degs):
    """{s: the tuple of indices k with degs[k] = s}, in ascending s."""
    out = {}
    for k, s in enumerate(degs):
        out.setdefault(s, []).append(k)
    return {s: tuple(out[s]) for s in sorted(out)}


def assemble(field, rows, cols, blocks, nrows, ncols, step=0):
    """The nrows x ncols ambient matrix with blocks[s] on the coordinates
    rows[s + step] x cols[s] (rows, cols: `indices_by_degree`)."""
    out = linalg.zeros(field, nrows, ncols)
    for s, block in blocks.items():
        for r, brow in zip(rows.get(s + step, ()), block):
            for c, val in zip(cols[s], brow):
                out[r][c] = val
    return out


def bases(field, spans):
    """{s: the Echelon of spans[s]}, its vectors added in order."""
    out = {}
    for s, vecs in spans.items():
        out[s] = ech = linalg.Echelon(field)
        for v in vecs:
            ech.add(v)
    return out


def ambient(field, degs, xmat, d):
    """(pieces, dims, shifts) of an ambient realization.  An operator that
    does not raise degrees by 1 is rejected: "nilpotent" when x^d != 0,
    else "fill", as its Jordan chains could not fill the space."""
    if any(not field.is_zero(c) and degs[r] != degs[k] + 1
           for r, row in enumerate(xmat) for k, c in enumerate(row)):
        power = xmat
        for _ in range(d - 1):
            power = linalg.mat_mul(field, xmat, power)
        if any(not field.is_zero(c) for row in power for c in row):
            raise RealizationError(NOT_NILPOTENT)
        raise RealizationError(NO_FILL)
    pieces = indices_by_degree(degs)
    shifts = {s: [[xmat[r][c] for c in cols] for r in pieces[s + 1]]
              for s, cols in pieces.items() if s + 1 in pieces}
    return pieces, {s: len(cols) for s, cols in pieces.items()}, shifts


def jordan(field, d, dims, shifts):
    """Homogeneous Jordan decomposition of a graded nilpotent x.

    Returns (summands, to_real): the sorted (length, degree) pairs of the
    normal form, and for each degree s the matrix whose columns are the
    normal form's basis of T_s (one x^i v per chain v that reaches s, in
    summand order) in the given coordinates of T_s.  From the longest
    length j down, in each degree s the chains of length j start at the
    vectors of ker x^j that extend ker x^(j-1) plus the images in T_s of
    the longer chains; each kernel of each power on each piece is taken
    once, and the chains are checked to fill every piece independently.
    """
    # powers[s][j]: x^j on T_s, a dim T_(s+j) x dim T_s matrix, up to the
    # first that is 0
    powers = {}
    for s, n in dims.items():
        p = [linalg.identity(field, n)]
        while any(not field.is_zero(c) for row in p[-1] for c in row):
            if len(p) > d:
                raise RealizationError(NOT_NILPOTENT)
            x = shifts.get(s + len(p) - 1)
            p.append(linalg.mat_mul(field, x, p[-1]) if x is not None else [])
        powers[s] = p
    nil = max((len(p) - 1 for p in powers.values()), default=0)  # x^nil = 0

    def kernels_of(s):
        """ker x^j on T_s for j = 0..nil: 0 at j = 0, a nullspace while
        x^j != 0 (0 on a line), and all of T_s from then on."""
        n, p = dims[s], powers[s]
        whole = [linalg.unit_vector(field, n, i) for i in range(n)]
        out = [[]]
        for j in range(1, nil + 1):
            if j >= len(p) - 1:
                out.append(whole)
            else:
                out.append(linalg.nullspace(field, p[j], cols=n) if n > 1 else [])
        return out

    kernels = {s: kernels_of(s) for s in dims}
    # chains: [length, start degree, x^i v for i = 0, 1, ...]; on level j
    # every chain found so far (each longer than j) takes one more step of x,
    # by the shift block of the degree it has reached
    chains = []
    for j in range(nil, 0, -1):
        longer = {}  # s: the images x^(length - j) v in T_s, in chain order
        for _, start, seq in chains:
            at = start + len(seq) - 1  # the degree of seq[-1]
            seq.append(linalg.mat_vec(field, shifts[at], seq[-1]))
            longer.setdefault(at + 1, []).append(seq[-1])
        for s in dims:
            low, high, images = kernels[s][j - 1], kernels[s][j], longer.get(s, [])
            # the images of longer chains are independent modulo ker x^(j-1),
            # so when the counts fill ker x^j no chain starts here
            if len(high) == len(low) + len(images):
                continue
            ech = linalg.Echelon(field)
            for v in low + images:
                ech.add(v)
            for w in high:
                if ech.add(w):
                    chains.append([j, s, [w]])

    chains.sort(key=lambda c: (c[0], c[1]))
    if sum(length for length, _, _ in chains) != sum(dims.values()):
        raise RealizationError(NO_FILL)
    cols = {s: [] for s in dims}
    for _, s, seq in chains:
        for i, v in enumerate(seq):
            cols[s + i].append(v)
    to_real = {}
    for s, vecs in cols.items():
        to_real[s] = [list(row) for row in zip(*vecs)]
        if linalg.rank(field, to_real[s]) != dims[s]:
            raise RealizationError("Jordan chains are linearly dependent")
    return [(length, s) for length, s, _ in chains], to_real


def sub_shifts(field, shifts, bases):
    """(dims, shifts) of x on the span with per-degree bases `bases`: column
    b of block s holds the coordinates of x b in the rows of bases[s + 1],
    read at their pivots.  RealizationError if x b leaves the span."""
    dims, out = {}, {}
    for s in sorted(bases):
        rows = bases[s].rows
        if not rows:
            continue
        dims[s] = len(rows)
        x = shifts.get(s)
        if x is None:
            continue
        images = [linalg.mat_vec(field, x, b) for b in rows]
        nxt = bases.get(s + 1)
        if nxt is None or not nxt.rows:
            if any(not field.is_zero(c) for w in images for c in w):
                raise RealizationError("span is not x-stable")
            continue
        if not all(nxt.contains(w) for w in images):
            raise RealizationError("span is not x-stable")
        out[s] = [[w[p] for w in images] for p in nxt.pivots]
    return dims, out


def complement(field, dims, shifts, bases):
    """(dims, shifts, proj) of the quotient by the span with per-degree
    bases `bases`.  In each degree the complement is the unit vectors that
    the span's piece misses, taken greedily in order, and proj[s] is the
    projection along the span onto their coordinates; x on the quotient is
    proj x on the complement's columns.

    The span's Echelon rows have unit pivot columns, so its annihilator has
    the basis e_f - sum_r row_r[f] e_(p_r) over the non-pivot columns f.
    The reduced row echelon form of that basis is the projection: it kills
    the span, its pivot columns are the greedy complement (a unit vector is
    missed iff its column is independent of the earlier ones), and it is
    the identity there.
    """
    qdims, local, proj = {}, {}, {}
    for s, n in dims.items():
        ech = bases.get(s)
        rows, pivots = (ech.rows, ech.pivots) if ech is not None else ([], [])
        ann = []
        for f in range(n):
            if f not in pivots:
                q = [field.zero] * n
                q[f] = field.one
                for row, p in zip(rows, pivots):
                    q[p] = field.neg(row[f])
                ann.append(q)
        proj[s], local[s] = linalg.rref(field, ann)
        if local[s]:
            qdims[s] = len(local[s])
    qshifts = {s: linalg.mat_mul(field, proj[s + 1],
                                 [[row[c] for c in local[s]] for row in x])
               for s, x in shifts.items() if s in qdims and s + 1 in qdims}
    return qdims, qshifts, proj
