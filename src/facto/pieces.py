"""Graded realizations, one degree piece at a time.

A graded k-vector space T with a degree-raising nilpotent operator x is the
direct sum of its degree pieces T_s, and x is a set of shift blocks
T_s -> T_{s+1}.  So the realization algorithms of `modules` (Jordan normal
forms and x-stable subspaces) run on one small piece at a time and never
build the ambient matrix of x.  The Jordan normal form is one ascending
sweep over the pieces by the elder rule of persistence: each shift block
is applied and eliminated once, and no power of x is formed.

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
    summand order) in the given coordinates of T_s.

    The pieces with x are a persistence module, and its chains are the
    bars, found by one sweep in ascending s with the elder rule.  Each live
    chain's last vector is pushed through the shift block into T_s, and
    the images are eliminated in birth order, elders first.  An image that
    depends on its elders' ends its chain: the same combination of the
    elders' vectors, alive in every degree the chain spans, is subtracted
    from its vectors, so that x kills its last one.  New chains start at
    the unit vectors off the pivots of the surviving images, which
    complete them to a basis of T_s.  So each shift block is applied and
    eliminated once, no power of x is formed, and the chains are a basis
    of every piece by construction.
    """
    chains, live = [], []  # [start degree, [x^i v for i = 0, 1, ...]], by birth
    for s, n in dims.items():
        x, k = shifts.get(s - 1), len(live)
        ech, survivors = linalg.Echelon(field), []
        for i, (start, seq) in enumerate(live if x is not None else ()):
            w = linalg.mat_vec(field, x, seq[-1])
            # w | e_i: the tail tracks w as a combination of the live images,
            # so a w that reduces to 0 leaves w + sum_j r_j w_j = 0 over the
            # elders j < i, and chain i ends at v + sum_j r_j v_j
            r = ech.reduce(w + linalg.unit_vector(field, k, i))
            if any(not field.is_zero(c) for c in r[:n]):
                ech.add(r)
                seq.append(w)
                survivors.append(live[i])
                continue
            for j, c in enumerate(r[n:n + i]):
                if not field.is_zero(c):
                    born, elder = live[j]
                    seq[:] = [[field.add(a, field.mul(c, b)) for a, b in zip(v, u)]
                              for v, u in zip(seq, elder[start - born:])]
        for q in range(n):
            if q not in ech.pivots:
                survivors.append([s, [linalg.unit_vector(field, n, q)]])
                chains.append(survivors[-1])
        live = survivors
    if any(len(seq) > d for _, seq in chains):
        raise RealizationError(NOT_NILPOTENT)
    chains.sort(key=lambda c: (len(c[1]), c[0]))
    cols = {s: [] for s in dims}
    for s, seq in chains:
        for i, v in enumerate(seq):
            cols[s + i].append(v)
    return ([(len(seq), s) for s, seq in chains],
            {s: [list(row) for row in zip(*vecs)] for s, vecs in cols.items()})


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

