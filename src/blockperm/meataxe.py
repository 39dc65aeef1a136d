"""Chop, spin and hom machinery for modules given by action matrices.

A module here is just (field, mats): a list of square int16 code matrices
acting on column vectors.  Whether the matrices come from group generators or
from an algebra basis makes no difference to anything below.  Submodules are
stored as row-matrices in reduced echelon form so that coordinates can be
read off pivot columns.

Irreducibility is certified with Norton's test: for theta in the enveloping
algebra and an irreducible factor f of its minimal polynomial on a vector,
with nullity(f(theta)) == deg f, the module is irreducible as soon as every
kernel vector spins to the whole space and one left-kernel vector spins the
transposed module.  Factors with larger nullity still witness reducibility
when a kernel vector spins to a proper submodule; otherwise we retry with a
fresh theta.
"""

import numpy as np

from . import gfq
from . import polys


# float64 temporaries of the batched products hold about this many
# entries at most (2 MiB); twice that raised the peak RSS of decomposing
# the 132-dim GF(7)S_7 module by 7 MiB, for no gain in time
CHUNK_ENTRIES = 1 << 18


def module_dim(mats):
    return mats[0].shape[0] if mats else 0


def matmul_rows(field, A, B):
    """A @ B over field, taking A in row blocks so that the float64 copy of
    each block and of its product stay near CHUNK_ENTRIES entries."""
    step = max(1, CHUNK_ENTRIES // max(A.shape[1], B.shape[1], 1))
    if A.shape[0] <= step:
        return field.matmul(A, B)
    return np.vstack([field.matmul(A[i:i + step], B)
                      for i in range(0, A.shape[0], step)])


def random_element(field, mats, rng):
    """A pseudo-random element of the enveloping algebra (plus identity)."""
    n = module_dim(mats)
    acc = np.zeros((n, n), dtype=np.int16)
    terms = int(rng.integers(2, 5))
    for _ in range(terms):
        w = mats[int(rng.integers(0, len(mats)))]
        for _ in range(int(rng.integers(0, 3))):
            w = field.matmul(w, mats[int(rng.integers(0, len(mats)))])
        c = int(rng.integers(0, field.q))
        acc = field.add(acc, field.mul(np.int16(c), w))
    c = int(rng.integers(0, field.q))
    if c:
        acc = field.add(acc, field.mul(np.int16(c),
                                       np.eye(n, dtype=np.int16)))
    return acc


def vector_annihilator(field, M, v):
    """Monic minimal polynomial of M on the vector v (a column)."""
    krylov = gfq.Echelon(field, track=M.shape[0] + 1)
    w = np.asarray(v, dtype=np.int16)
    while krylov.add(w):
        w = field.matmul(M, w[:, None])[:, 0]
    # the relation is sum c[i] M^i v == 0 with c == 1 at the top power
    return polys.monic(field, polys.normalize(krylov.relation))


def eval_poly_at_matrix(field, f, M):
    n = M.shape[0]
    acc = np.zeros((n, n), dtype=np.int16)
    for c in f[::-1]:
        acc = field.matmul(acc, M)
        if c:
            acc = field.add(acc, field.mul(np.int16(c),
                                           np.eye(n, dtype=np.int16)))
    return acc


def spin_rref(field, mats, seeds):
    """Invariant span of one or more seed row-vectors, returned in reduced
    echelon form: the spin's reduced copy, sorted by pivot."""
    spin = gfq.Spin(field, mats)
    for v in seeds:
        spin.seed(v)
    return spin.basis.rref()


def split_once(field, mats, rng, tries=60):
    """Return ('split', basis_rows, pivots) for a proper nonzero submodule,
    or ('irreducible', None, None) with a Norton certificate."""
    n = module_dim(mats)
    if n == 1:
        return ("irreducible", None, None)
    matsT = [M.T.copy() for M in mats]
    for t in range(tries):
        if t in (10, 30, 50):
            # fallback for homogeneous modules, where no factor ever has
            # nullity deg f: a singular nonzero endomorphism has an invariant
            # kernel, and one exists whenever such a module is reducible
            found = _singular_endo_split(field, mats, rng)
            if found is not None:
                return found
        theta = random_element(field, mats, rng)
        v = np.array(rng.integers(0, field.q, n), dtype=np.int16)
        if not v.any():
            continue
        g = vector_annihilator(field, theta, v)
        if polys.degree(g) < 1:
            continue
        for f, _m in polys.factor(field, g, seed=t):
            N = eval_poly_at_matrix(field, f, theta)
            ker = gfq.nullspace(field, N)
            if ker.shape[0] == 0:
                continue
            full = True
            for w in ker:
                B, piv = spin_rref(field, mats, w[None, :])
                if B.shape[0] < n:
                    return ("split", B, piv)
            if ker.shape[0] != polys.degree(f):
                continue  # inconclusive factor
            lker = gfq.nullspace(field, N.T)
            w = lker[0]
            B, _ = spin_rref(field, matsT, w[None, :])
            if B.shape[0] == n:
                return ("irreducible", None, None)
            sub = gfq.nullspace(field, B)
            R, piv = gfq.echelon(field, sub)
            if not 0 < R.shape[0] < n:
                raise gfq.CertificateError(
                    "transposed spin gave no proper submodule")
            return ("split", R, piv)
    raise RuntimeError("meataxe made no progress after %d tries" % tries)


def _singular_endo_split(field, mats, rng):
    n = module_dim(mats)
    E = hom_space(field, mats, mats)
    if len(E) <= 1:
        return None
    co = np.array([rng.integers(0, field.q, len(E)) for _ in range(200)],
                  dtype=np.int16)
    flat = np.array(E).reshape(len(E), n * n)
    combos = matmul_rows(field, co, flat).reshape(-1, n, n)
    for X in E + list(combos):
        ker = gfq.nullspace(field, X)
        if 0 < ker.shape[0] < n:
            return ("split", *gfq.echelon(field, ker))
    return None


def restrict_to_submodule(field, mats, basis, pivots):
    """Action matrices on a submodule given by RREF row basis."""
    out = []
    for M in mats:
        img = field.matmul(basis, M.T)  # rows: images of basis vectors
        coords = img[:, pivots]  # valid because basis is reduced
        # sanity in debug: basis rows must be invariant
        out.append(coords.T.copy())
    return out


def quotient_by_submodule(field, mats, basis, pivots):
    """Action matrices on the quotient; also returns the projection map
    (rows: images of ambient basis vectors in quotient coordinates)."""
    n = mats[0].shape[0] if mats else basis.shape[1]
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    # proj: v -> v[free] - v[pivots] @ basis[:, free]
    P = np.zeros((len(free), n), dtype=np.int16)
    for i, c in enumerate(free):
        P[i, c] = 1
    if pivots:
        P[:, pivots] = field.neg(basis[:, free].T)
    out = []
    for M in mats:
        out.append(field.matmul(P, M[:, free]))
    return out, P


def greedy_spin(field, mats):
    """The Spin of the whole module from greedy seeds: each seed is the
    first unit vector outside the span so far.  hom_space solves for the
    images of these seeds, so their order fixes the basis it returns,
    which End(M) and the simple labels in the reports depend on."""
    dm = module_dim(mats)
    spin = gfq.Spin(field, mats)
    while len(spin.raws) < dm:
        pivset = set(spin.basis.pivots)
        cand = np.zeros(dm, dtype=np.int16)
        cand[next(c for c in range(dm) if c not in pivset)] = 1
        spin.seed(cand)
    return spin


def seed_columns(spin):
    """The columns c of the unit vectors e_c that greedy_spin seeded."""
    return [int(np.argmax(v)) for v, tag in zip(spin.raws, spin.tree)
            if tag[0] == "seed"]


def hom_space(field, mats_m, mats_n, spin=None):
    """Basis of intertwiners X with X @ A_g == B_g @ X, as a list of
    (dim_n x dim_m) matrices.  spin, when given, is greedy_spin(field,
    mats_m), made already by the caller.

    Spins the source module from few generating vectors v_j; the unknowns
    are only the images u of the seeds, so the linear system stays small
    even when dim_m * dim_n is large.  Phi[j] (dim_n x U) gives X v_j =
    Phi[j] u.  For each generator g, every v_j that is not a spin-tree
    edge of g gives the constraint N_g Phi[j] - sum_k C_g[k, j] Phi[k] = 0,
    where A_g v_j = sum_k C_g[k, j] v_k.  These are assembled as a few large
    products, chunked so that no float64 temporary holds much more than
    CHUNK_ENTRIES entries, and folded into a running RREF whenever the
    pending rows outgrow that budget.  The RREF of the constraints, and so
    the nullspace read off it, does not depend on the order or grouping of
    the rows; the spin and seed order are fixed as below, so the returned
    basis is the same as when the constraints are solved in one piece.
    """
    dm = module_dim(mats_m)
    dn = module_dim(mats_n)
    if dm == 0 or dn == 0:
        return []
    if spin is None:
        spin = greedy_spin(field, mats_m)
    tags, nseeds = spin.tree, spin.nseeds
    tree_edges = {(t[1], t[2]) for t in tags if t[0] == "mul"}

    R = np.array(spin.raws, dtype=np.int16).T  # columns are the spin vectors
    Rinv = gfq.inverse(field, R)
    U = nseeds * dn
    Phi = np.zeros((dm, dn, U), dtype=np.int16)
    for j, tag in enumerate(tags):
        if tag[0] == "seed":
            s = tag[1]
            Phi[j, :, s * dn:(s + 1) * dn] = np.eye(dn, dtype=np.int16)
        else:
            _, g, parent = tag
            Phi[j] = field.matmul(mats_n[g], Phi[parent])
    PhiT = Phi.reshape(dm, dn * U).T  # row (a, i) holds Phi[k][a, i] over k
    step = max(1, CHUNK_ENTRIES // (dn * U))
    rref = np.zeros((0, U), dtype=np.int16)
    pending = []
    for g, M in enumerate(mats_m):
        # never empty: g labels fewer than dm tree edges
        J = [j for j in range(dm) if (g, j) not in tree_edges]
        C = field.matmul(Rinv, field.matmul(M, R))  # coords of A_g v_j
        # sum_k C[k, j] Phi[k] for every j in J, as rows (j, a, i)
        comb = matmul_rows(field, PhiT, C[:, J]).T.reshape(len(J), dn, U)
        for j0 in range(0, len(J), step):
            Jc = J[j0:j0 + step]
            block = field.sub(field.matmul(mats_n[g], Phi[Jc]),
                              comb[j0:j0 + step])
            pending.append(block.reshape(-1, U))
            if sum(b.shape[0] for b in pending) * U > CHUNK_ENTRIES:
                rref = gfq.echelon(field, np.vstack([rref] + pending))[0]
                pending = []
    sol = gfq.nullspace(field, np.vstack([rref] + pending))
    r = len(sol)
    # P[(j, a), t] = (Phi[j] sol[t])[a] = (X_t R)[a, j], so X_t = P_t Rinv
    P = matmul_rows(field, Phi.reshape(dm * dn, U), sol.T)
    P = P.reshape(dm, dn, r).transpose(2, 1, 0).reshape(r * dn, dm)
    return list(matmul_rows(field, P, Rinv).reshape(r, dn, dm))


def hom_basis(field, mats_m, maps, seeds=None):
    """The basis hom_space(field, mats_m, mats_n) returns, as an (r, dim_n,
    dim_m) stack, computed from an (s, dim_n, dim_m) stack of maps that
    spans Hom(mats_m, mats_n).  seeds, when given, are the seed_columns of
    greedy_spin(field, mats_m).

    hom_space solves for u = (X v_0, X v_1, ...), the images of its greedy
    seeds v_s = e_{c_s}, and returns the nullspace basis of its
    constraints: one map per free column c, with u[c] = 1 and u zero at
    the other free columns.  With the columns of u reversed that basis is
    in reduced echelon form, which the solution space determines alone.
    So the u of any spanning set, echeloned with reversed columns and read
    by ascending free column, gives the same maps, as combinations of the
    spanning ones.

    The seeds generate the module, so a map is fixed by its columns at
    them: X -> X[:, seeds] is one to one on Hom.  In the returned basis
    those columns are reduced echelon (reversed), and End(M) reads its
    structure constants off them (modules.endomorphism_algebra)."""
    maps = np.asarray(maps, dtype=np.int16)
    s, dn, dm = maps.shape
    if s == 0 or module_dim(mats_m) == 0:
        return maps[:0]
    if seeds is None:
        seeds = seed_columns(greedy_spin(field, mats_m))
    u = maps[:, :, seeds].transpose(0, 2, 1).reshape(s, -1)
    _R, _piv, T = gfq.echelon(field, u[:, ::-1], transform=True)
    flat = matmul_rows(field, T[::-1], maps.reshape(s, dn * dm))
    return flat.reshape(-1, dn, dm)


def check_intertwines(field, maps, mats_m, mats_n):
    """Raise CertificateError unless X A_g == B_g X for every map X of the
    (r, dim_n, dim_m) stack and every pair (A_g, B_g), checked on chunks of
    maps with two products per generator."""
    r, dn, dm = maps.shape
    step = max(1, CHUNK_ENTRIES // max(dn * dm, 1))
    for i in range(0, r, step):
        X = maps[i:i + step]
        for A, B in zip(mats_m, mats_n):
            left = field.matmul(X.reshape(-1, dm), A).reshape(X.shape)
            if not np.array_equal(left, field.matmul(B, X)):
                raise gfq.CertificateError("map is not a module homomorphism")


def fixed_points(field, mats):
    """Row basis of the common 1-eigenspace of all mats."""
    n = module_dim(mats)
    stacks = [field.sub(M, np.eye(n, dtype=np.int16)) for M in mats]
    if not stacks:
        return np.eye(n, dtype=np.int16)
    return gfq.nullspace(field, np.vstack(stacks))


def is_isomorphic_simple(field, mats_m, mats_n):
    if module_dim(mats_m) != module_dim(mats_n):
        return False
    return len(hom_space(field, mats_m, mats_n)) > 0


def iso_of_indecomposables(field, mats_m, mats_n):
    """For M indecomposable: the first invertible map of hom_space(M, N),
    an isomorphism, or None when M and N are not isomorphic.

    One hom space is enough.  If phi: M -> N is an isomorphism then
    Hom(M, N) = phi End(M), so the basis h_k = phi a_k for a basis a_k of
    End(M).  End(M) is local, and a basis of it cannot lie in its
    radical, a proper subspace; so some a_k is a unit and h_k is
    invertible.  If M and N are not isomorphic, no map between them is.
    """
    dm, dn = module_dim(mats_m), module_dim(mats_n)
    if dm != dn:
        return None
    for h in hom_space(field, mats_m, mats_n):
        if gfq.rank(field, h) == dn:
            return h
    return None


def composition_factors(field, mats, seed=0):
    """List of (simple_mats, multiplicity), grouped up to isomorphism,
    sorted by (dim, first occurrence)."""
    rng = np.random.default_rng(seed)
    simples = []

    def chop(mats_cur):
        n = module_dim(mats_cur)
        if n == 0:
            return
        kind, B, piv = split_once(field, mats_cur, rng)
        if kind == "irreducible":
            for i, (s, cnt) in enumerate(simples):
                # equal matrices are the same module: no hom space needed
                if all(np.array_equal(a, b) for a, b in zip(s, mats_cur)) \
                        or is_isomorphic_simple(field, s, mats_cur):
                    simples[i] = (s, cnt + 1)
                    return
            simples.append((mats_cur, 1))
            return
        chop(restrict_to_submodule(field, mats_cur, B, piv))
        quo, _ = quotient_by_submodule(field, mats_cur, B, piv)
        chop(quo)

    chop(mats)
    simples.sort(key=lambda t: module_dim(t[0]))
    return simples


def module_radical(field, mats, seed=0, simples=None):
    """RREF row basis of rad M: the joint kernel of all homs to simples."""
    if simples is None:
        simples = [s for s, _ in composition_factors(field, mats, seed)]
    return _hom_kernel(field, mats, simples)[:2]


def _hom_kernel(field, mats, simples):
    """(rows, pivots, dims): the RREF basis of the joint kernel of all homs
    from mats to the simples, and dim Hom(mats, S) for each simple S.  With
    no hom at all the basis is empty."""
    n = module_dim(mats)
    rows, dims = [], []
    for s in simples:
        homs = hom_space(field, mats, s)
        rows.extend(homs)
        dims.append(len(homs))
    if not rows:
        return np.zeros((0, n), dtype=np.int16), [], dims
    R, piv = gfq.echelon(field, gfq.nullspace(field, np.vstack(rows)))
    return R, piv, dims


def radical_series(field, mats, seed=0, simples=None, ends=None):
    """Descending chain M > rad M > rad^2 M > ... > 0 as row bases in the
    coordinates of M, plus the Loewy layer factor lists.

    Returns (layers, chain) where layers[i] lists (S, multiplicity) for
    the simples S in rad^i M / rad^(i+1) M, each S one of simples (the
    same matrices), in their order.  simples, when given, are the simples
    of composition_factors(field, mats, seed), one per isomorphism class,
    and ends, when given, dim End(S) for each of them.

    No layer is chopped.  The top of rad^i M is semisimple, so
    Hom(rad^i M, S) = Hom(rad^i M / rad^(i+1) M, S) = End(S)^m for the
    multiplicity m of S in the layer: m is dim Hom / dim End(S), and the
    homs are those whose joint kernel is rad^(i+1) M.  CertificateError
    is raised unless each dim Hom is a multiple of dim End(S) and the
    layer's sum of m dim S is its dimension.  A simple missing from
    simples is caught there too: the chain stops at a nonzero module
    with no hom to any simple, whose empty kernel basis leaves the sum 0.
    """
    n = module_dim(mats)
    if simples is None:
        simples = [s for s, _ in composition_factors(field, mats, seed)]
    if ends is None:
        ends = [len(hom_space(field, s, s)) for s in simples]
    chain = [np.eye(n, dtype=np.int16)]
    layers = []
    cur_mats = mats
    cur_basis = np.eye(n, dtype=np.int16)
    while module_dim(cur_mats) > 0:
        # every composition factor of rad^i M is one of M
        R, piv, dims = _hom_kernel(field, cur_mats, simples)
        if any(d % end for d, end in zip(dims, ends)):
            raise gfq.CertificateError("dim Hom(rad^i M, S) is not a "
                                       "multiple of dim End(S)")
        layer = [(s, d // end) for s, d, end in zip(simples, dims, ends) if d]
        if sum(module_dim(s) * m for s, m in layer) != \
                module_dim(cur_mats) - R.shape[0]:
            raise gfq.CertificateError("Loewy layer of the wrong dimension")
        layers.append(layer)
        if R.shape[0] == 0:
            break
        cur_basis = gfq.echelon(field, field.matmul(R, cur_basis))[0]
        chain.append(cur_basis)
        cur_mats = restrict_to_submodule(field, cur_mats, R, piv)
    return layers, chain
