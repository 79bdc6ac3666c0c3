"""References for the permutation-tensor algebra.

The dense integer model builds the explicit matrices that
`blocks.SymbolicOperator` never forms: V_sigma on (C^d)^N as a 0/1
permutation matrix, `np.kron` over the slots (cell (slot s, copy c) is
tensor factor s*N + c), partial traces by reshaping. An operator, given
by its terms {ordered key: {var: rational}} and evaluated at rational
coefficients (`matrix`), is returned as int64 numerators over one common
denominator, so every comparison made with it is exact.

The X_i basis (X_i = P{V^i x 1^(n-i)}, variable i of the two-copy
system) is handled through its Gram matrix and its closed-form dual.

Young's seminormal matrices are built here as `Fraction`s, by the
recursion over adjacent transpositions (`seminormal`) that the library's
integer tables (`symgroup._integer_tables`) are checked against; the
orthogonal form (floats) comes from them and the library's weights, and
the hook-content multiplicity from the partition's hook lengths.

`canonical` sorts an ordered key within each slot class, the form
`SlotSystem.keys` lists and `blocks.irrep_block` expects;
`arrangements` lists the ordered keys of one canonical key.

`block_z`, `z_at` and `block_gram` read a positivity block as Fractions:
z from its exact form (num, den), Z(x) summed with `zeros`/`mat_add`,
and U^T W U from `blocks._basis` (not from the block's own metric), the
forms the recorded block digests were taken in; `assert_exact_form`
checks that form itself.

The `terms_*` functions are the operator algebra over
{ordered key: {var: Fraction}} dicts, merged term by term (`_merge`):
sums, scalings, adjoints, left slotwise products, per-copy partial
traces, and trace pairings with a test (`terms_pairing`).
`expansion_terms` is phi = sum_v x_v E_{keys[v]} in that form, and
`operator_rows` the equality rows of `hierarchy.assemble_primal` taken
through it, the route the library replaced by gathers from one table.

`affine_solution` reads the integer RREF of `exactla.solve_integer_rows`
as the (particular, nullspace basis) Fractions of a rational system.

`rref_mod_p` is the row-major Gauss-Jordan pass mod p that
`exactla._rref_mod_p` runs on the transpose in panels: the same pivot
rule and row swaps, one outer-product update per pivot over every later
column, so the two must give the same residues, pivots and chosen rows.

`dict_row` reads a primitive integer equality row as a dict, the form
the recorded row digests were taken in, its constant under the
pseudo-variable `CONST`.

`lp_solve_fraction` is a two-phase Bland simplex over Fractions on a
`LinearProgram` (rows with any relation, any variable bounds), an LP
oracle that shares no code with `solve.BoxLp`.
`lex_max_optimum` reads the lexicographically largest minimizer of an LP
through it, one stage per variable, the point `solve.BoxLp` must return;
`to_linear_program` writes a dual witness problem's rank-one LP as a
`LinearProgram` over Fractions.

`ldlt_psd_witness_fraction` is the symmetric elimination over Fractions
that `exactla.ldlt_psd_witness` runs fraction-free: the same pivots, so
the two must give the same verdict and the same witness;
`quadratic_form` is v^T m v over Fractions.

`candidate_x`, `is_identity`, `ghz_state` and `five_qubit_code_state`
are fixtures that only the tests read: the AME candidate's coefficients,
the identity test of a permutation, and two state vectors whose
marginals `codes.verify_code_state` checks.

`check_existence_fraction` is the closed-form existence test over
Fractions, from full products with K and T (`spectrum_fraction`), that
`ame.check_existence` decides on integer numerators. `spectrum_rows` is
the integer kernel `ame._spectrum` replaced: the same numerators, from
dots with the even rows of K in full and with every row of T_d.

`is_pd` is the positive-definiteness test of one matrix (or stack) by
one Cholesky, and `newton_system` the barrier's gradient and Hessian
from the inverse of every S_b(y) (T_bi = S_b^{-1} F_bi), the form
`solve._newton_system` replaced by the Cholesky factors of S.

`compressed_general` is the arithmetic of `blocks._compressed` and
`IrrepBlock.y` for any k (lift onto lcm(dens), `_lowest_terms`, a
Cholesky factor of the float gram and its inverse), which a 1 x 1 block
must reproduce exactly. `basis_fractions` reads an invariant basis in
the list form of Fractions that `BASIS_DIGESTS` was recorded in.

`partition_tuples` lists every canonical partition tuple of a slot
system, the tuples `blocks._inventory` weighs by characters.
`reynolds`, `rank_one_witness_block` and `rank_one_primal_block` build
one k = 1 block per tuple from the tuple's whole Reynolds diagonal, a
Kronecker product of the table diagonals: the route that `blocks._lines`,
`_rank_one_witness` and `_rank_one_primal` replaced by one batched pass
per block set, so the two must agree field by field.

`block_per_vector` is the primal block builder that `blocks._block`
runs as one stacked slot product per group element: one basis vector,
one partial sum and one group element at a time, through the
single-vector `mode_product_vector`, with `float()` of every Fraction
(`to_float`) for y.
"""

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod

import numpy as np

from qmarginal import ame, blocks, errors, exactla, hierarchy, solve, symgroup as sg


@lru_cache(maxsize=None)
def perm_matrix(images: tuple[int, ...], d: int) -> np.ndarray:
    """V_sigma: the content of copy j moves to copy sigma(j), so V_a V_b = V_{a o b}."""
    n = len(images)
    out = np.zeros((d**n, d**n), dtype=np.int64)
    for digits in itertools.product(range(d), repeat=n):
        moved = [0] * n
        for j, x in enumerate(digits):
            moved[images[j]] = x
        out[np.ravel_multi_index(moved, (d,) * n), np.ravel_multi_index(digits, (d,) * n)] = 1
    return out


def canonical(system: blocks.SlotSystem, key) -> tuple[int, ...]:
    """The canonical form of an ordered key: its entries sorted within each slot class."""
    out = list(key)
    for cls in set(system.classes):
        idx = [i for i, c in enumerate(system.classes) if c == cls]
        for i, v in zip(idx, sorted(out[i] for i in idx)):
            out[i] = v
    return tuple(out)


def arrangements(system: blocks.SlotSystem, key) -> list[tuple[int, ...]]:
    """Distinct ordered tuples equivalent to the canonical key."""
    order = sorted(set(system.classes))
    per_class = []
    for cls in order:
        idx = [i for i, c in enumerate(system.classes) if c == cls]
        per_class.append(sorted(set(itertools.permutations([key[i] for i in idx]))))
    out = []
    for combo in itertools.product(*per_class):
        arr = [None] * system.slots
        for cls, vals in zip(order, combo):
            for i, v in zip([i for i, c in enumerate(system.classes) if c == cls], vals):
                arr[i] = v
        out.append(tuple(arr))
    return out


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_add(a, b, scale=Fraction(1)):
    return [[a[i][j] + scale * b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def block_z(blk) -> dict:
    """{variable: z as k x k Fractions}: a block's num / den, in its variable order."""
    return {v: [[Fraction(x, blk.den) for x in row] for row in m] for v, m in zip(blk.variables, blk.num.tolist())}


def z_at(blk, x) -> list:
    """Z(x) = sum_v x_v z_v of a block as k x k Fractions."""
    out = zeros(blk.k, blk.k)
    for v, m in block_z(blk).items():
        out = mat_add(out, m, Fraction(x[v]))
    return out


@lru_cache(maxsize=None)
def _gram(parts) -> tuple:
    _, _, dens, wden, gram = blocks._basis(parts)
    return tuple(tuple(Fraction(x, da * db * wden) for x, db in zip(row, dens)) for row, da in zip(gram.tolist(), dens))


def block_gram(blk) -> list:
    """U^T W U of a block's partition tuple as k x k Fractions, from `blocks._basis` (memoized)."""
    return [list(row) for row in _gram(tuple(p.parts for p in blk.partitions))]


def basis_fractions(basis) -> tuple:
    """`symgroup.invariant_basis_exact`'s (basis, dens, weights, wden) in its list form, the form the
    recorded basis digests were taken in: ([(primitive integer list, pivot entry)], [weight as Fraction])."""
    rows, dens, weights, wden = basis
    return [(v, den) for v, den in zip(rows.tolist(), dens)], [Fraction(w, wden) for w in weights.tolist()]


def assert_exact_form(blk) -> None:
    """num is a (len(variables), k, k) integer stack, int64 exactly when it fits, over den > 0 in lowest terms."""
    entries = blk.num.ravel().tolist()
    assert blk.num.shape == blk.y.shape == (len(blk.variables), blk.k, blk.k)
    assert blk.num.dtype == exactla.int_dtype(max(map(abs, entries), default=0))
    assert blk.den > 0 and gcd(blk.den, *entries) == 1


@lru_cache(maxsize=None)
def _key_rows(system: blocks.SlotSystem, key) -> np.ndarray:
    """Row of the one nonzero entry in each column of V_{key_0} x ... x V_{key_{n-1}},
    read off the `np.kron` product (key entries index the copy group)."""
    out = np.ones((1, 1), dtype=np.int64)
    for s, k in enumerate(key):
        out = np.kron(out, perm_matrix(system.group.elements[k].images, system.dims[s]))
    assert (out.sum(axis=0) == 1).all()
    return out.argmax(axis=0)


def key_matrix(system: blocks.SlotSystem, key) -> np.ndarray:
    rows = _key_rows(system, tuple(key))
    out = np.zeros((len(rows), len(rows)), dtype=np.int64)
    out[rows, np.arange(len(rows))] = 1
    return out


def matrix(system: blocks.SlotSystem, terms: dict, x) -> tuple[np.ndarray, int]:
    """(numerators, denominator) of the operator with terms {ordered key: {var: rational}}
    at coefficients x (var -> rational), on all N copies."""
    coeffs = {key: sum((c * Fraction(x.get(v, 0)) for v, c in lin.items()), start=Fraction(0)) for key, lin in terms.items()}
    den = lcm(*(c.denominator for c in coeffs.values()))
    side = prod(d**system.copies for d in system.dims)
    out = np.zeros((side, side), dtype=np.int64)
    for key, c in coeffs.items():
        if c:
            out[_key_rows(system, key), np.arange(side)] += int(c * den)
    return out, den


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer matrices, through float64 while every partial sum stays below 2^53."""
    assert float(np.abs(a).max(initial=0)) * float(np.abs(b).max(initial=0)) * a.shape[1] < 2**53
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def ptrace(m: np.ndarray, system: blocks.SlotSystem, cells) -> np.ndarray:
    """Partial trace over `cells` ((slot, copy) pairs), tensored with the identity on them."""
    dims = [d for d in system.dims for _ in range(system.copies)]
    n = len(dims)
    traced = {s * system.copies + c for s, c in cells}
    kept = [p for p in range(n) if p not in traced]
    cols = [p if p in traced else n + p for p in range(n)]
    reduced = np.einsum(m.reshape(dims + dims), list(range(n)) + cols, kept + [n + p for p in kept])
    operands = [reduced, kept + [n + p for p in kept]]
    for p in sorted(traced):
        operands += [np.eye(dims[p], dtype=np.int64), [p, n + p]]
    return np.einsum(*operands, list(range(2 * n))).reshape(m.shape)


def candidate_x(n: int, d: int) -> list[Fraction]:
    """Coefficients x_0..x_n of the unique symmetrized two-party extension, as a list."""
    return list(ame.candidate(n, d).x)


def candidate_matrix(n: int, d: int) -> tuple[np.ndarray, int]:
    """The AME candidate sum_i x_i X_i as a dense matrix on two copies."""
    system = blocks.ame_system(n, d, 2)
    return matrix(system, expansion_terms(system), dict(enumerate(candidate_x(n, d))))


def candidate_spectrum(n: int, d: int) -> list[tuple[Fraction, int]]:
    """(eigenvalue, multiplicity) pairs of the candidate, from the closed form:
    the eigenspace with i antisymmetric slots has dimension
    binom(n,i) (d(d+1)/2)^{n-i} (d(d-1)/2)^i."""
    sym, anti = d * (d + 1) // 2, d * (d - 1) // 2
    out: dict = {}
    for i, p in enumerate(ame.eigenvalues_p(n, d)):
        mult = ame.binom(n, i) * sym ** (n - i) * anti**i
        if mult:
            out[p] = out.get(p, 0) + mult
    return sorted(out.items())


def spectrum_fraction(n: int, d: int) -> tuple[list[Fraction], list[Fraction]]:
    """(p, q) as Fractions, from the full products with K and T: no row or
    column is skipped by parity, and T is formed from `comb` directly."""
    h = n // 2
    den = d ** (h + n) * (d * d - 1) ** n
    kraw = ame.krawtchouk(n)
    a = [d ** (h - min(l, n - l)) for l in range(n + 1)]
    p = [sum(k * v for k, v in zip(row, a)) * (d + 1) ** j * (d - 1) ** (n - j) for j, row in enumerate(kraw)]
    x = [sum(k * v for k, v in zip(row, p)) for row in kraw]
    q = [sum(comb(n - j, l) * d**l * x[l] for l in range(n + 1)) for j in range(n + 1)]
    return [Fraction(v, den) for v in p], [Fraction(v, den << n) for v in q]


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows binom(n-j, l), l = 0..n-j, of T_d without its powers of d."""
    return tuple(tuple(comb(n - j, l) for l in range(n - j + 1)) for j in range(n + 1))


def _dot(row, v) -> int:
    return sum(map(operator.mul, row, v))


def spectrum_rows(n: int, d: int) -> tuple[list[int], list[int], list[int]]:
    """(p, x, q) numerators as `ame._spectrum` returns them, from row dots:
    p_j from the whole row K[j] (even j), x from the even columns of rows
    0..n//2 mirrored, and q_j as the dot of row j of T_d with d^l x_l."""
    h = n // 2
    kraw = ame.krawtchouk(n)
    a = [d ** (h - min(l, n - l)) for l in range(n + 1)]
    p = [_dot(row, a) * (d + 1) ** j * (d - 1) ** (n - j) if j % 2 == 0 else 0 for j, row in enumerate(kraw)]
    x = [_dot(row[::2], p[::2]) for row in kraw[: h + 1]]
    x += x[(n - 1) // 2 :: -1]
    dx = [v * d**l for l, v in enumerate(x)]
    return p, x, [_dot(row, dx) for row in _binomials(n)]


def check_existence_fraction(n: int, d: int) -> ame.FeasibilityReport:
    """The existence test over Fractions: every p_i and q_i compared as a
    Fraction, the first strict minimum among the negatives reported."""
    p, q = spectrum_fraction(n, d)
    worst = None  # (value, kind, index)
    for kind, values in (("positivity", p), ("ppt", q)):
        for i, v in enumerate(values):
            if v < 0 and (worst is None or v < worst[0]):
                worst = (v, kind, i)
    if worst is None:
        return ame.FeasibilityReport(n, d, "inconclusive")
    value, kind, i = worst
    return ame.FeasibilityReport(n, d, "infeasible", f"{kind}({i})", value)


def xi_gram(n: int, d: int) -> list[list[Fraction]]:
    """G[i][j] = Tr(X_i X_j): X_i sums V_K over the arrangements K of key i, each
    pairing with X_j as row i of `SymbolicOperator.gram` does."""
    system = blocks.ame_system(n, d, 2)
    gram = blocks.SymbolicOperator(system).gram.tolist()
    return [[Fraction(len(arrangements(system, key)) * x) for x in row] for key, row in zip(system.keys(), gram)]


def xi_coordinates(n: int, d: int, overlaps) -> list[Fraction]:
    """The x with Tr(X_i sum_j x_j X_j) = overlaps[i], solved exactly."""
    rows = [exactla.primitive([*row, Fraction(v)]) for row, v in zip(xi_gram(n, d), overlaps)]
    particular, free = affine_solution(exactla.solve_integer_rows(rows, n + 1), n + 1)
    assert not free
    return particular


def rref_mod_p(a, p) -> tuple[np.ndarray, list, list]:
    """(RREF mod p, pivot columns, original indices of the rows chosen as pivots) of the integer rows a.

    One Gauss-Jordan pass in int64 numpy over all rows, columns left to
    right but for those zero mod p; the pivot of a column is the first
    unchosen row with a nonzero residue there, swapped into place. Each
    pivot updates the rows with a nonzero multiplier over every column
    from its own on; the whole array is reduced mod p every 256 pivots.
    """
    m = (a % p).astype(np.int64)
    order = list(range(len(m)))
    pivots = []
    for c in np.flatnonzero(m.any(axis=0)).tolist():
        r = len(pivots)
        if r == len(m):
            break
        col = m[:, c] % p
        hit = col[r:].nonzero()[0]
        if not hit.size:
            continue
        i = r + int(hit[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            order[r], order[i] = order[i], order[r]
            col[r], col[i] = col[i], col[r]
        pivot = m[r, c:] % p * pow(int(col[r]), -1, p) % p
        col[r] = 0
        update = col.nonzero()[0]
        m[update, c:] -= np.multiply.outer(col[update], pivot)
        m[r, c:] = pivot
        pivots.append(c)
        if len(pivots) % 256 == 0:
            m %= p
    return m[: len(pivots)] % p, pivots, order[: len(pivots)]


def affine_solution(ech, ncols):
    """(particular, nullspace basis) as Fractions, read from the integer RREF of
    `exactla.solve_integer_rows` (None, an inconsistent system, stays None).

    Entry by entry: the particular solution is rhs / den on the pivot
    columns and 0 elsewhere, and each free column fc gives the vector with
    1 at fc and -row[fc] / den on the pivot columns.
    """
    if ech is None:
        return None
    reduced = ech.rows.tolist()
    particular = [F0] * ncols
    for row, c in zip(reduced, ech.pivots):
        particular[c] = Fraction(row[ncols], ech.den)
    basis = []
    for fc in sorted(set(range(ncols)) - set(ech.pivots)):
        v = [F0] * ncols
        v[fc] = F1
        for row, c in zip(reduced, ech.pivots):
            v[c] = Fraction(-row[fc], ech.den)
        basis.append(v)
    return particular, basis


def dual_coefficients(i: int, n: int, d: int) -> list[Fraction]:
    """X_j coordinates of the dual element with Tr(dual_i X_j) = delta_ij.

    Expansion of P{(1 - V/d)^(n-i) x (V - 1/d)^i} / (binom(n,i) (d^2-1)^n).
    Per slot, Tr[(1 - V/d) 1] = d^2 - 1 and Tr[(1 - V/d) V] = 0, and dually
    for (V - 1/d), so the pairing with X_j singles out j = i.
    """
    a = n - i  # slots carrying (1 - V/d)
    denom = comb(n, i) * Fraction(d * d - 1) ** n
    out = []
    for j in range(n + 1):
        terms = range(max(0, a + j - n), min(a, j) + 1)
        beta = sum((comb(j, m) * comb(n - j, a - m) * Fraction(-1, d) ** (n - a - j + 2 * m) for m in terms), start=Fraction(0))
        out.append(beta / denom)
    return out


# ---------------------------------------------------------------------------
# dict operator arithmetic


def _merge(terms: dict, key, lin: dict, scale=Fraction(1)) -> None:
    """Add scale * lin to terms[key], dropping zero coefficients and empty keys."""
    dst = terms.setdefault(tuple(int(k) for k in key), {})
    for v, c in lin.items():
        c2 = dst.get(v, Fraction(0)) + scale * c
        if c2:
            dst[v] = c2
        else:
            dst.pop(v, None)
    if not dst:
        terms.pop(tuple(int(k) for k in key), None)


def expansion_terms(system: blocks.SlotSystem) -> dict:
    """phi = sum_v x_v E_{keys[v]} as terms: every arrangement of keys[v] carries x_v."""
    return {arr: {v: Fraction(1)} for v, key in enumerate(system.keys()) for arr in arrangements(system, key)}


def terms_pairing(system: blocks.SlotSystem, terms: dict, test) -> dict:
    """Tr(V_test A) per variable, A given by its terms, a traced cell carrying the identity:
    each term weighs prod_s dims[s]^#cycles(test_s key_s). Summed in integers over
    the lcm of the coefficients' denominators."""
    cycles = system.group.product_cycles.tolist()
    weights = [[d**e for e in cycles[t]] for d, t in zip(system.dims, test)]  # per slot, by key entry
    den = lcm(*(c.denominator for lin in terms.values() for c in lin.values()))
    out: dict = {}
    for key, lin in terms.items():
        w = prod(row[k] for row, k in zip(weights, key))
        for v, c in lin.items():
            out[v] = out.get(v, 0) + w * c.numerator * (den // c.denominator)
    return {v: Fraction(x, den) for v, x in out.items()}


def operator_rows(spec, copies: int) -> list[list[int]]:
    """The equality rows of `hierarchy.assemble_primal` through the operator algebra over terms.

    Rows, in order: (Tr phi | 1); (Tr(V_t A) | 0) for A = phi - phi^dagger,
    then V_pi phi - phi for pi = (0 1) and the full cycle on every slot, at
    every key t; and for A = R - 1_M / dim M (x) Tr_M R, R the partial trace
    of copy 0 of the slots outside the representative subset S, at every
    test fixing copy 0 on those slots. Each row is made a primitive
    integer row with a positive lead; zero rows are dropped and the first
    of equal rows is kept.
    """
    system = spec.slot_system(copies)
    kept, mixed = spec.representative()
    g, keys = system.group, system.keys()
    phi = expansion_terms(system)
    traced = [s for s in range(system.slots) if s not in kept]
    marginal = terms_ptrace(system, phi, traced, 0)
    target = terms_scale(terms_ptrace(system, marginal, mixed, 0), Fraction(1, prod(system.dims[s] for s in mixed)))
    fixing = [e for e, p in enumerate(g.elements) if p.fixes(0)]
    tests = list(itertools.product(*[fixing if s in traced else range(len(g.elements)) for s in range(system.slots)]))
    families = [(phi, [(g.identity,) * system.slots], 1), (terms_sub(phi, terms_adjoint(system, phi)), keys, 0)]
    for gen in (sg.Permutation.transposition(copies, 0, 1), sg.Permutation.full_cycle(copies)):
        moved = terms_slotwise_multiply(system, phi, (g.index[gen.images],) * system.slots)
        families.append((terms_sub(moved, phi), keys, 0))
    families.append((terms_sub(marginal, target), tests, 0))
    out, seen = [], set()
    for terms, family_tests, rhs in families:
        for t in family_tests:
            pairing = terms_pairing(system, terms, t)
            row = exactla.primitive([pairing.get(v, F0) for v in range(len(keys))] + [Fraction(rhs)])
            lead = next((x for x in row[:-1] if x), None)
            if lead is None:
                assert not row[-1], "inconsistent constant row"
                continue
            row = tuple(x if lead > 0 else -x for x in row)
            if row not in seen:
                seen.add(row)
                out.append(list(row))
    return out


CONST = -1  # pseudo-variable index of the constant term in a dict row


def dict_row(p, nvars: int) -> dict:
    """Integer row p as a dict: CONST -> -p_b / p_lead (when nonzero) first,
    then each variable v with p_v != 0, ascending, -> p_v / p_lead."""
    lead = next(x for x in p if x)
    row = {CONST: Fraction(-p[nvars], lead)} if p[nvars] else {}
    row.update((v, Fraction(x, lead)) for v, x in enumerate(p[:nvars]) if x)
    return row


def terms_sub(a: dict, b: dict) -> dict:
    out = {k: dict(v) for k, v in a.items()}
    for k, lin in b.items():
        _merge(out, k, lin, scale=Fraction(-1))
    return out


def terms_scale(a: dict, s) -> dict:
    out: dict = {}
    for k, lin in a.items():
        _merge(out, k, lin, scale=Fraction(s))
    return out


def terms_slotwise_multiply(system: blocks.SlotSystem, a: dict, taus) -> dict:
    g = system.group
    out: dict = {}
    for key, lin in a.items():
        _merge(out, tuple(g.mul[t][k] for t, k in zip(taus, key)), lin)
    return out


def terms_adjoint(system: blocks.SlotSystem, a: dict) -> dict:
    out: dict = {}
    for key, lin in a.items():
        _merge(out, tuple(system.group.inv[k] for k in key), lin)
    return out


def terms_ptrace(system: blocks.SlotSystem, a: dict, slots, copy: int) -> dict:
    """Per term: a slot whose element fixes the copy gives a factor dims[s], else the copy leaves its cycle."""
    g = system.group
    out: dict = {}
    for key, lin in a.items():
        nk, factor = list(key), Fraction(1)
        for s in slots:
            element = g.elements[key[s]]
            if element.fixes(copy):
                factor *= system.dims[s]
            else:
                images = list(element.images)
                pre = images.index(copy)
                images[pre], images[copy] = images[copy], copy
                nk[s] = g.index[tuple(images)]
        _merge(out, tuple(nk), lin, scale=factor)
    return out


def seminormal(lam, perm) -> tuple:
    """Young's seminormal matrix of perm in the irrep lam, exact (`Fraction` rows)."""
    return _seminormal(sg._as_parts(lam), perm.images)


@lru_cache(maxsize=None)
def _seminormal(parts, images) -> tuple:
    """The `Fraction` recursion: perm = s_k o rest, rest one adjacent transposition shorter,
    and S(s_k) (`_Rep.generators`) has at most two nonzeros per row."""
    rep, perm = sg._rep(parts), sg.Permutation(images)
    ks = perm.adjacent_factorization()
    if not ks:
        return tuple(tuple(Fraction(int(i == j)) for j in range(rep.dim)) for i in range(rep.dim))
    k = ks[-1]
    inner = _seminormal(parts, sg.Permutation.transposition(rep.n, k, k + 1).compose(perm).images)
    rows = [[(l, x) for l, x in enumerate(row) if x] for row in rep.generators[k]]
    return tuple(tuple(sum(x * inner[l][j] for l, x in row) for j in range(rep.dim)) for row in rows)


def orthogonal_form(lam, perm) -> np.ndarray:
    """Young's orthogonal form W^1/2 S(perm) W^-1/2, with W the orthogonalization weights."""
    rep = sg._rep(sg._as_parts(lam))
    sq = np.sqrt([float(w) for w in rep.weights])
    return sq[:, None] * np.array(seminormal(lam, perm), dtype=float) / sq[None, :]


def gl_multiplicity(lam, d: int) -> int:
    """Multiplicity of lam in the permutation action on (C^d)^N: prod over cells of (d + content) / hook."""
    num = den = 1
    for i, row in enumerate(sg.Partition(sg._as_parts(lam)).hooks()):
        for j, hook in enumerate(row):
            num *= d + j - i
            den *= hook
    assert num % den == 0
    return num // den


F0 = Fraction(0)
F1 = Fraction(1)


@dataclass
class LinearProgram:
    """minimize c.x subject to rows (coeffs, rel, rhs) and variable bounds."""

    c: list
    rows: list = field(default_factory=list)
    bounds: list | None = None  # per-variable (lo, hi), None entries = unbounded

    @property
    def nvars(self) -> int:
        return len(self.c)

    def add_row(self, coeffs, rel: str, rhs):
        assert rel in ("<=", "=", ">=") and len(coeffs) == self.nvars
        self.rows.append(([Fraction(v) for v in coeffs], rel, Fraction(rhs)))


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: list | None = None


def _fraction_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    prow = tableau[row]
    for i in range(len(tableau)):
        if i != row and tableau[i][col]:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
    if basis is not None:
        basis[row] = col


def _fraction_simplex(tableau, basis, costs):
    """Minimize costs.x on a canonical tableau (rhs >= 0, identity basis).

    Bland's rule throughout, so termination is guaranteed. The objective
    row is carried as the last tableau row.
    """
    m = len(tableau)
    n = len(tableau[0]) - 1 if m else len(costs)
    obj = list(costs) + [F0]
    for i, b in enumerate(basis):
        if obj[b]:
            f = obj[b]
            obj = [a - f * t for a, t in zip(obj, tableau[i])]
    while True:
        col = next((j for j in range(n) if obj[j] < 0), None)
        if col is None:
            x = [F0] * n
            for i, b in enumerate(basis):
                x[b] = tableau[i][n]
            return "optimal", x, -obj[n], obj
        best = None
        for i in range(m):
            if tableau[i][col] > 0:
                ratio = tableau[i][n] / tableau[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return "unbounded", None, None, obj
        _fraction_pivot(tableau, basis, best[1], col)
        f = obj[col]
        if f:
            obj = [a - f * b for a, b in zip(obj, tableau[best[1]])]


def lp_solve_fraction(lp: LinearProgram) -> LpResult:
    """Exact optimum of a linear program: a two-phase Bland simplex over Fractions."""
    nv = lp.nvars
    bounds = lp.bounds if lp.bounds is not None else [(None, None)] * nv
    if len(bounds) != nv:
        raise errors.InvalidInputError("bounds length mismatch")
    for coeffs, _, _ in lp.rows:
        if len(coeffs) != nv:
            raise errors.InvalidInputError("row length mismatch")

    # substitute every variable by nonnegative ones:
    #   lo <= x       -> x = lo + u
    #   x <= hi (only)-> x = hi - u
    #   free          -> x = u - v
    # upper bounds with a lower bound become extra rows.
    subs = []  # per variable: ("lo", lo, col) | ("hi", hi, col) | ("free", col_pos, col_neg)
    extra_rows = []
    ncols = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            subs.append(("lo", Fraction(lo), ncols))
            ncols += 1
            if hi is not None:
                row = [F0] * nv
                row[j] = F1
                extra_rows.append((row, "<=", Fraction(hi)))
        elif hi is not None:
            subs.append(("hi", Fraction(hi), ncols))
            ncols += 1
        else:
            subs.append(("free", ncols, ncols + 1))
            ncols += 2

    def translate(coeffs, rhs):
        out = [F0] * ncols
        r = Fraction(rhs)
        for j, cj in enumerate(coeffs):
            if not cj:
                continue
            kind = subs[j]
            if kind[0] == "lo":
                out[kind[2]] += cj
                r -= cj * kind[1]
            elif kind[0] == "hi":
                out[kind[2]] -= cj
                r -= cj * kind[1]
            else:
                out[kind[1]] += cj
                out[kind[2]] -= cj
        return out, r

    rows = []
    for coeffs, rel, rhs in list(lp.rows) + extra_rows:
        row, r = translate(coeffs, rhs)
        if r < 0:
            row = [-v for v in row]
            r = -r
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((row, rel, r))

    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    nart = len(rows)
    total = ncols + nslack + nart
    tableau = []
    basis = []
    si = ncols
    ai = ncols + nslack
    art_cols = set(range(ai, ai + nart))
    for row, rel, r in rows:
        line = list(row) + [F0] * (nslack + nart) + [r]
        if rel == "<=":
            line[si] = F1
            si += 1
        elif rel == ">=":
            line[si] = -F1
            si += 1
        line[ai] = F1
        basis.append(ai)
        ai += 1
        tableau.append(line)

    # phase 1: minimize the artificial total
    phase1 = [F0] * total
    for j in art_cols:
        phase1[j] = F1
    status, _, value, _ = _fraction_simplex(tableau, basis, phase1)
    if status != "optimal" or value > 0:
        return LpResult("infeasible")
    # drive leftover artificials out of the basis
    for i in range(len(basis)):
        if basis[i] in art_cols:
            col = next((j for j in range(ncols + nslack) if tableau[i][j]), None)
            if col is not None:
                _fraction_pivot(tableau, basis, i, col)
    keep = [i for i in range(len(basis)) if basis[i] not in art_cols]
    tableau = [
        [tableau[i][j] for j in range(ncols + nslack)] + [tableau[i][-1]] for i in keep
    ]
    basis = [basis[i] for i in keep]

    phase2 = [F0] * (ncols + nslack)
    for j, cj in enumerate(lp.c):
        if not cj:
            continue
        kind = subs[j]
        if kind[0] == "lo":
            phase2[kind[2]] += Fraction(cj)
        elif kind[0] == "hi":
            phase2[kind[2]] -= Fraction(cj)
        else:
            phase2[kind[1]] += Fraction(cj)
            phase2[kind[2]] -= Fraction(cj)
    status, u, value, _ = _fraction_simplex(tableau, basis, phase2)
    if status == "unbounded":
        return LpResult("unbounded")

    x = [F0] * nv
    offset = F0
    for j, (lo, hi) in enumerate(bounds):
        kind = subs[j]
        cj = Fraction(lp.c[j])
        if kind[0] == "lo":
            x[j] = kind[1] + u[kind[2]]
            offset += cj * kind[1]
        elif kind[0] == "hi":
            x[j] = kind[1] - u[kind[2]]
            offset += cj * kind[1]
        else:
            x[j] = u[kind[1]] - u[kind[2]]
    return LpResult("optimal", value + offset, x)


def to_linear_program(dual):
    """The rank-one LP of a `hierarchy.DualWitness` over Fractions: every w_l in [-1, 1], then z(w) >= 0 per k = 1 block.

    Every block with k = 1 is one row with exact rational data, its
    num[:, 0, 0] folded over its den, in block order; the k > 1 blocks
    are left out.
    """
    lp = LinearProgram(c=list(dual.objective), bounds=[(-F1, F1)] * len(dual.objective))
    for blk in dual.rank_one:
        lp.add_row([Fraction(x, blk.den) for x in hierarchy.fold(blk.num[:, 0, 0].tolist(), dual.n)], ">=", F0)
    return lp


def lex_max_optimum(lp):
    """(min c.x, x) of a bounded feasible LP, x the lexicographically largest minimizer.

    Minimize c.x, then maximize x_0, x_1, ... in turn, each stage one
    `lp_solve_fraction` with the earlier values fixed by equality rows.
    """
    fixed = LinearProgram(c=list(lp.c), rows=list(lp.rows), bounds=lp.bounds)
    value = lp_solve_fraction(fixed).value
    fixed.add_row(lp.c, "=", value)
    x = []
    for l in range(lp.nvars):
        unit = [F1 if j == l else F0 for j in range(lp.nvars)]
        x.append(-lp_solve_fraction(LinearProgram(c=[-v for v in unit], rows=list(fixed.rows), bounds=lp.bounds)).value)
        fixed.add_row(unit, "=", x[-1])
    return value, x


def ldlt_psd_witness_fraction(m):
    """(True, None) when the symmetric rational matrix m is PSD, else (False, v) with v^T m v < 0.

    Symmetric elimination with diagonal pivots: the first negative
    diagonal is the witness, else the first positive one is the pivot;
    on an all-zero diagonal a nonzero off-diagonal entry gives a 2x2
    indefinite witness. Witnesses map back through the eliminations.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    steps = []  # (pivot_index, {row: multiplier})
    active = list(range(n))
    while active:
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            v = [Fraction(0)] * n
            v[neg] = Fraction(1)
            return False, _undo_fraction_elimination(v, steps)
        piv = next((i for i in active if a[i][i] > 0), None)
        if piv is None:
            for i in active:
                for j in active:
                    if i != j and a[i][j]:
                        v = [Fraction(0)] * n
                        v[i] = Fraction(1)
                        v[j] = Fraction(-1) if a[i][j] > 0 else Fraction(1)
                        return False, _undo_fraction_elimination(v, steps)
            return True, None
        mults = {}
        for i in active:
            if i != piv and a[i][piv]:
                f = a[i][piv] / a[piv][piv]
                mults[i] = f
                for j in active:
                    if a[piv][j]:
                        a[i][j] -= f * a[piv][j]
        steps.append((piv, mults))
        active.remove(piv)
    return True, None


def _undo_fraction_elimination(v, steps):
    # row_i -= f row_piv on both sides is the congruence a -> L a L^T with
    # L = I - f E_{i,piv}, so a witness maps back through L^T
    out = list(v)
    for piv, mults in reversed(steps):
        for i, f in mults.items():
            out[piv] -= f * out[i]
    return out


def compressed_general(dens, wden, gram, scale, z) -> tuple:
    """(num, den, y) of a block by the arithmetic of `blocks._compressed` for any k:
    z lifted onto lcm(dens)^2 wden scale and put in lowest terms, y = C^-1 z C^-T
    with C the LAPACK Cholesky factor of the float gram."""
    common = lcm(*dens)
    lift = [common // x for x in dens]
    dtype = exactla.int_dtype(exactla.array_max_abs(z) * max(lift) ** 2)
    num, den = blocks._lowest_terms(z.astype(dtype) * np.array([[a * b for b in lift] for a in lift], dtype=dtype), common**2 * wden * scale)
    linv = np.linalg.inv(np.linalg.cholesky(blocks._floats(gram, [[da * db * wden for db in dens] for da in dens])))
    return num, den, linv @ blocks._floats(num, den) @ linv.T


def partition_tuples(system: blocks.SlotSystem) -> list[tuple[sg.Partition, ...]]:
    """Canonical partition tuples with nonzero multiplicity in every slot: one multiset of partitions per
    class, of at most the class's dimension of rows, in `multiset_tuples` order."""
    parts_all = sg.enumerate_partitions(system.copies, system.copies)
    return blocks.multiset_tuples([(len(slots), [p for p in parts_all if len(p) <= system.dims[slots[0]]]) for slots in blocks.class_slots(system.classes)])


def reynolds(parts) -> tuple:
    """(d, a, b, gram) of a tuple whose invariant subspace is one line, per tuple: its whole Reynolds
    diagonal d, w_p / d_p = a / b with p the last j where d_j != 0, and gram = [[a N! prod_s scale_s]].

    d_j = sum_sigma prod_s matrices_s[sigma][j_s, j_s] is one sum of Kronecker products of the table
    diagonals, read through `blocks._integer_tables`, int64 when N! times the product of the largest
    diagonal entries fits, else Python ints; Tr P = 1 is checked exactly, and w_p is a product of the
    `Fraction` weights. This is the per-tuple route `blocks._lines` replaced by a greedy descent over a batch.
    """
    tables = {q: blocks._integer_tables(q) for q in set(parts)}
    order, scale = len(tables[parts[0]].matrices), prod(tables[q].scale for q in parts)
    diagonals = {q: t.matrices.diagonal(axis1=1, axis2=2) for q, t in tables.items()}  # element, index
    big = {q: exactla.array_max_abs(x) for q, x in diagonals.items()}
    dtype = exactla.int_dtype(order * prod(big[q] for q in parts))
    diagonals = {q: x.astype(dtype) for q, x in diagonals.items()}
    acc = diagonals[parts[0]]
    for q in parts[1:]:
        acc = (acc[:, :, None] * diagonals[q][:, None, :]).reshape(order, -1)
    d = acc.sum(axis=0).tolist()
    if sum(d) != order * scale:
        raise errors.InternalConsistencyError(f"the Reynolds trace of {parts} is not 1")
    p = max(j for j, x in enumerate(d) if x)
    w = prod(sg._rep(q).weights[i] for q, i in zip(parts, np.unravel_index(p, [diagonals[q].shape[1] for q in parts])))
    return d, w.numerator, w.denominator * d[p], np.array([[w.numerator * order * scale]], dtype=object)


def rank_one_witness_block(parts) -> blocks.IrrepBlock:
    """The witness block of one tuple whose invariant subspace is one line, from its whole Reynolds
    diagonal (`reynolds`): z_l = (w_p / d_p) sum_j d_j K[m(j)][l], one Python sum per sign class m."""
    n = len(parts)
    m = np.zeros(1, dtype=np.intp)
    for q in parts:
        rep = sg._rep(q)
        m = (m[:, None] + np.array([rep.generators[0][i][i] < 0 for i in range(rep.dim)], dtype=np.intp)).ravel()
    d, a, b, gram = reynolds(parts)
    per_m = [0] * (n + 1)
    for x, j in zip(d, m.tolist()):
        per_m[j] += x
    z = [[[a * sum(row[l] * x for row, x in zip(ame.krawtchouk(n), per_m))]] for l in range(n + 1)]
    return blocks._compressed(parts, [1], b, gram, 1, range(n + 1), np.array(z, dtype=object))


def rank_one_primal_block(parts, classes) -> blocks.IrrepBlock:
    """The primal block of one tuple whose invariant subspace is one line, from characters, per tuple:
    z_K = (w_p / d_p) sum_sigma sum_arrangements prod_s t_s(sigma g_s), one `blocks._expand` table per
    slot class over the N! rows sigma, int64 when N! times the product over slots of N! times the
    largest trace fits, else Python ints. `reynolds` gives the line."""
    _, a, b, gram = reynolds(parts)
    group, spans = blocks._copy_group(sum(parts[0])), blocks.class_slots(classes)
    order = len(group.elements)
    traces = {q: np.trace(blocks._integer_tables(q).matrices, axis1=1, axis2=2)[group.mul] for q in set(parts)}  # [sigma, g] = t_q(sigma g)
    big = {q: order * exactla.array_max_abs(t) for q, t in traces.items()}
    dtype = exactla.int_dtype(order * prod(big[q] for q in parts))
    traces = {q: t.astype(dtype) for q, t in traces.items()}
    acc = np.ones((order, 1), dtype=dtype)
    for slots in spans:
        table = blocks._expand([traces[parts[s]] for s in slots])
        acc = (acc[:, :, None] * table[:, None, :]).reshape(order, -1)
    z = (acc.sum(axis=0).astype(object) * a).reshape(-1, 1, 1)
    nonzero = np.flatnonzero((z != 0).any(axis=(1, 2))).tolist()
    keys = blocks.multiset_tuples([(len(slots), range(order)) for slots in spans])
    return blocks._compressed(parts, [1], b, gram, 1, [keys[i] for i in nonzero], z[nonzero])


def is_pd(s: np.ndarray) -> bool:
    """Whether every matrix of the stack (or the one matrix) is positive definite: one Cholesky."""
    try:
        np.linalg.cholesky(s + 0.0)
        return True
    except np.linalg.LinAlgError:
        return False


def newton_system(f0, fs, c, y, mu):
    """Gradient and Hessian of c.y - mu sum_b logdet S_b(y) at y, for the padded stack of `solve._stack`.

    Block b adds -mu tr T_bi to the gradient and mu tr(T_bi T_bj) to the
    Hessian, T_bi = S_b^{-1} F_bi with S_b^{-1} from one batched inverse.
    """
    sinv = np.linalg.inv(solve._block_s(f0, fs, y))
    sinv = 0.5 * (sinv + sinv.transpose(0, 2, 1))
    ts = sinv @ fs
    grad = c - mu * np.trace(ts, axis1=2, axis2=3).sum(axis=1)
    hess = mu * ts.reshape(len(c), f0.size) @ ts.transpose(0, 1, 3, 2).reshape(len(c), f0.size).T
    return grad, hess


def quadratic_form(m, v):
    return sum(v[i] * sum(m[i][j] * v[j] for j in range(len(v)) if v[j]) for i in range(len(v)) if v[i])


def to_float(a):
    """A matrix of Fractions as a float array, one float() per entry."""
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def mode_product_vector(m, vec, dims, axis):
    """(1 x ... x m x ... x 1) @ vec for one flat integer list, as a list: m on the middle
    axis of vec viewed as (outer, d, inner), in Python ints."""
    d, inner = dims[axis], prod(dims[axis + 1 :])
    out = np.matmul(np.asarray(m, dtype=object), np.array(vec, dtype=object).reshape(-1, d, inner))
    return out.reshape(-1).tolist()


def block_per_vector(parts, classes):
    """(k, dim, gram, z, y) of one primal block, built one basis vector, one partial sum
    and one group element at a time, in Python ints, with float() of every Fraction.

    The per-vector builder `blocks._block` replaced: for each basis vector u_b, one
    partial sum per multiset placed so far; at slot s every partial sum moves by
    rho_s(e), as one single-vector mode product, into the sum with e added. After the
    last slot the sums are E_K u_b, and z_K[a][b] = W u_a . E_K u_b is one dot product,
    which also fills z_{K^-1}[b][a] (rho(g)^T W = W rho(g^-1) in seminormal form).
    y_K = L^-1 z_K L^-T from the float gram's Cholesky factor L, key by key.
    """
    basis, dens, weights, wden = sg.invariant_basis_exact(tuple(sg.Partition(p) for p in parts), cap=prod(sg._rep(p).dim for p in parts))
    vectors, scaled = basis.tolist(), weights.tolist()
    weighted = [[a * x for a, x in zip(scaled, u)] for u in vectors]
    k = len(vectors)
    gram = [[Fraction(sum(a * x for a, x in zip(weighted[a_], vectors[b_])), dens[a_] * dens[b_] * wden) for b_ in range(k)] for a_ in range(k)]
    group = blocks._copy_group(sum(parts[0]))
    dims = [sg._rep(p).dim for p in parts]
    tables = [sg._integer_tables(p) for p in parts]
    scales = [t.scale for t in tables]
    order = sorted(set(classes))
    slot_class = [order.index(c) for c in classes]
    members = [[s for s, c in enumerate(classes) if c == cls] for cls in order]

    def key_of(placed):
        key = [0] * len(classes)
        for slots, vals in zip(members, placed):
            for s, v in zip(slots, sorted(vals)):
                key[s] = v
        return tuple(key)

    z = {}
    for b, (u, db) in enumerate(zip(vectors, dens)):
        sums = {((),) * len(order): u}
        for s, c in enumerate(slot_class):
            moved_sums = {}
            for placed, vec in sums.items():
                for e in range(len(group.elements)):
                    if e != group.identity:
                        moved = mode_product_vector(tables[s].matrices[e], vec, dims, s)
                    else:
                        moved = [scales[s] * x for x in vec]
                    to = placed[:c] + (tuple(sorted(placed[c] + (e,))),) + placed[c + 1 :]
                    acc = moved_sums.get(to)
                    moved_sums[to] = moved if acc is None else [x + y for x, y in zip(acc, moved)]
            sums = moved_sums
        den_b = db * wden * prod(scales)
        for placed, vec in sums.items():
            key = key_of(placed)
            inverse = key_of([[int(group.inv[e]) for e in vals] for vals in placed])
            zk = z.setdefault(key, [[F0] * k for _ in range(k)])
            zi = z.setdefault(inverse, [[F0] * k for _ in range(k)])
            for a in range(b + 1):
                zk[a][b] = zi[b][a] = Fraction(sum(w * x for w, x in zip(weighted[a], vec)), dens[a] * den_b)
    z = {key: zk for key, zk in z.items() if any(any(row) for row in zk)}
    linv = np.linalg.inv(np.linalg.cholesky(to_float(gram)))
    y = {key: linv @ to_float(zk) @ linv.T for key, zk in z.items()}
    return k, prod(dims), gram, z, y


def is_identity(p: sg.Permutation) -> bool:
    return all(i == img for i, img in enumerate(p.images))


def ghz_state(n: int, d: int) -> np.ndarray:
    """(|0...0> + ... + |d-1...d-1>) / sqrt(d) on n qudits."""
    psi = np.zeros(d**n)
    step = (d**n - 1) // (d - 1)
    for k in range(d):
        psi[k * step] = 1.0
    return psi / np.sqrt(d)


def five_qubit_code_state() -> np.ndarray:
    """Logical-basis entangled state of the ((5,2,3))_2 stabilizer code.

    Generators XZZXI and its cyclic shifts; the logical operators are
    X^x5 and Z^x5. Returns the 64-dimensional vector on aux (x) 5 qubits.
    """
    paulis = {"X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.array([[1.0, 0.0], [0.0, -1.0]]), "I": np.eye(2)}

    def pauli_string(s: str) -> np.ndarray:
        out = np.array([[1.0]])
        for ch in s:
            out = np.kron(out, paulis[ch])
        return out

    base = "XZZXI"
    proj = np.eye(32)
    for gstr in (base[-k:] + base[:-k] for k in range(4)):
        proj = proj @ (np.eye(32) + pauli_string(gstr)) / 2
    logical0 = proj[:, 0] / np.linalg.norm(proj[:, 0])
    logical1 = pauli_string("XXXXX") @ logical0
    logical1 /= np.linalg.norm(logical1)
    return np.concatenate([logical0, logical1]) / np.sqrt(2)
