"""References for the permutation-tensor algebra.

The dense integer model builds the explicit matrices that
`blocks.SymbolicOperator` never forms: V_sigma on (C^d)^N as a 0/1
permutation matrix, `np.kron` over the slots (cell (slot s, copy c) is
tensor factor s*N + c), partial traces by reshaping. An operator
evaluated at rational coefficients is returned as int64 numerators over
one common denominator, so every comparison made with it is exact.

The X_i basis (X_i = P{V^i x 1^(n-i)}, variable i of the two-copy
system) is handled through its Gram matrix and its closed-form dual.

Young's orthogonal form (floats) is built here from the library's
seminormal matrices and weights, and the hook-content multiplicity from
the partition's hook lengths.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

import numpy as np

from qmarginal import ame, blocks, exactla, symgroup as sg


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


def matrix(op: blocks.SymbolicOperator, x) -> tuple[np.ndarray, int]:
    """(numerators, denominator) of op at coefficients x (var -> rational), on all N copies.

    A traced cell carries the identity, as it does in the operator's terms.
    """
    coeffs = {key: sum((c * Fraction(x.get(v, 0)) for v, c in lin.items()), start=Fraction(0)) for key, lin in op.terms.items()}
    den = lcm(*(c.denominator for c in coeffs.values()))
    side = prod(d**op.system.copies for d in op.system.dims)
    out = np.zeros((side, side), dtype=np.int64)
    for key, c in coeffs.items():
        if c:
            out[_key_rows(op.system, key), np.arange(side)] += int(c * den)
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


def candidate_matrix(n: int, d: int) -> tuple[np.ndarray, int]:
    """The AME candidate sum_i x_i X_i as a dense matrix on two copies."""
    phi = blocks.SymbolicOperator.variable_expansion(blocks.ame_system(n, d, 2))
    return matrix(phi, dict(enumerate(ame.candidate_x(n, d))))


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


def xi_gram(n: int, d: int) -> list[list[Fraction]]:
    """G[i][j] = Tr(X_i X_j), from `pairing_row` over the arrangements of X_i's key."""
    system = blocks.ame_system(n, d, 2)
    phi = blocks.SymbolicOperator.variable_expansion(system)
    gram = []
    for key in system.keys():
        rows = [phi.pairing_row(arr) for arr in system.arrangements(key)]
        gram.append([sum((row.get(j, 0) for row in rows), start=Fraction(0)) for j in range(n + 1)])
    return gram


def xi_coordinates(n: int, d: int, overlaps) -> list[Fraction]:
    """The x with Tr(X_i sum_j x_j X_j) = overlaps[i], solved exactly."""
    particular, free = exactla.solve_affine(xi_gram(n, d), [Fraction(v) for v in overlaps])
    assert not free
    return particular


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


def seminormal(lam, perm) -> tuple:
    """Young's seminormal matrix of perm in the irrep lam, exact."""
    return sg._rep(sg._as_parts(lam)).seminormal(perm)


def orthogonal_form(lam, perm) -> np.ndarray:
    """Young's orthogonal form W^1/2 S(perm) W^-1/2, with W the orthogonalization weights."""
    rep = sg._rep(sg._as_parts(lam))
    sq = np.sqrt([float(w) for w in rep.weights])
    return sq[:, None] * np.array(rep.seminormal(perm), dtype=float) / sq[None, :]


def gl_multiplicity(lam, d: int) -> int:
    """Multiplicity of lam in the permutation action on (C^d)^N: prod over cells of (d + content) / hook."""
    num = den = 1
    for i, row in enumerate(sg.Partition(sg._as_parts(lam)).hooks()):
        for j, hook in enumerate(row):
            num *= d + j - i
            den *= hook
    assert num % den == 0
    return num // den
