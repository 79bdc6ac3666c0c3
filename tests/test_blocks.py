"""Witness blocks and exact invariant bases against a dense reference.

The reference forms the total x total matrices the library avoids: the
kernel of S(s) x ... + S(c) x ... - 2 through `exactla.nullspace`, and
the swap-pattern sums as explicit Kronecker products. The library's
results must be identical to it, entry for entry and byte for byte.
"""

import itertools
from functools import lru_cache
from math import prod

import numpy as np
import pytest

from qmarginal import blocks, cli, exactla, hierarchy as hi, symgroup as sg
from qmarginal.errors import InternalConsistencyError, ResourceCapError
from qmarginal.symgroup import Permutation


@lru_cache(maxsize=None)
def _dense_basis(parts):
    reps = [sg._rep(p) for p in parts]
    n = sum(parts[0])
    total = prod(rep.dim for rep in reps)
    a = exactla.zeros(total, total)
    for g in (Permutation.transposition(n, 0, 1), Permutation.full_cycle(n)):
        a = exactla.mat_add(a, exactla.kron_all([[list(row) for row in rep.seminormal(g)] for rep in reps]))
    for i in range(total):
        a[i][i] -= 2
    weights = [sg.F1]
    for rep in reps:
        weights = [w * rw for w in weights for rw in rep.weights]
    return exactla.nullspace(a, ncols=total), weights


def _dense_witness_blocks(n, d, copies):
    system = blocks.ame_system(n, d, copies)
    swap = Permutation.transposition(copies, 0, 1)
    ident = Permutation.identity(copies)
    out = []
    for tpl in system.partition_tuples():
        if not sg.trivial_multiplicity(tpl):
            continue
        parts = tuple(p.parts for p in tpl)
        reps = [sg._rep(p) for p in parts]
        vectors, weights = _dense_basis(parts)
        u = exactla.transpose(vectors)
        wut = [[w * x for w, x in zip(weights, v)] for v in vectors]
        gram = exactla.mat_mul(wut, u)
        z_per_l = []
        for l in range(n + 1):
            acc = exactla.zeros(len(weights), len(weights))
            for subset in itertools.combinations(range(n), l):
                mats = [[list(row) for row in rep.seminormal(swap if s in subset else ident)] for s, rep in enumerate(reps)]
                acc = exactla.mat_add(acc, exactla.kron_all(mats))
            z_per_l.append(exactla.mat_mul(wut, exactla.mat_mul(acc, u)))
        linv = np.linalg.inv(np.linalg.cholesky(exactla.to_float(gram)))
        y_per_l = [linv @ exactla.to_float(z) @ linv.T for z in z_per_l]
        out.append((parts, len(vectors), len(weights), z_per_l, y_per_l, gram))
    return out


def _fields(blk):
    return (tuple(p.parts for p in blk.partitions), blk.k, blk.dim, blk.z_per_l, [y.tobytes() for y in blk.y_per_l], blk.gram)


def _cold_blocks(n, d, copies):
    blocks._witness_block.cache_clear()
    return blocks.witness_blocks(n, d, copies)


@pytest.mark.parametrize("lams", [((2, 1), (2, 1)), ((3, 1),) * 4, ((2, 1, 1), (3, 1), (2, 2), (3, 1))])
def test_invariant_basis_matches_dense_nullspace(lams):
    vectors, weights = sg.invariant_basis_exact(lams)
    assert (vectors, weights) == _dense_basis(lams)
    assert len(vectors) == sg.trivial_multiplicity(lams)


@pytest.mark.parametrize("shift", [1, -1])
def test_invariant_basis_rank_check_can_fail(monkeypatch, shift):
    true_k = sg.trivial_multiplicity
    monkeypatch.setattr(sg, "trivial_multiplicity", lambda lams: true_k(lams) + shift)
    with pytest.raises(InternalConsistencyError):
        sg.invariant_basis_exact(((2, 1),) * 3)


def test_invariant_basis_generator_check_can_fail(monkeypatch):
    mode_product = exactla.mode_product
    monkeypatch.setattr(exactla, "mode_product", lambda m, vec, dims, axis: [2 * x for x in mode_product(m, vec, dims, axis)])
    with pytest.raises(InternalConsistencyError):
        sg.invariant_basis_exact(((2, 1),) * 3)


@pytest.mark.parametrize("n,d,copies", [(4, 2, 3), (5, 2, 3), (4, 2, 4)])
def test_witness_blocks_match_dense_reference(n, d, copies):
    got = [_fields(blk) for blk in _cold_blocks(n, d, copies)]
    ref = [(parts, k, dim, z, [y.tobytes() for y in ys], gram) for parts, k, dim, z, ys, gram in _dense_witness_blocks(n, d, copies)]
    assert got == ref


def test_witness_blocks_do_not_depend_on_d():
    small = [_fields(blk) for blk in _cold_blocks(4, 2, 3)]
    large = [_fields(blk) for blk in _cold_blocks(4, 6, 3)]
    assert small == [f for f in large if all(len(p) <= 2 for p in f[0])]


def test_level_check_then_export_reuses_blocks(monkeypatch):
    cold = [_fields(blk) for blk in _cold_blocks(4, 6, 4)]
    blocks._witness_block.cache_clear()
    built = []
    original = blocks.invariant_basis_exact
    monkeypatch.setattr(blocks, "invariant_basis_exact", lambda lams, cap: built.append(lams) or original(lams, cap))
    hi.level_check(4, 2, 4)
    after_level = len(built)
    warm = hi.assemble_dual_witness(4, 6, 4).blocks
    assert [_fields(blk) for blk in warm] == cold
    assert after_level == len(hi.assemble_dual_witness(4, 2, 4).blocks)
    assert len(built) == len(warm)  # every tuple built once, across both d


def test_witness_blocks_are_read_only():
    blk = blocks.witness_blocks(3, 2, 3)[0]
    with pytest.raises(ValueError):
        blk.y_per_l[0][0, 0] = 1.0


def test_witness_cap_checked_before_any_block(monkeypatch):
    def refuse(lams, cap):
        raise AssertionError("a block was built before the cap check")

    blocks._witness_block.cache_clear()
    monkeypatch.setattr(blocks, "invariant_basis_exact", refuse)
    with pytest.raises(ResourceCapError):
        blocks.witness_blocks(4, 2, 3, cap=4)
    assert cli.main(["ame", "witness", "--n", "4", "--d", "2", "--copies", "3", "--cap", "4"]) == 3
