import itertools
import math

import numpy as np
import pytest

from phonon_gauge.fock import (
    DENSE_BYTE_BUDGET,
    CapacityError,
    add_local,
    build_fock_space,
    displacement_exponential,
    lowering,
    single_phonon_state,
)


def _kron_embed(space, sites, local):
    """Reference for add_local: `local` on `sites` (first slowest) as a sum of
    products of one-site matrix units, each embedded by np.kron."""
    d, k = space.local_dim, len(sites)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for row in itertools.product(range(d), repeat=k):
        for col in itertools.product(range(d), repeat=k):
            term = np.eye(space.dim, dtype=complex)
            for site, r, c in zip(sites, row, col):
                unit = np.zeros((d, d))
                unit[r, c] = 1.0
                term = term @ np.kron(np.kron(np.eye(d**site), unit),
                                      np.eye(d ** (space.n_sites - 1 - site)))
            out += local[np.ravel_multi_index(row, (d,) * k),
                         np.ravel_multi_index(col, (d,) * k)] * term
    return out


def _on(space, sites, local):
    out = np.zeros((space.dim, space.dim), dtype=local.dtype)
    add_local(out, space, sites, local)
    return out


def _number(n_max):
    a = lowering(n_max)
    return a.T @ a


@pytest.mark.parametrize("n_sites,n_max,dim", [(2, 4, 25), (4, 2, 81), (1, 0, 1)])
def test_dimensions(n_sites, n_max, dim):
    assert build_fock_space(n_sites, n_max).dim == dim


def test_capacity_error():
    with pytest.raises(CapacityError):
        build_fock_space(7, 9)  # 10**7 states


def test_dense_operator_limit():
    assert build_fock_space(6, 3).dim == 4096 and 16 * 4096 ** 2 == DENSE_BYTE_BUDGET
    with pytest.raises(CapacityError, match="operators take 3906250000 bytes, above 268435456$"):
        build_fock_space(6, 4)  # dim 15625


def test_lexicographic_order_site_zero_slowest():
    occ = build_fock_space(2, 4).occupation_table()
    assert tuple(occ[:, 5]) == (1, 0)
    assert tuple(occ[:, 1]) == (0, 1)
    occ = build_fock_space(3, 2).occupation_table()
    assert [tuple(c) for c in occ.T] == list(itertools.product(range(3), repeat=3))


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
@pytest.mark.parametrize("sites", [(0,), (1,), (2,), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2),
                                   (2, 1)])
def test_add_local_matches_kron_reference(n_max, sites):
    space = build_fock_space(3, n_max)
    rng = np.random.default_rng(7 * n_max + len(sites))
    size = space.local_dim ** len(sites)
    local = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    start = rng.normal(size=(space.dim, space.dim)) + 0j
    out = start.copy()
    add_local(out, space, sites, local)
    assert np.array_equal(out, start + _kron_embed(space, sites, local))


def test_add_local_rejects_a_repeated_or_missing_site():
    space = build_fock_space(3, 1)
    out = np.zeros((space.dim, space.dim))
    for sites in ((1, 1), (3,), (-1,)):
        with pytest.raises(ValueError, match="not distinct sites in"):
            add_local(out, space, sites, np.eye(2 ** len(sites)))


def test_number_on_vacuum_is_zero():
    space = build_fock_space(2, 3)
    n0 = _on(space, (0,), _number(3))
    assert n0[0, 0] == 0  # the vacuum is basis state 0
    assert np.allclose(np.diag(n0), space.occupation_table()[0])


def test_raise_lower_eigenvalue():
    a = lowering(4)
    for n in range(4):  # below the cap
        psi = np.eye(5)[n]
        assert psi @ a.T @ (a @ psi) == pytest.approx(n)
        assert a.T @ psi == pytest.approx(math.sqrt(n + 1) * np.eye(5)[n + 1])


def test_commutator_deviation_confined_to_top_sector():
    space = build_fock_space(2, 3)
    a = _on(space, (0,), lowering(3))
    comm = a @ a.T - a.T @ a
    occ = space.occupation_table()[0]
    expected = np.where(occ == space.n_max, -space.n_max, 1.0)
    assert np.allclose(comm, np.diag(expected))


def test_embedding_acts_as_identity_elsewhere():
    space = build_fock_space(3, 2)
    a0 = _on(space, (0,), lowering(2))
    n2 = _on(space, (2,), _number(2))
    assert np.allclose(a0 @ n2, n2 @ a0)
    # exact sparsity: matrix elements only between states differing at site 0
    occ = space.occupation_table()
    for row, col in zip(*np.nonzero(a0)):
        assert np.array_equal(occ[1:, row], occ[1:, col])
        assert occ[0, row] == occ[0, col] - 1


def test_total_number_commutes_with_hopping():
    from phonon_gauge.couplings import bare_coupling_matrix
    from phonon_gauge.dynamics import effective_hamiltonian
    from phonon_gauge.model import build_array

    space = build_fock_space(2, 3)
    arr = build_array("link", (2,))
    h = effective_hamiltonian(bare_coupling_matrix(arr, "z"), space)
    ntot = _on(space, (0,), _number(3)) + _on(space, (1,), _number(3))
    assert np.abs(ntot @ h - h @ ntot).max() < 1e-12


def test_displacement_at_zero_is_identity():
    d = displacement_exponential(4, 0.0)
    assert np.allclose(d, np.eye(5), atol=1e-15)


def test_displacement_unitarity():
    d = displacement_exponential(4, 0.2)
    assert np.abs(d.conj().T @ d - np.eye(5)).max() < 1e-12
    space = build_fock_space(2, 4)
    full = _on(space, (1,), d)
    assert np.abs(full.conj().T @ full - np.eye(space.dim)).max() < 1e-12


def test_displacement_vacuum_overlap_matches_coherent_formula():
    d = displacement_exponential(10, 0.2)
    assert abs(d[0, 0] - math.exp(-0.02)) < 1e-6


def test_single_phonon_state():
    space = build_fock_space(3, 2)
    psi = single_phonon_state(space, 1)
    assert np.linalg.norm(psi) == 1.0
    occ = space.occupation_table()
    assert [tuple(occ[:, k]) for k in np.flatnonzero(psi)] == [(0, 1, 0)]
    with pytest.raises(ValueError, match="outside"):
        single_phonon_state(space, 3)
    with pytest.raises(ValueError, match="n_max >= 1"):
        single_phonon_state(build_fock_space(3, 0), 1)
