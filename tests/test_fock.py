import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonon_gauge.fock import (
    DENSE_OPERATOR_LIMIT,
    CapacityError,
    basis_state,
    build_fock_space,
    displacement_exponential,
    ladder_matrix,
    single_phonon_state,
)


@pytest.mark.parametrize("n_sites,n_max,dim", [(2, 4, 25), (4, 2, 81), (1, 0, 1)])
def test_dimensions(n_sites, n_max, dim):
    assert build_fock_space(n_sites, n_max).dim == dim


def test_capacity_error():
    with pytest.raises(CapacityError):
        build_fock_space(7, 9)  # 10**7 states


def test_dense_operator_limit():
    assert build_fock_space(6, 3).dim == DENSE_OPERATOR_LIMIT == 4096
    with pytest.raises(CapacityError, match="dense-operator limit 4096"):
        build_fock_space(6, 4)  # dim 15625


def test_index_roundtrip_exhaustive_small():
    space = build_fock_space(3, 2)
    for idx in range(space.dim):
        assert space.index_of(space.occupations(idx)) == idx


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_sites=st.integers(1, 4), n_max=st.integers(0, 4))
def test_index_roundtrip_property(data, n_sites, n_max):
    space = build_fock_space(n_sites, n_max)
    idx = data.draw(st.integers(0, space.dim - 1))
    occ = space.occupations(idx)
    assert len(occ) == n_sites
    assert all(0 <= n <= n_max for n in occ)
    assert space.index_of(occ) == idx


def test_lexicographic_order_site_zero_slowest():
    space = build_fock_space(2, 4)
    assert space.index_of((1, 0)) == 5
    assert space.index_of((0, 1)) == 1


def test_number_on_vacuum_is_zero():
    space = build_fock_space(2, 3)
    vac = basis_state(space, (0, 0))
    n0 = ladder_matrix(space, 0, "number")
    assert np.vdot(vac, n0 @ vac) == 0


def test_raise_lower_eigenvalue():
    space = build_fock_space(2, 4)
    a = ladder_matrix(space, 1, "lower")
    adag = ladder_matrix(space, 1, "raise")
    for n in range(4):  # below the cap
        psi = basis_state(space, (0, n))
        assert np.vdot(psi, adag @ (a @ psi)).real == pytest.approx(n)


def test_commutator_deviation_confined_to_top_sector():
    space = build_fock_space(2, 3)
    a = ladder_matrix(space, 0, "lower")
    adag = ladder_matrix(space, 0, "raise")
    comm = a @ adag - adag @ a
    occ = space.occupation_table()[0]
    expected = np.where(occ == space.n_max, -space.n_max, 1.0)
    assert np.allclose(comm, np.diag(expected))


def test_embedding_acts_as_identity_elsewhere():
    space = build_fock_space(3, 2)
    a0 = ladder_matrix(space, 0, "lower")
    n2 = ladder_matrix(space, 2, "number")
    assert np.allclose(a0 @ n2, n2 @ a0)
    # exact sparsity: matrix elements only between states differing at site 0
    for row in range(space.dim):
        for col in range(space.dim):
            if a0[row, col] != 0:
                occ_r, occ_c = space.occupations(row), space.occupations(col)
                assert occ_r[1:] == occ_c[1:]
                assert occ_r[0] == occ_c[0] - 1


def test_total_number_commutes_with_hopping():
    from phonon_gauge.couplings import bare_coupling_matrix
    from phonon_gauge.dynamics import effective_hamiltonian
    from phonon_gauge.model import build_array

    space = build_fock_space(2, 3)
    arr = build_array("link", (2,))
    h = effective_hamiltonian(bare_coupling_matrix(arr, "z"), space)
    ntot = ladder_matrix(space, 0, "number") + ladder_matrix(space, 1, "number")
    assert np.abs(ntot @ h - h @ ntot).max() < 1e-12


def test_displacement_at_zero_is_identity():
    space = build_fock_space(2, 4)
    d = displacement_exponential(space, 0, 0.0)
    assert np.allclose(d, np.eye(space.dim), atol=1e-15)


def test_displacement_unitarity():
    space = build_fock_space(2, 4)
    d = displacement_exponential(space, 1, 0.2)
    assert np.abs(d.conj().T @ d - np.eye(space.dim)).max() < 1e-12


def test_displacement_vacuum_overlap_matches_coherent_formula():
    space = build_fock_space(1, 10)
    d = displacement_exponential(space, 0, 0.2)
    vac = basis_state(space, (0,))
    overlap = np.vdot(vac, d @ vac)
    assert abs(overlap - math.exp(-0.02)) < 1e-6


def test_single_phonon_state():
    space = build_fock_space(3, 2)
    psi = single_phonon_state(space, 1)
    assert np.linalg.norm(psi) == 1.0
    assert psi[space.index_of((0, 1, 0))] == 1.0
