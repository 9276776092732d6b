"""Truncated multi-site bosonic Fock space and dense single-site operators.

Basis ordering is lexicographic with site 0 slowest, so the flat index of an
occupation vector (n_0, ..., n_{N-1}) is its base-(n_max+1) value.  Spaces
and operator matrices are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Largest Fock dimension a space may have; every operator on it is dense.
DENSE_OPERATOR_LIMIT = 4096


class CapacityError(ValueError):
    """Requested space exceeds the dense-operator limit."""


@dataclass(frozen=True)
class FockSpace:
    n_sites: int
    n_max: int

    @property
    def local_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.local_dim**self.n_sites

    def index_of(self, occupations) -> int:
        occ = tuple(int(n) for n in occupations)
        if len(occ) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} occupations, got {len(occ)}")
        idx = 0
        for n in occ:
            if not 0 <= n <= self.n_max:
                raise ValueError(f"occupation {n} outside [0, {self.n_max}]")
            idx = idx * self.local_dim + n
        return idx

    def occupations(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        out = []
        for _ in range(self.n_sites):
            index, n = divmod(index, self.local_dim)
            out.append(n)
        return tuple(reversed(out))

    def occupation_table(self) -> np.ndarray:
        """Occupation of every site in every basis state, shape (n_sites, dim)."""
        return _occupation_table(self.n_sites, self.n_max)


@lru_cache(maxsize=32)
def _occupation_table(n_sites: int, n_max: int) -> np.ndarray:
    d = n_max + 1
    idx = np.arange(d**n_sites)
    table = np.empty((n_sites, idx.size), dtype=np.int64)
    for site in range(n_sites):
        stride = d ** (n_sites - 1 - site)
        table[site] = (idx // stride) % d
    table.setflags(write=False)
    return table


def build_fock_space(n_sites: int, n_max: int) -> FockSpace:
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    dim = (n_max + 1) ** n_sites
    if dim > DENSE_OPERATOR_LIMIT:
        raise CapacityError(f"Fock dimension {dim} ({n_sites} sites, n_max = {n_max}) "
                            f"exceeds the dense-operator limit {DENSE_OPERATOR_LIMIT}")
    return FockSpace(n_sites=n_sites, n_max=n_max)


def _check_site(space: FockSpace, site: int):
    if not 0 <= site < space.n_sites:
        raise ValueError(f"site {site} outside [0, {space.n_sites})")


def _embed(space: FockSpace, site: int, local: np.ndarray) -> np.ndarray:
    d = space.local_dim
    left = np.eye(d**site, dtype=local.dtype)
    right = np.eye(d ** (space.n_sites - 1 - site), dtype=local.dtype)
    out = np.kron(np.kron(left, local), right)
    out.setflags(write=False)
    return out


def _local_lowering(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def ladder_matrix(space: FockSpace, site: int, kind: str) -> np.ndarray:
    """Truncated ladder operator acting on one site, identity elsewhere.

    kind "lower" maps |n> to sqrt(n) |n-1>, "raise" is its adjoint on the
    truncated space, "number" is the diagonal occupation operator.
    """
    _check_site(space, site)
    a = _local_lowering(space.n_max)
    if kind == "lower":
        local = a
    elif kind == "raise":
        local = a.T
    elif kind == "number":
        local = np.diag(np.arange(float(space.local_dim)))
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    return _embed(space, site, local)


def displacement_exponential(space: FockSpace, site: int, eta: float) -> np.ndarray:
    """exp(i eta (a + a^dagger)) on one site, exactly unitary on the truncation.

    Built by exponentiating the truncated Hermitian generator (rather than
    truncating the exact infinite-space matrix elements), which keeps time
    evolution norm-preserving; the truncation itself converges like the
    vacuum overlap exp(-eta^2/2).
    """
    _check_site(space, site)
    if eta < 0:
        raise ValueError("eta must be >= 0")
    a = _local_lowering(space.n_max)
    gen = eta * (a + a.T)
    vals, vecs = np.linalg.eigh(gen)
    local = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    return _embed(space, site, local)


def basis_state(space: FockSpace, occupations) -> np.ndarray:
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index_of(occupations)] = 1.0
    return psi


def single_phonon_state(space: FockSpace, site: int) -> np.ndarray:
    """One phonon at `site`, vacuum elsewhere."""
    _check_site(space, site)
    occ = [0] * space.n_sites
    occ[site] = 1
    return basis_state(space, occ)
