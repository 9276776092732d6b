"""Truncated multi-site bosonic Fock space, its local operators, and the one
rule that places a local operator on the many-body space.

Basis ordering is lexicographic with site 0 slowest, so the flat index of an
occupation vector (n_0, ..., n_{N-1}) is its base-(n_max+1) value; the
occupation table lists every basis state in that order.  Operators here are
local: d x d matrices on one site, d = n_max + 1.  `add_local` adds one to a
many-body matrix on the sites it acts on.  Spaces are immutable, and
`build_fock_space` refuses one whose dense operators exceed DENSE_BYTE_BUDGET.
`block_items` sizes the block of every block loop from one budget, BLOCK_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Bytes one dense array may take: a complex 4096 x 4096 matrix.
DENSE_BYTE_BUDGET = 16 * 4096 ** 2

#: Bytes one block of a block loop holds at once, about a core's L2 cache:
#: each loop takes `block_items(b)` items a block, b the bytes one item holds.
#: A block spreads numpy's per-call overhead over its items, until it
#: outgrows the cache.  Per loop, b and the block at d = 25 / 81 / 625 (the
#: link, the preset ring, criterion 8's ring):
#:   node exponentials (`dynamics._PeriodGrid.period_propagator`): the stack,
#:     its powers up to Omega^s, the Horner sum and a product, 16 d^2 (s + 2):
#:     17 / 1 / 1;
#:   node DFT columns (same): 16 nodes: 3855 / 4369 / 2621 (17 / 15 / 25 nodes);
#:   step exponentials (`dynamics._PeriodGrid.exponential_stacks`) and the
#:     sample read-out (`dynamics.evolve`): 16 d^2: 104 / 9 / 1;
#:   eigendecomposition times (`dynamics.evolve`): 32 n at n sites: 8192 at 4;
#:   Hermiticity rows (`couplings.adjoint_blocks`): 16 n: 64 at n = 1024,
#:     16 at 4096;
#:   dressed-map phase steps (`couplings.dressed_map`), about ten float64
#:     arrays in the recurrence: 80: 13107.
#: The pi ring of 601 samples on a 4060-unit window, best of 5 in three runs
#: on one core of a 2-vCPU Xeon (numpy 2.4, OpenBLAS 0.3.31, 1 thread), took
#: 0.125-0.133 s at 512 KiB (4 step exponentials a product) against
#: 0.114-0.122 s at 1 MiB; 2 MiB was no faster.
BLOCK_BYTES = 1024 * 1024


def block_items(item_bytes: int) -> int:
    """Items per block of BLOCK_BYTES, `item_bytes` each; at least one."""
    return max(1, BLOCK_BYTES // item_bytes)


class CapacityError(ValueError):
    """A dense operator on the requested space would exceed DENSE_BYTE_BUDGET."""


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

    def occupation_table(self) -> np.ndarray:
        """Occupation of every site in every basis state, shape (n_sites, dim)."""
        return _occupation_table(self.n_sites, self.n_max)


@lru_cache(maxsize=32)
def _occupation_table(n_sites: int, n_max: int) -> np.ndarray:
    d = n_max + 1
    strides = d ** np.arange(n_sites - 1, -1, -1, dtype=np.int64)  # site 0 slowest
    table = np.arange(d**n_sites, dtype=np.int64) // strides[:, None] % d
    table.setflags(write=False)
    return table


def build_fock_space(n_sites: int, n_max: int) -> FockSpace:
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    dim = (n_max + 1) ** n_sites
    if 16 * dim * dim > DENSE_BYTE_BUDGET:
        raise CapacityError(f"Fock dimension {dim} ({n_sites} sites, n_max = {n_max}): its "
                            f"operators take {16 * dim * dim} bytes, above {DENSE_BYTE_BUDGET}")
    return FockSpace(n_sites=n_sites, n_max=n_max)


def add_local(out: np.ndarray, space: FockSpace, sites, local: np.ndarray) -> None:
    """out += `local` acting on `sites`, identity elsewhere, in place.

    `local` is d^k x d^k on the k distinct `sites`, ordered like the basis:
    the first site slowest.  Each basis state of the other sites gets one
    copy of `local`, scattered through the occupation table.
    """
    sites = list(sites)
    if len(set(sites)) != len(sites) or not all(0 <= s < space.n_sites for s in sites):
        raise ValueError(f"sites {sites} are not distinct sites in [0, {space.n_sites})")
    occ = space.occupation_table()
    stride = space.local_dim ** (space.n_sites - 1 - np.array(sites))
    offsets = stride @ _occupation_table(len(sites), space.n_max)  # of each local state
    rows = np.flatnonzero((occ[sites] == 0).all(axis=0))[:, None] + offsets
    out[rows[:, :, None], rows[:, None, :]] += local


def lowering(n_max: int) -> np.ndarray:
    """Truncated lowering operator on one site: |n> -> sqrt(n) |n-1>.

    Its transpose is the raising operator; a.T @ a is the number operator.
    """
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def displacement_exponential(n_max: int, eta: float) -> np.ndarray:
    """exp(i eta (a + a^dagger)) on one site, exactly unitary on the truncation.

    Built by exponentiating the truncated Hermitian generator (rather than
    truncating the exact infinite-space matrix elements), which keeps time
    evolution norm-preserving; the truncation itself converges like the
    vacuum overlap exp(-eta^2/2).
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    a = lowering(n_max)
    vals, vecs = np.linalg.eigh(eta * (a + a.T))
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def single_phonon_state(space: FockSpace, site: int) -> np.ndarray:
    """One phonon at `site`, vacuum elsewhere."""
    if not 0 <= site < space.n_sites:
        raise ValueError(f"site {site} outside [0, {space.n_sites})")
    if space.n_max < 1:
        raise ValueError("a phonon needs n_max >= 1")
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.local_dim ** (space.n_sites - 1 - site)] = 1.0
    return psi
