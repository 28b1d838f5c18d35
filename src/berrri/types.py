"""Core domain types: data container, hyperparameters, variational state, and
the data of a batch of fits.

The generative model approximates an N x P trait matrix Y as X @ Z @ A plus
Gaussian noise, where X is an N x Q minor-allele dosage matrix, Z is a Q x K
binary SNP-inclusion matrix with a truncated Indian-Buffet-Process prior
(independent Beta-Bernoulli columns), and A is a K x P effect-size matrix with
a per-entry ARD (inverse-gamma variance) prior.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dataset",
    "Hyperparameters",
    "VariationalState",
    "PlantedTruth",
    "GENOTYPE_VALUES",
    "BatchData",
    "batch_of",
]

GENOTYPE_VALUES = (0.0, 1.0, 2.0)


def reject_repeats(ids, kind: str, where: str, start: int = 0):
    """Raise on the first ID that occurs twice, naming both of its positions."""
    seen = {}
    for n, item in enumerate(ids, start=start):
        if item in seen:
            raise ValidationError(f"{kind} {item!r} appears twice, {where} {seen[item]} and {n}")
        seen[item] = n


def require_integer(value, name: str):
    """Raise unless `value` is an integer (numpy integers included, bools
    not), naming the field it was given for."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def is_real(value) -> bool:
    """Whether `value` is a real number (numpy numbers included, bools and
    strings not), so that comparing it with a bound is meaningful."""
    return not isinstance(value, bool) and isinstance(value, Real)


def require_positive_finite(value, name: str):
    """Raise unless `value` is a positive finite real number (see `is_real`),
    naming the field it was given for."""
    if not (is_real(value) and math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")


def owned_array(value, dtype) -> np.ndarray:
    """A read-only array of `value` for a record to hold.  An input that is
    already read-only and owns its memory (another record's field) is
    shared, an array that the conversion to `dtype` created is kept, and
    anything else (a caller's writable array, a view) is copied, so no one
    outside the record can write to what it holds."""
    out = np.asarray(value, dtype=dtype)
    if not out.flags.owndata or (out is value and out.flags.writeable):
        out = out.copy()
    out.setflags(write=False)
    return out


def _as_float_matrix(arr, name: str) -> np.ndarray:
    out = owned_array(arr, np.float64)
    if out.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class Dataset:
    """Paired genotype and trait matrices with column labels.

    X holds minor-allele dosages in {0, 1, 2} for N individuals x Q SNPs; Y
    holds real-valued traits for the same N individuals x P traits; no axis
    may be empty.  IDs are kept as text, the `str` of each given label,
    since that is what result files hold; no text may repeat or hold a
    tab, CR or LF, which would split a TSV cell or line.  Optional
    base-pair positions enable SNP-trait distance reporting.  Instances are immutable after
    construction and safe to share across threads: their arrays are
    read-only and no caller can write to them (see `owned_array`), and
    Datasets built from one another share them.  X's column sums of squares
    and ||Y||^2 are computed once, on first use.
    """

    X: np.ndarray
    Y: np.ndarray
    snp_ids: tuple = ()
    trait_ids: tuple = ()
    snp_positions: Optional[np.ndarray] = None
    trait_positions: Optional[np.ndarray] = None

    def __post_init__(self):
        X = _as_float_matrix(self.X, "X")
        Y = _as_float_matrix(self.Y, "Y")
        if X.shape[0] != Y.shape[0]:
            raise ValidationError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]} rows; "
                "genotype and trait matrices must cover the same individuals"
            )
        for name, arr, axis, what in (
            ("X", X, 0, "individuals"), ("X", X, 1, "SNPs"), ("Y", Y, 1, "traits")
        ):
            if arr.shape[axis] == 0:
                raise ValidationError(f"{name} has shape {arr.shape}: no {what}")
        bad = ~np.isin(X, GENOTYPE_VALUES)
        if bad.any():
            n, q = np.argwhere(bad)[0]
            raise ValidationError(
                f"genotype value {X[n, q]!r} at individual {n}, SNP {q} "
                "is not a dosage in {0, 1, 2}"
            )
        if not np.isfinite(Y).all():
            n, p = np.argwhere(~np.isfinite(Y))[0]
            raise ValidationError(f"non-finite trait value at individual {n}, trait {p}")

        snp_ids = tuple(map(str, self.snp_ids)) or tuple(f"snp{q}" for q in range(X.shape[1]))
        trait_ids = tuple(map(str, self.trait_ids)) or tuple(f"trait{p}" for p in range(Y.shape[1]))
        if len(snp_ids) != X.shape[1]:
            raise ValidationError(f"{len(snp_ids)} SNP labels for {X.shape[1]} genotype columns")
        if len(trait_ids) != Y.shape[1]:
            raise ValidationError(f"{len(trait_ids)} trait labels for {Y.shape[1]} trait columns")
        for kind, ids in (("SNP ID", snp_ids), ("trait ID", trait_ids)):
            reject_repeats(ids, kind, "at indices")
            for i, text in enumerate(ids):
                if any(c in text for c in "\t\r\n"):
                    raise ValidationError(f"{kind} {text!r} at index {i} holds a tab, CR or LF")

        positions = {}
        for name, n in (("snp_positions", X.shape[1]), ("trait_positions", Y.shape[1])):
            pos = getattr(self, name)
            if pos is not None:
                pos = owned_array(pos, np.float64)
                if pos.shape != (n,):
                    raise ValidationError(f"{name} has shape {pos.shape}, expected ({n},)")
                if not np.isfinite(pos).all():
                    i = np.flatnonzero(~np.isfinite(pos))[0]
                    raise ValidationError(f"{name} holds a non-finite value at index {i}")
            positions[name] = pos

        for name, arr in (("X", X), ("Y", Y), *positions.items()):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "snp_ids", snp_ids)
        object.__setattr__(self, "trait_ids", trait_ids)

    @cached_property
    def x2sum(self) -> np.ndarray:
        out = np.einsum("nq,nq->q", self.X, self.X)
        out.setflags(write=False)
        return out

    @cached_property
    def yy(self) -> float:
        return np.einsum("np,np->", self.Y, self.Y)

    @property
    def n_individuals(self) -> int:
        return self.X.shape[0]

    @property
    def n_snps(self) -> int:
        return self.X.shape[1]

    @property
    def n_traits(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed model and fitting configuration.

    k_max=None resolves to min(Q, 50) for the dataset at hand.  sigma2 is a
    single noise variance shared by all individuals.  c and d are the
    inverse-gamma shape/rate of the ARD prior on effect-size variances.
    """

    # c = d = 1 keeps the ARD prior weakly informative while letting unused
    # factors settle quickly: the variance/rate pair of an empty factor
    # contracts toward its fixed point at ratio 0.5 / (c + 0.5) per sweep, so
    # a much smaller c (e.g. 1e-3) would leave unused factors drifting for
    # thousands of iterations and the convergence monitor never passes.
    alpha: float = 1.0
    sigma2: float = 1.0
    c: float = 1.0
    d: float = 1.0
    k_max: Optional[int] = None
    p_thresh: float = 0.05
    burn_in: int = 100
    check_interval: int = 100
    max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "sigma2", "c", "d"):
            require_positive_finite(getattr(self, name), name)
        for name in ("k_max", "burn_in", "check_interval", "max_iter", "seed"):
            if not (name == "k_max" and self.k_max is None):
                require_integer(getattr(self, name), name)
        if self.k_max is not None and self.k_max < 1:
            raise ValidationError(f"k_max must be >= 1, got {self.k_max}")
        if not (is_real(self.p_thresh) and 0 < self.p_thresh < 1):
            raise ValidationError(f"p_thresh must lie in (0, 1), got {self.p_thresh!r}")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.check_interval < 1:
            raise ValidationError(f"check_interval must be >= 1, got {self.check_interval}")
        if not self.burn_in < self.max_iter:
            raise ValidationError(
                f"burn_in ({self.burn_in}) must be smaller than max_iter ({self.max_iter})"
            )

    def resolve_k_max(self, n_snps: int) -> int:
        return min(n_snps, 50) if self.k_max is None else self.k_max


STATE_ARRAYS = ("lam", "eta", "phi", "varphi", "kappa")
# a factor is in use when some SNP's inclusion mean exceeds this
INCLUSION_THRESHOLD = 0.5


@dataclass
class VariationalState:
    """All variational parameters of the factorized posterior.

    lam[k]      Beta(lam[k,0], lam[k,1]) over the stick weight pi_k
    eta[q,k]    Bernoulli mean for Z[q,k]
    phi[k,p]    Gaussian mean for A[k,p]
    varphi[k,p] Gaussian variance for A[k,p]; the row posterior for A[k,:]
                factorizes over traits, so the per-factor covariance is the
                diagonal matrix diag(varphi[k])
    kappa[k,p]  inverse-gamma (shape, rate) over the ARD variance delta[k,p]

    A batch of B fits that advance together is one state whose arrays carry
    a leading batch axis (`stack`); `member(b)` views fit b as a plain state.
    Owned exclusively by the fitting routine while a fit is running.
    """

    lam: np.ndarray
    eta: np.ndarray
    phi: np.ndarray
    varphi: np.ndarray
    kappa: np.ndarray

    @property
    def n_snps(self) -> int:
        return self.eta.shape[-2]

    @property
    def k_max(self) -> int:
        return self.eta.shape[-1]

    @property
    def n_traits(self) -> int:
        return self.phi.shape[-1]

    @classmethod
    def stack(cls, states) -> "VariationalState":
        """Copy plain states of one shape into one batch."""
        states = list(states)
        if len({tuple(getattr(s, name).shape for name in STATE_ARRAYS) for s in states}) != 1:
            raise ValidationError("states in one batch must have the same shapes")
        return cls(*(np.stack([getattr(s, name) for s in states]) for name in STATE_ARRAYS))

    def member(self, b: int) -> "VariationalState":
        """Member b of a batch, as a plain state whose arrays are views."""
        return VariationalState(*(getattr(self, name)[b] for name in STATE_ARRAYS))

    def as_batch(self) -> "VariationalState":
        """A plain state as a batch of one whose arrays are views of its own."""
        return VariationalState(*(getattr(self, name)[None] for name in STATE_ARRAYS))

    def effective_k(self) -> int:
        """Number of factors with at least one SNP inclusion above
        INCLUSION_THRESHOLD."""
        return int((self.eta.max(axis=0) > INCLUSION_THRESHOLD).sum())

    def validate(self):
        if self.eta.ndim != 2:
            raise ValidationError(
                f"eta has shape {self.eta.shape}: expected one fit's state, not a stacked batch"
            )
        Q, K = self.eta.shape
        P = self.phi.shape[1]
        if self.lam.shape != (K, 2):
            raise ValidationError(f"lam has shape {self.lam.shape}, expected ({K}, 2)")
        if self.phi.shape != (K, P):
            raise ValidationError(f"phi has shape {self.phi.shape}, expected ({K}, {P})")
        if self.varphi.shape != (K, P):
            raise ValidationError(f"varphi has shape {self.varphi.shape}, expected ({K}, {P})")
        if self.kappa.shape != (K, P, 2):
            raise ValidationError(f"kappa has shape {self.kappa.shape}, expected ({K}, {P}, 2)")
        if not ((self.eta >= 0) & (self.eta <= 1)).all():
            raise ValidationError("eta entries must lie in [0, 1]")
        if not (self.lam > 0).all():
            raise ValidationError("lam entries must be strictly positive")
        if not (self.kappa > 0).all():
            raise ValidationError("kappa entries must be strictly positive")
        if not (self.varphi > 0).all():
            raise ValidationError("varphi entries must be strictly positive")
        for name in STATE_ARRAYS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"non-finite entries in {name}")

    def copy(self) -> "VariationalState":
        return VariationalState(*(getattr(self, name).copy() for name in STATE_ARRAYS))


class BatchData:
    """The data of a batch of fits: the genotype matrix X its members share,
    X's column sums of squares, their traits stacked B x N x P and each
    member's ||Y_b||^2; the column sums and the norms are read from the
    members' Datasets.  X's transpose is built on first use, so scoring one
    fit does not form it.  A sweep forms its residuals in row blocks of its
    own (`engine._factor_residual_blocks`, whose height is set by P alone),
    so nothing held here goes stale when members leave.

    It is also the record of which fits the batch holds: `members[i]` is
    the position, among the datasets it was built from, of the fit whose
    traits are row i.  A batch built from one dataset is a single fit and
    names no member (`name`)."""

    def __init__(self, datasets):
        datasets = list(datasets)
        X, shape = datasets[0].X, datasets[0].Y.shape
        for b, data in enumerate(datasets[1:], start=1):
            if data.X is not X and not np.array_equal(data.X, X):
                raise ValidationError("fits in one batch must share the genotype matrix")
            if data.Y.shape != shape:
                raise ValidationError(
                    f"batch member {b} has traits of shape {data.Y.shape}, member 0 has {shape}"
                )
        self.X = X
        self.x2sum = datasets[0].x2sum
        # a fit on its own holds a view of its traits, not a stacked copy
        self.Y = datasets[0].Y[None] if len(datasets) == 1 else np.stack([d.Y for d in datasets])
        self.yy = np.array([d.yy for d in datasets])
        self.members = np.arange(len(datasets))
        self._single = len(datasets) == 1

    def __len__(self) -> int:
        return len(self.Y)

    @cached_property
    def XT(self) -> np.ndarray:
        return np.ascontiguousarray(self.X.T)

    def name(self, row: int, template: str) -> str:
        """`template` with "batch member b" put in, b being the position of
        row `row`'s fit among the datasets the batch was built from; "" for
        a single fit."""
        return "" if self._single else template.format(f"batch member {self.members[row]}")

    def keep(self, rows):
        """Keep only the given members; the genotype constants stay."""
        self.Y = self.Y[rows]
        self.yy = self.yy[rows]
        self.members = self.members[rows]


def batch_of(state: VariationalState, data):
    """(batch, BatchData) of a plain or stacked state.

    A plain state with its Dataset enters as a batch of one; a stacked state
    brings the BatchData of its members.
    """
    if state.eta.ndim == 2:
        if not isinstance(data, Dataset):
            raise ValidationError("a single state needs its Dataset")
        return state.as_batch(), BatchData([data])
    if not (isinstance(data, BatchData) and len(data) == len(state.eta)):
        raise ValidationError(f"a batch of {len(state.eta)} states needs a BatchData of as many members")
    return state, data


@dataclass(frozen=True)
class PlantedTruth:
    """Simulation ground truth: inclusion matrix and effects, from which the
    SNP-trait association mask used for precision/recall scoring follows."""

    Z_true: np.ndarray
    A_true: np.ndarray

    def __post_init__(self):
        Z = owned_array(self.Z_true, np.int8)
        A = owned_array(self.A_true, np.float64)
        if Z.ndim != 2 or A.ndim != 2 or Z.shape[1] != A.shape[0]:
            raise ValidationError(
                f"inconsistent truth shapes: Z_true {Z.shape}, A_true {A.shape}"
            )
        if Z.shape[1] < 1:
            raise ValidationError("planted truth needs at least one factor")
        if not np.isin(Z, (0, 1)).all():
            raise ValidationError("Z_true must be binary")
        object.__setattr__(self, "Z_true", Z)
        object.__setattr__(self, "A_true", A)

    @property
    def mask(self) -> np.ndarray:
        """mask[q, p] = 1 iff some factor k has Z[q, k] = 1 and |A[k, p]| > 0."""
        return (self.Z_true.astype(np.float64) @ (np.abs(self.A_true) > 0)) > 0
