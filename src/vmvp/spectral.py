"""Truncated Fourier fields on the d-torus and their weighted-norm calculus.

A field lives on [0, 2pi)^d with the normalized Lebesgue measure and is stored
as complex coefficients F(k) for k in the symmetric box ||k||_inf <= K, with
the convention

    f(x) = sum_k F(k) exp(+i k.x).

Real fields satisfy F(-k) = conj(F(k)); all operations here preserve that
symmetry to round-off.  Products are dealiased by zero-padding onto a
2*(2K+1) collocation grid, so the retained modes equal the exact convolution
restricted to the cutoff box.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ValidationError


@lru_cache(maxsize=32)
def mode_vectors(dim: int, cutoff: int) -> np.ndarray:
    """Integer wavenumber components, shape (dim, 2K+1, ..., 2K+1)."""
    axes = [np.arange(-cutoff, cutoff + 1)] * dim
    out = np.array(np.meshgrid(*axes, indexing="ij"))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def ik_vectors(dim: int, cutoff: int) -> np.ndarray:
    """i k per mode, shape (dim, 2K+1, ..., 2K+1): the symbol of the gradient."""
    out = 1j * mode_vectors(dim, cutoff)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def mode_norms(dim: int, cutoff: int) -> np.ndarray:
    """Euclidean |k| per mode (the weight exponent in the delta norms)."""
    k = mode_vectors(dim, cutoff)
    return np.sqrt((k.astype(float) ** 2).sum(axis=0))


@lru_cache(maxsize=32)
def mode_norms_sq(dim: int, cutoff: int) -> np.ndarray:
    k = mode_vectors(dim, cutoff)
    return (k ** 2).sum(axis=0).astype(float)


def padded_grid_size(cutoff: int) -> int:
    # 2*(2K+1) >= 4K+2: pointwise products of box-limited fields are alias-free.
    return 2 * (2 * cutoff + 1)


def _phase_rows(x: np.ndarray, cutoff: int) -> np.ndarray:
    """[cos(k x); sin(k x)] for k = 0..K as a real (2(K+1), n) matrix, one row per wavenumber.

    Built from one exponential per point and a power recurrence on the unit
    circle; agrees with direct evaluation to a few ulps.
    """
    out = np.empty((cutoff + 1, x.shape[0]), dtype=np.complex128)
    out[0] = 1.0
    if cutoff:
        out[1] = np.exp(1j * x)
        for k in range(2, cutoff + 1):
            np.multiply(out[k - 1], out[1], out=out[k])
    return np.concatenate([out.real, out.imag])


@lru_cache(maxsize=32)
def _dft_matrices(cutoff: int, n: int):
    """Pruned DFT matrices between the K-box and an n-point axis, all real.

    syn (2n, 2J): the complex (n, J) matrix F = exp(i k x_j), k = -K..K,
    over its derivative F diag(i k), each written [Re | Im] for `_syn_along`;
    half (2, 2(K+1), n): rows cos(k x_j), -sin(k x_j) interleaved, k = 0..K,
    then their x-derivatives -k sin(k x_j), -k cos(k x_j);
    ana (2J, n): G = conj(F)^T / n written [Re; Im] for `_ana_along`;
    ana_half (n, 2(K+1)): half[0]^T / n.
    Angles are reduced mod n before scaling, so every entry is accurate to
    an ulp.
    """
    j = np.arange(n)
    k = np.arange(-cutoff, cutoff + 1)
    full = np.exp(1j * (2 * np.pi / n) * (np.outer(j, k) % n))
    kh = np.arange(cutoff + 1)[:, None]
    angle = (2 * np.pi / n) * (kh * j % n)
    cos, sin = np.cos(angle), np.sin(angle)
    half = np.stack([np.stack([cos, -sin], axis=1), np.stack([-kh * sin, -kh * cos], axis=1)])
    half = half.reshape(2, 2 * (cutoff + 1), n)
    syn = np.concatenate([full, full * (1j * k)])
    ana = full.conj().T / n
    mats = (
        np.concatenate([syn.real, syn.imag], axis=1),
        half,
        np.concatenate([ana.real, ana.imag]),
        np.ascontiguousarray(half[0].T) / n,
    )
    for m in mats:
        m.flags.writeable = False
    return mats


def _syn_along(mat: np.ndarray, t: np.ndarray, pos: int) -> np.ndarray:
    """M t along axis `pos` of the complex t, for a complex (p, q) matrix M given as [Re M | Im M] (p, 2q).

    M t is [Re M | Im M] times the float view of t and i t stacked along the
    axis: one real matrix product per leading index.  Stacking the input
    suits p > q, as in a synthesis.
    """
    pre, tail = t.shape[:pos], t.shape[pos + 1 :]
    t = t.reshape(pre + (t.shape[pos], -1))
    s = np.empty(pre + (2,) + t.shape[-2:], dtype=np.complex128)
    s[..., 0, :, :] = t
    np.multiply(t, 1j, out=s[..., 1, :, :])
    out = mat @ s.reshape(pre + (-1, t.shape[-1])).view(np.float64)
    return out.view(np.complex128).reshape(pre + (mat.shape[0],) + tail)


def _ana_along(mat: np.ndarray, t: np.ndarray, pos: int) -> np.ndarray:
    """M t along axis `pos` of the complex t, for a complex (p, q) matrix M given as [Re M; Im M] (2p, q).

    A real matrix acts on complex data as one real product on its float view,
    so [Re M; Im M] t is one real matrix product per leading index, and
    M t = Re M t + i Im M t is formed from its two halves.  Stacking the
    output suits p < q, as in an analysis.
    """
    pre, q, tail = t.shape[:pos], t.shape[pos], t.shape[pos + 1 :]
    p = mat.shape[0] // 2
    u = mat @ np.ascontiguousarray(t).reshape(pre + (q, -1)).view(np.float64)
    u = u.reshape(pre + (2, p, -1, 2))
    out = np.empty(pre + (p,) + u.shape[-2:])
    np.subtract(u[..., 0, :, :, 0], u[..., 1, :, :, 1], out=out[..., 0])
    np.add(u[..., 0, :, :, 1], u[..., 1, :, :, 0], out=out[..., 1])
    return out.view(np.complex128).reshape(pre + (p,) + tail)


def _synthesis(coeffs: np.ndarray, dim: int, n: int | None = None, gradient: bool = False) -> np.ndarray:
    """Real part of the box sum on the uniform n^dim grid, for any leading axes.

    coeffs has shape (..., 2K+1, ..., 2K+1) with dim trailing mode axes and
    need not be Hermitian.  The last axis is folded onto k_d = 0..K by
    Re(c e^{ik.x}) = Re(conj(c) e^{-ik.x}); the other mode axes go through
    the complex (n, 2K+1) matrix as real products (`_syn_along`) and the
    last through the real [cos | sin] one.  Each field is transformed by
    matrix products of its own, so its grid does not depend on the batch.

    With `gradient` the result is (1 + dim, ..., n, ..., n): the field, then
    its dim partial derivatives, on a new leading axis.  They come from the
    derivative matrices, F diag(ik) on the other axes (applied with F in one
    product) and the derivative of [cos | sin] on the last, so the fold and
    the products ahead of each axis are shared; they equal the synthesis of
    i k_a coeffs to round-off.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    K = (c.shape[-1] - 1) // 2
    if n is None:
        n = padded_grid_size(K)
    if n < 2 * K + 1:
        raise ValidationError("grid too small for the cutoff box")
    syn, half, _, _ = _dft_matrices(K, n)
    lead, mode_axes = c.shape[:-dim], tuple(range(-dim, -1))
    h = c[..., K:] + np.conj(np.flip(c[..., K::-1], axis=mode_axes))
    h[..., 0] *= 0.5
    # with `gradient`, each other axis becomes (2, n): its value and its derivative
    m = syn if gradient else syn[:n]
    for a in range(dim - 1):
        pos = len(lead) + (2 if gradient else 1) * a
        h = _syn_along(m, h, pos)
        if gradient:
            h = h.reshape(h.shape[:pos] + (2, n) + h.shape[pos + 1 :])
    h = h.view(np.float64)                                   # (Re, Im) pairs, k_d = 0..K
    if not gradient:
        return h @ half[0]
    out = np.empty((1 + dim,) + lead + (n,) * dim)
    for a in range(dim + 1):  # the value, d_1 .. d_{dim-1} from the branches, d_dim from the last matrix
        pick = sum(((int(a == b + 1), slice(None)) for b in range(dim - 1)), ())
        np.matmul(h[(Ellipsis,) + pick + (slice(None),)], half[int(a == dim)], out=out[a])
    return out


def _analysis(grid: np.ndarray, dim: int, cutoff: int) -> np.ndarray:
    """Box coefficients of real grid samples (..., n_1, ..., n_dim), exactly Hermitian.

    The real last axis goes through the [cos | sin] matrix, giving k_d = 0..K,
    the other axes through the complex (2K+1, n) one as real products
    (`_ana_along`); k_d < 0 is the mirror conj(c(-k)), and the k_d = 0
    plane is averaged with its mirror.
    """
    g = np.asarray(grid)
    if np.iscomplexobj(g):
        raise ValidationError("from_grid expects real grid samples")
    if g.ndim < dim or min(g.shape[-dim:]) < 2 * cutoff + 1:
        raise ValidationError(f"grid of shape {g.shape} too small for the cutoff box K={cutoff}")
    K = cutoff
    g = np.ascontiguousarray(g, dtype=np.float64)
    t = (g @ _dft_matrices(K, g.shape[-1])[3]).view(np.complex128)
    mode_axes = tuple(range(-dim, -1))
    for a in mode_axes:
        t = _ana_along(_dft_matrices(K, g.shape[a])[2], t, t.ndim + a)
    out = np.empty(t.shape[:-1] + (2 * K + 1,), dtype=np.complex128)
    out[..., K + 1:] = t[..., 1:]
    np.conjugate(np.flip(t[..., 1:], axis=mode_axes + (-1,)), out=out[..., :K])
    t0 = t[..., 0]
    out[..., K] = 0.5 * (t0 + np.conj(np.flip(t0, axis=tuple(a + 1 for a in mode_axes))))
    return out


# float64's unit round-off: the l1 mass `evaluate_at` may leave out, relative to the whole
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _support_radii(coeffs: np.ndarray) -> tuple[int, ...]:
    """Per-axis radii r_a of the centred box that `evaluate_at` sums, for coeffs (m, 2K+1, ..., 2K+1).

    r_a is the smallest radius whose outer rings |k_a| > r_a carry at most
    (u / d) sum |c| of l1 mass, all components together; the union of the d
    dropped slabs then carries at most u sum |c|.  A zero field gets radius 0
    on every axis, and a non-finite coefficient (or sum) the full box.
    """
    d, K = coeffs.ndim - 1, (coeffs.shape[-1] - 1) // 2
    mass = np.abs(coeffs).sum(axis=0)
    total = mass.sum()
    if not np.isfinite(total):
        return (K,) * d
    budget = UNIT_ROUNDOFF / d * total
    radii = []
    for a in range(d):
        ring = mass.sum(axis=tuple(b for b in range(d) if b != a))     # by k_a = -K..K
        ring = ring[K + 1:] + ring[:K][::-1]                              # by |k_a| = 1..K
        tail = np.cumsum(ring[::-1])[::-1]                                # mass beyond |k_a| = 0..K-1
        radii.append(int(np.count_nonzero(tail > budget)))
    return tuple(radii)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable truncated Fourier representation of a real field.

    coeffs has shape (m, 2K+1, ..., 2K+1) with d trailing axes; index j along
    a spatial axis corresponds to wavenumber k = j - K.  m = 1 for scalars,
    m = d for vectors.
    """

    dim: int
    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        expected = (2 * self.cutoff + 1,) * self.dim
        if c.ndim != self.dim + 1 or c.shape[1:] != expected:
            raise ValidationError(
                f"coefficient array shape {c.shape} does not match dim={self.dim}, K={self.cutoff}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.components == 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, dim: int, cutoff: int, components: int = 1) -> "SpectralField":
        return cls(dim, cutoff, np.zeros((components,) + (2 * cutoff + 1,) * dim, dtype=np.complex128))

    @classmethod
    def constant(cls, dim: int, cutoff: int, values) -> "SpectralField":
        values = np.atleast_1d(np.asarray(values, dtype=float))
        c = np.zeros((values.size,) + (2 * cutoff + 1,) * dim, dtype=np.complex128)
        center = (slice(None),) + (cutoff,) * dim
        c[center] = values
        return cls(dim, cutoff, c)

    @classmethod
    def from_modes(cls, dim: int, cutoff: int, components: int, entries) -> "SpectralField":
        """Build a real field from (component, k-vector, complex amplitude) entries.

        Each entry also deposits the conjugate at -k, so listing only one
        representative of a +-k pair yields a real field; a k = 0 entry
        contributes its real part.
        """
        c = np.zeros((components,) + (2 * cutoff + 1,) * dim, dtype=np.complex128)
        for comp, kvec, amp in entries:
            kvec = tuple(int(k) for k in kvec)
            if len(kvec) != dim:
                raise ValidationError(f"mode {kvec} has wrong dimension")
            if any(abs(k) > cutoff for k in kvec):
                raise ValidationError(f"mode {kvec} outside cutoff box K={cutoff}")
            idx = (int(comp),) + tuple(k + cutoff for k in kvec)
            amp = complex(amp)
            if all(k == 0 for k in kvec):
                c[idx] += amp.real
            else:
                c[idx] += amp
                nidx = (int(comp),) + tuple(-k + cutoff for k in kvec)
                c[nidx] += np.conj(amp)
        return cls(dim, cutoff, c)

    @classmethod
    def from_grid(cls, grid: np.ndarray, cutoff: int) -> "SpectralField":
        """Transform (m, N, ..., N) real grid samples into box coefficients."""
        grid = np.asarray(grid)
        return cls(grid.ndim - 1, cutoff, _analysis(grid, grid.ndim - 1, cutoff))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def to_grid(self, n: int | None = None, gradient: bool = False) -> np.ndarray:
        """Collocation values on the (padded) uniform grid, shape (m, n, ..., n).

        With `gradient`, shape (1 + d, m, n, ..., n): the values, then the d
        partial derivatives, from one shared synthesis.
        """
        return _synthesis(self.coeffs, self.dim, n, gradient)

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric sum over the field's numerical support at arbitrary points, shape (n_pts, m).

        Returns the real part of the box sum for any coefficient array, taken
        over the centred sub-box |k_a| <= r_a of `_support_radii`: the modes
        it leaves out carry at most u sum |c| of l1 mass (u = 2^-53, all
        components together), and since |e^{ik.x}| = 1 every value moves by
        at most u sum |c|, under one rounding of the largest value the sum
        can take.  The push evaluates stack([E, B]) as one field, so with
        eps |v| < 1 its Lorentz force moves by at most 2 u (|E|_l1 + |B|_l1).
        A non-finite coefficient keeps the full box, so NaN and inf propagate.

        Re(c e^{ik.x}) = Re(conj(c) e^{-ik.x}), so each k1 < 0 term folds
        onto its mirror -k and only the half box k1 = 0..r_1 is summed:

            h[0, k'] = (c[0, k'] + conj(c[0, -k'])) / 2,
            h[k1, k'] = c[k1, k'] + conj(c[-k1, -k'])        (k1 > 0).

        Each further axis folds k and -k by
        h[k] e^{ikx} + h[-k] e^{-ikx} = (h[k] + h[-k]) cos kx + i (h[k] - h[-k]) sin kx,
        so along it the coefficients of cos kx, sin kx (k = 0..r_a) are

            g_cos[0] = h[0],  g_cos[k] = h[k] + h[-k],
            g_sin[0] = 0,     g_sin[k] = i (h[k] - h[-k])          (k > 0),

        against real basis functions.  Only the first axis keeps a complex
        factor, and Re((a + ib) e^{ik1 x1}) = a cos k1x1 - b sin k1x1, so the
        sum is the real tensor [Re g; -Im g], of shape
        (m, 2(r_1+1), ..., 2(r_d+1)), contracted with [cos; sin](x_a) on every
        axis: one GEMM for the first axis, then one per-point contraction
        per further axis.  On the sub-box this is the naive evaluation
        reassociated; it agrees with it to round-off.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValidationError(f"points have dimension {pts.shape[1]}, field has {self.dim}")
        d, K, m, n = self.dim, self.cutoff, self.components, pts.shape[0]
        radii = _support_radii(self.coeffs)
        c = self.coeffs[(slice(None),) + tuple(slice(K - r, K + r + 1) for r in radii)]
        h = c[:, radii[0]:] + np.conj(np.flip(c[:, radii[0]::-1], axis=tuple(range(2, d + 1))))
        h[:, 0] *= 0.5
        for a in range(2, d + 1):
            r = radii[a - 1]
            pos = np.take(h, range(r + 1, 2 * r + 1), axis=a)
            neg = np.take(h, range(r - 1, -1, -1), axis=a)
            zero = np.take(h, [r], axis=a)
            h = np.concatenate([zero, pos + neg, np.zeros_like(zero), 1j * (pos - neg)], axis=a)
        g = np.concatenate([h.real, -h.imag], axis=1)                    # (m, 2(r_1+1), ..., 2(r_d+1))
        sizes = g.shape[1:]
        # t[m, j2.., point]: the first-axis sum, real in the folded j2..jd
        t = np.moveaxis(g, 1, 0).reshape(sizes[0], -1).T @ _phase_rows(pts[:, 0], radii[0])
        for a in range(1, d):
            t = t.reshape(m, sizes[a], math.prod(sizes[a + 1:]), n)
            t = np.einsum("mjrn,jn->mrn", t, _phase_rows(pts[:, a], radii[a]))
        return t.reshape(m, n).T

    # ------------------------------------------------------------------
    # arithmetic in coefficient space
    # ------------------------------------------------------------------
    def _like(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.dim, self.cutoff, coeffs)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other, same_components=True)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other, same_components=True)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self._like(-self.coeffs)


def to_grid(coeffs: np.ndarray, dim: int, n: int | None = None, gradient: bool = False) -> np.ndarray:
    """SpectralField.to_grid for coefficients (..., m, 2K+1, ..., 2K+1) with leading batch axes.

    The batch axes are folded into the component axis of one field, so the
    methods stay the single entry point of every grid transform; each
    component is transformed on its own, so the result equals per-field calls.
    """
    c = np.asarray(coeffs)
    if c.ndim < dim:
        raise ValidationError(f"coefficient array of shape {c.shape} has fewer than {dim} mode axes")
    f = SpectralField(dim, (c.shape[-1] - 1) // 2, c.reshape((-1,) + c.shape[c.ndim - dim :]))
    if gradient:  # the values and the partial derivatives on a new leading axis
        g = f.to_grid(n, gradient=True)
        return g.reshape(g.shape[:1] + c.shape[: c.ndim - dim] + g.shape[2:])
    g = f.to_grid(n)
    return g.reshape(c.shape[: c.ndim - dim] + g.shape[1:])


def from_grid(grid: np.ndarray, dim: int, cutoff: int) -> np.ndarray:
    """SpectralField.from_grid(...).coeffs for real grids (..., m, n_1, ..., n_dim) with leading batch axes."""
    g = np.asarray(grid)
    if g.ndim < dim:
        raise ValidationError(f"grid of shape {g.shape} has fewer than {dim} axes")
    c = SpectralField.from_grid(g.reshape((-1,) + g.shape[g.ndim - dim :]), cutoff).coeffs
    return c.reshape(g.shape[: g.ndim - dim] + c.shape[1:])


def stack(fields: Sequence[SpectralField]) -> SpectralField:
    f0 = fields[0]
    return SpectralField(f0.dim, f0.cutoff, np.concatenate([f.coeffs for f in fields], axis=0))


def _check_compatible(f: SpectralField, g: SpectralField, same_components: bool = False) -> None:
    if f.dim != g.dim or f.cutoff != g.cutoff:
        raise ValidationError("fields live on different mode boxes")
    if same_components and f.components != g.components:
        raise ValidationError("component count mismatch")


# ----------------------------------------------------------------------
# weighted analytic norms
# ----------------------------------------------------------------------

# radii delta0 > ... > 1 at which shrinking_norm takes its supremum
DELTA_GRID_SIZE = 16


@dataclass(frozen=True)
class AnalyticNormParams:
    """Parameters of the shrinking-radius norm.

    delta is the working (lower) radius, delta0 the initial one; eta > 0
    sets the shrink rate, beta in (0,1) the loss exponent.  The weight
    delta^|k| uses the Euclidean |k|.
    """

    delta0: float
    delta: float = 1.0
    eta: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if not (self.delta0 > 1.0):
            raise ValidationError("delta0 must exceed 1")
        if self.delta > self.delta0:
            raise ValidationError("delta <= delta0 required")
        if not (0.0 < self.beta < 1.0):
            raise ValidationError("beta must lie in (0,1)")
        if not (self.eta > 0.0):
            raise ValidationError("eta must be positive")

    def delta_grid(self) -> np.ndarray:
        j = np.arange(DELTA_GRID_SIZE)
        return self.delta0 * (1.0 - j / DELTA_GRID_SIZE) + 1.0 * (j / DELTA_GRID_SIZE)


def analytic_norm(f: SpectralField, delta: float) -> float:
    """Weighted coefficient norm  sum_k |F(k)| delta^|k|; max over components."""
    if delta <= 1.0:
        raise ValidationError("delta must exceed 1")
    w = delta ** mode_norms(f.dim, f.cutoff)
    per_comp = (np.abs(f.coeffs) * w).sum(axis=tuple(range(1, f.dim + 1)))
    return float(per_comp.max())


def shrinking_norm(
    times: Sequence[float],
    fields: Sequence[SpectralField] | np.ndarray,
    p: AnalyticNormParams,
    delta_grid: Sequence[float] | None = None,
) -> float:
    """Discrete supremum of |u(t)|_delta + (delta0 - delta - t/eta)^beta |grad u(t)|_delta.

    The supremum runs over the sampled times and a delta grid, restricted to
    the admissible wedge t <= eta*(delta0 - delta).  `fields` is one
    SpectralField per time or their stacked coefficients, shape
    (times, m, 2K+1, ..., 2K+1).
    """
    times = np.asarray(list(times), dtype=float)
    if times.size == 0 or len(fields) == 0:
        raise ValidationError("empty trajectory")
    if len(fields) != times.size:
        raise ValidationError("times and fields length mismatch")
    grid = np.asarray(list(delta_grid), dtype=float) if delta_grid is not None else p.delta_grid()
    coeffs = fields if isinstance(fields, np.ndarray) else np.stack([u.coeffs for u in fields])
    dim, cutoff = coeffs.ndim - 2, (coeffs.shape[-1] - 1) // 2
    # every time and delta at once: (times, components, modes) @ (modes, deltas)
    au = np.abs(coeffs.reshape(times.size, coeffs.shape[1], -1))
    # |d_a u| = |k_a| |u| mode by mode, for every component and axis
    ag = np.abs(mode_vectors(dim, cutoff)).reshape(1, dim, -1) * au[:, :, None]
    w = grid[:, None] ** mode_norms(dim, cutoff).reshape(1, -1)
    nu = (au @ w.T).max(axis=1)                                              # (times, deltas)
    ng = (ag.reshape(times.size, -1, au.shape[-1]) @ w.T).max(axis=1)
    margin = p.delta0 - grid[None, :] - times[:, None] / p.eta
    ok = (margin >= 0) & (grid[None, :] > 1.0)
    val = nu + np.where(ok, margin, 0.0) ** p.beta * ng
    return float(val[ok].max(initial=0.0))


# ----------------------------------------------------------------------
# differential operators (exact on the cutoff box)
# ----------------------------------------------------------------------

def derivative(f: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis, axis in 1..d; mode-wise multiplication by i*k_axis."""
    if not (1 <= axis <= f.dim):
        raise ValidationError(f"axis {axis} out of range for dim {f.dim}")
    return f._like(f.coeffs * ik_vectors(f.dim, f.cutoff)[axis - 1])


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field as a d-component vector field."""
    if not f.is_scalar:
        raise ValidationError("gradient expects a scalar field")
    return stack([derivative(f, a + 1) for a in range(f.dim)])


def divergence(f: SpectralField) -> SpectralField:
    if f.components != f.dim:
        raise ValidationError("divergence expects a d-component vector field")
    out = (ik_vectors(f.dim, f.cutoff) * f.coeffs).sum(axis=0, keepdims=True)
    return SpectralField(f.dim, f.cutoff, out)


def cross(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """a x b with components on axis 0: the full product for d=3, the planar (a2 b, -a1 b) of a scalar b for d=2.

    The components of a and b broadcast, and each is written straight into
    the one result array.
    """
    if dim not in (2, 3):
        raise ValidationError("cross product needs d in {2,3}")
    out = np.empty((dim,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=np.result_type(a, b))
    if dim == 2:
        np.multiply(a[1], b[0], out=out[0])
        np.multiply(a[0], b[0], out=out[1])
        np.negative(out[1], out=out[1])
    else:
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            np.multiply(a[j], b[k], out=out[i])
            out[i] -= a[k] * b[j]
    return out


def curl_coeffs(c: np.ndarray, dim: int) -> np.ndarray:
    """Curl of vector coefficients (..., d, J..): i k x c for d=3, the scalar (d1 A2 - d2 A1) for d=2."""
    cutoff = (c.shape[-1] - 1) // 2
    k = mode_vectors(dim, cutoff)
    c = np.moveaxis(c, -(dim + 1), 0)
    if dim == 3:
        out = cross(ik_vectors(dim, cutoff), c, 3)
    elif dim == 2:
        out = (1j * (k[0] * c[1] - k[1] * c[0]))[None]
    else:
        raise ValidationError("curl defined for d=3 vectors and d=2 planar vectors")
    return np.moveaxis(out, 0, -(dim + 1))


def curl(f: SpectralField) -> SpectralField:
    """Curl: vector->vector for d=3, vector->scalar (d1 A2 - d2 A1) for d=2."""
    if f.components != f.dim:
        raise ValidationError("curl defined for d=3 vectors and d=2 planar vectors")
    return f._like(curl_coeffs(f.coeffs, f.dim))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise product; scalar*scalar or scalar*vector."""
    _check_compatible(f, g)
    if f.components != 1 and g.components != 1:
        raise ValidationError("multiply handles scalar*scalar or scalar*vector")
    n = padded_grid_size(f.cutoff)
    prod = f.to_grid(n) * g.to_grid(n)
    return SpectralField.from_grid(prod, f.cutoff)


# ----------------------------------------------------------------------
# elliptic solves and projections
# ----------------------------------------------------------------------

TOL_NEUTRALITY = 1e-10
TOL_DIV_B = 1e-10  # biot_savart: relative mode-wise div B residual accepted as solenoidal


def mean(f: SpectralField) -> np.ndarray:
    """Spatial mean = k=0 coefficient (real part), one value per component."""
    center = (slice(None),) + (f.cutoff,) * f.dim
    return f.coeffs[center].real.copy()


def l2_norm(f: SpectralField) -> float:
    """L2 norm w.r.t. the normalized measure (Parseval over the box)."""
    return float(np.sqrt((np.abs(f.coeffs) ** 2).sum()))


def poisson_coeffs(rho_c: np.ndarray, dim: int) -> np.ndarray:
    """phi with -Lap(phi) = rho - 1, zero mean, for densities (..., 1, J..); requires <rho> = 1."""
    cutoff = (rho_c.shape[-1] - 1) // 2
    dev = rho_c[(...,) + (cutoff,) * dim].real - 1.0
    worst = dev.flat[np.abs(dev).argmax()]
    if abs(worst) > TOL_NEUTRALITY:
        raise ValidationError(f"charge neutrality violated: <rho> - 1 = {worst:.3e}")
    return rho_c * _inverse_k2(dim, cutoff)


@lru_cache(maxsize=32)
def _inverse_k2(dim: int, cutoff: int) -> np.ndarray:
    k2 = mode_norms_sq(dim, cutoff)
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = 1.0 / k2[nz]
    inv.flags.writeable = False
    return inv


def solve_poisson(rho: SpectralField) -> SpectralField:
    """Solve -Lap(phi) = rho - 1 with zero-mean phi; requires <rho> = 1."""
    if not rho.is_scalar:
        raise ValidationError("solve_poisson expects a scalar density")
    return rho._like(poisson_coeffs(rho.coeffs, rho.dim))


def leray_coeffs(c: np.ndarray, dim: int) -> np.ndarray:
    """Mode-wise (Id - k k^T/|k|^2) on vector coefficients (..., d, J..); k = 0 passes through."""
    cutoff = (c.shape[-1] - 1) // 2
    k = mode_vectors(dim, cutoff).astype(float)
    kdotf = (k * c).sum(axis=-(dim + 1), keepdims=True)
    return c - k * (kdotf * _inverse_k2(dim, cutoff))


def leray_project(f: SpectralField) -> SpectralField:
    """Mode-wise (Id - k k^T/|k|^2); the k=0 mode passes through unchanged."""
    if f.dim < 2 or f.components != f.dim:
        raise ValidationError("leray_project expects a d-component vector field, d >= 2")
    return f._like(leray_coeffs(f.coeffs, f.dim))


def helmholtz_decompose(f: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split F = grad_part + divfree_part exactly, mode by mode."""
    divfree = leray_project(f)
    return f - divfree, divfree


def biot_savart(b: SpectralField) -> SpectralField:
    """Vector potential A = i k x B / |k|^2: curl A = B - <B>, div A = 0, <A> = 0.

    d=3 expects a solenoidal vector B; d=2 expects a scalar B (planar curl).
    """
    if b.dim == 3 and b.components == 3:
        divres = np.abs(divergence(b).coeffs).max()
        scale = np.abs(b.coeffs).max()
        if divres > TOL_DIV_B * max(scale, 1.0):
            raise ValidationError(f"biot_savart requires div B = 0 mode-wise (residual {divres:.3e})")
    elif not (b.dim == 2 and b.components == 1):
        raise ValidationError("biot_savart: need d=3 vector B or d=2 scalar B")
    return b._like(cross(ik_vectors(b.dim, b.cutoff), b.coeffs, b.dim) * _inverse_k2(b.dim, b.cutoff))


def reality_residual(f: SpectralField) -> float:
    """Max |F(-k) - conj(F(k))| relative to the largest coefficient."""
    flipped = f.coeffs
    for ax in range(1, f.dim + 1):
        flipped = np.flip(flipped, axis=ax)
    num = np.abs(flipped - np.conj(f.coeffs)).max()
    den = max(np.abs(f.coeffs).max(), 1e-300)
    return float(num / den)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def read_binary(path, fmt: str, counts: Sequence[str] = (), numbers: Sequence[str] = ()) -> tuple[dict, bytes]:
    """JSON header line and the raw bytes after it, for vmvp's binary files.

    Checks the format tag, that each header field in `counts` is a
    non-negative integer and each one in `numbers` a finite real number.
    Callers check the byte length with `expect_bytes`.
    """
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # undecodable or non-JSON header line
        raise ValidationError(f"unreadable header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValidationError(f"unrecognized file format in {path} (expected {fmt})")
    for key in counts:
        v = header.get(key)
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValidationError(f"{path}: header field {key!r} must be a non-negative integer, got {v!r}")
    for key in numbers:
        v = header.get(key)  # a JSON integer may lie past the float range, NaN and inf compare False
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ValidationError(f"{path}: header field {key!r} must be a finite number, got {v!r}")
    return header, raw


def expect_bytes(path, raw: bytes, n: int) -> None:
    if len(raw) != n:
        raise ValidationError(f"{path}: {len(raw)} data bytes, the header implies {n}")
