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

import io
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

FIELD_CONVENTION = "exp(+ikx), normalized measure"


@lru_cache(maxsize=32)
def mode_vectors(dim: int, cutoff: int) -> np.ndarray:
    """Integer wavenumber components, shape (dim, 2K+1, ..., 2K+1)."""
    axes = [np.arange(-cutoff, cutoff + 1)] * dim
    out = np.array(np.meshgrid(*axes, indexing="ij"))
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
    """exp(i k x) for k = 0..K as a (K+1, n) matrix, one row per wavenumber.

    Built from one exponential per point and a power recurrence on the unit
    circle; agrees with direct exp evaluation to a few ulps.
    """
    out = np.empty((cutoff + 1, x.shape[0]), dtype=np.complex128)
    out[0] = 1.0
    if cutoff:
        out[1] = np.exp(1j * x)
        for k in range(2, cutoff + 1):
            np.multiply(out[k - 1], out[1], out=out[k])
    return out


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
    def from_modes(cls, dim: int, cutoff: int, components: int, entries, symmetrize: bool = True) -> "SpectralField":
        """Build a field from (component, k-vector, complex amplitude) entries.

        With symmetrize=True each entry also deposits the conjugate at -k, so
        listing only one representative of a +-k pair yields a real field.
        The k = 0 entry is forced real in that case.
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
            if symmetrize:
                if all(k == 0 for k in kvec):
                    c[idx] += amp.real
                else:
                    c[idx] += amp
                    nidx = (int(comp),) + tuple(-k + cutoff for k in kvec)
                    c[nidx] += np.conj(amp)
            else:
                c[idx] += amp
        return cls(dim, cutoff, c)

    @classmethod
    def from_grid(cls, grid: np.ndarray, cutoff: int) -> "SpectralField":
        """Transform (m, N, ..., N) real grid samples into box coefficients."""
        grid = np.asarray(grid)
        dim = grid.ndim - 1
        axes = tuple(range(1, dim + 1))
        n_tot = np.prod(grid.shape[1:])
        chat = np.fft.fftn(grid, axes=axes) / n_tot
        chat = np.fft.fftshift(chat, axes=axes)
        sl = [slice(None)]
        for ax in axes:
            center = grid.shape[ax] // 2
            sl.append(slice(center - cutoff, center + cutoff + 1))
        return cls(dim, cutoff, chat[tuple(sl)])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def to_grid(self, n: int | None = None) -> np.ndarray:
        """Collocation values on the (padded) uniform grid, shape (m, n, ..., n)."""
        if n is None:
            n = padded_grid_size(self.cutoff)
        if n < 2 * self.cutoff + 1:
            raise ValidationError("grid too small for the cutoff box")
        axes = tuple(range(1, self.dim + 1))
        padded = np.zeros((self.components,) + (n,) * self.dim, dtype=np.complex128)
        sl = [slice(None)]
        for _ in range(self.dim):
            center = n // 2
            sl.append(slice(center - self.cutoff, center + self.cutoff + 1))
        padded[tuple(sl)] = self.coeffs
        padded = np.fft.ifftshift(padded, axes=axes)
        vals = np.fft.ifftn(padded, axes=axes) * (n ** self.dim)
        return vals.real

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Exact trigonometric sum at arbitrary points, shape (n_pts, m).

        Returns the real part of the full box sum for any coefficient array.
        Re(c e^{ik.x}) = Re(conj(c) e^{-ik.x}), so each k1 < 0 term folds
        onto its mirror -k and only the half box k1 = 0..K is summed:

            h[0] = (c[0, k'] + conj(c[0, -k'])) / 2,
            h[k1] = c[k1, k'] + conj(c[-k1, -k'])        (k1 > 0).

        The first axis is then one real GEMM of [cos, sin] against
        [[Re h, Im h], [-Im h, Re h]]; each further axis is a per-point
        contraction that carries (real, imaginary) pairs, and the last one
        keeps only the real part.  The same sum as the naive evaluation,
        reassociated; it agrees with it to round-off.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValidationError(f"points have dimension {pts.shape[1]}, field has {self.dim}")
        d, K, m, n = self.dim, self.cutoff, self.components, pts.shape[0]
        J = 2 * K + 1
        c = self.coeffs
        h = c[:, K:] + np.conj(np.flip(c[:, K::-1], axis=tuple(range(2, d + 1))))
        h[:, 0] *= 0.5
        h = np.moveaxis(h, 1, 0).reshape(K + 1, m, 1, -1)               # (K+1, m, 1, J^(d-1))
        e = _phase_rows(pts[:, 0], K)
        lhs = np.concatenate([e.real, e.imag])                           # (2(K+1), n): cos, sin
        if d == 1:
            return lhs.T @ np.concatenate([h.real, -h.imag]).reshape(2 * (K + 1), m)
        rhs = np.concatenate(
            [np.concatenate([h.real, h.imag], axis=2), np.concatenate([-h.imag, h.real], axis=2)]
        ).reshape(2 * (K + 1), -1)
        # t[m, (Re | Im, k2), k3.., point]: the first-axis sum, still complex in k2..kd
        t = (rhs.T @ lhs).reshape(m, 2 * J, J ** (d - 2), n)
        for a in range(1, d):
            e = _phase_rows(pts[:, a], K)
            cos = np.concatenate([e.real[::-1], e.real[1:]])              # k = -K..K
            sin = np.concatenate([-e.imag[::-1], e.imag[1:]])
            re = np.concatenate([cos, -sin])                              # Re((x + iy) e^{ikx}) = [x, y] . re
            if a == d - 1:
                return np.einsum("mjn,jn->nm", t[:, :, 0], re)
            im = np.concatenate([sin, cos])                               # Im((x + iy) e^{ikx}) = [x, y] . im
            t = np.einsum("mjkn,rjn->mrkn", t, np.stack([re, im])).reshape(m, 2 * J, J ** (d - 2 - a), n)

    def evaluate_at_naive(self, points: np.ndarray) -> np.ndarray:
        """Reference direct summation (slow); used to validate evaluate_at."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        k = mode_vectors(self.dim, self.cutoff).reshape(self.dim, -1)
        phase = np.exp(1j * pts @ k)                               # (n, modes)
        return (phase @ self.coeffs.reshape(self.components, -1).T).real

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

    def component(self, i: int) -> "SpectralField":
        return self._like(self.coeffs[i : i + 1])


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

@dataclass(frozen=True)
class AnalyticNormParams:
    """Parameters of the shrinking-radius norm.

    delta is the working (lower) radius, delta0 the initial one; eta sets the
    shrink rate, beta in (0,1) the loss exponent.  norm_of_k records the fixed
    choice of |k| in the weight delta^|k| (Euclidean; the only one built).
    """

    delta0: float
    delta: float = 1.0
    eta: float = 1.0
    beta: float = 0.5
    delta_grid_size: int = 16
    norm_of_k: str = "l2"

    def __post_init__(self):
        if not (self.delta0 > 1.0):
            raise ValidationError("delta0 must exceed 1")
        if self.delta > self.delta0:
            raise ValidationError("delta <= delta0 required")
        if not (0.0 < self.beta < 1.0):
            raise ValidationError("beta must lie in (0,1)")
        if self.norm_of_k != "l2":
            raise ValidationError("only the Euclidean mode norm is implemented")

    def delta_grid(self) -> np.ndarray:
        j = np.arange(self.delta_grid_size)
        return self.delta0 * (1.0 - j / self.delta_grid_size) + 1.0 * (j / self.delta_grid_size)

    @property
    def horizon(self) -> float:
        return self.eta * (self.delta0 - 1.0)


def analytic_norm(f: SpectralField, delta: float) -> float:
    """Weighted coefficient norm  sum_k |F(k)| delta^|k|; max over components."""
    if delta <= 1.0:
        raise ValidationError("delta must exceed 1")
    w = delta ** mode_norms(f.dim, f.cutoff)
    per_comp = (np.abs(f.coeffs) * w).sum(axis=tuple(range(1, f.dim + 1)))
    return float(per_comp.max())


def gradient_stack(f: SpectralField) -> SpectralField:
    """All first derivatives of all components stacked along the component axis."""
    parts = [derivative(f.component(c), a + 1) for c in range(f.components) for a in range(f.dim)]
    return stack(parts)


def shrinking_norm(
    times: Sequence[float],
    fields: Sequence[SpectralField],
    p: AnalyticNormParams,
    delta_grid: Sequence[float] | None = None,
) -> float:
    """Discrete supremum of |u(t)|_delta + (delta0 - delta - t/eta)^beta |grad u(t)|_delta.

    The supremum runs over the sampled times and a delta grid, restricted to
    the admissible wedge t <= eta*(delta0 - delta).
    """
    times = np.asarray(list(times), dtype=float)
    if times.size == 0 or len(fields) == 0:
        raise ValidationError("empty trajectory")
    if len(fields) != times.size:
        raise ValidationError("times and fields length mismatch")
    grid = np.asarray(list(delta_grid), dtype=float) if delta_grid is not None else p.delta_grid()
    f0 = fields[0]
    knorm = mode_norms(f0.dim, f0.cutoff)
    sup = 0.0
    sum_axes = tuple(range(1, f0.dim + 1))
    for t, u in zip(times, fields):
        au = np.abs(u.coeffs)
        ag = np.abs(gradient_stack(u).coeffs)
        for delta in grid:
            margin = p.delta0 - delta - t / p.eta
            if margin < 0 or delta <= 1.0:
                continue
            w = delta ** knorm
            nu = float((au * w).sum(axis=sum_axes).max())
            ng = float((ag * w).sum(axis=sum_axes).max())
            val = nu + margin ** p.beta * ng
            sup = max(sup, val)
    return sup


# ----------------------------------------------------------------------
# differential operators (exact on the cutoff box)
# ----------------------------------------------------------------------

def derivative(f: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis, axis in 1..d; mode-wise multiplication by i*k_axis."""
    if not (1 <= axis <= f.dim):
        raise ValidationError(f"axis {axis} out of range for dim {f.dim}")
    k = mode_vectors(f.dim, f.cutoff)[axis - 1]
    return f._like(f.coeffs * (1j * k))


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field as a d-component vector field."""
    if not f.is_scalar:
        raise ValidationError("gradient expects a scalar field")
    return stack([derivative(f, a + 1) for a in range(f.dim)])


def divergence(f: SpectralField) -> SpectralField:
    if f.components != f.dim:
        raise ValidationError("divergence expects a d-component vector field")
    k = mode_vectors(f.dim, f.cutoff)
    out = (1j * k * f.coeffs).sum(axis=0, keepdims=True)
    return SpectralField(f.dim, f.cutoff, out)


def curl(f: SpectralField) -> SpectralField:
    """Curl: vector->vector for d=3, vector->scalar (d1 A2 - d2 A1) for d=2."""
    k = mode_vectors(f.dim, f.cutoff)
    if f.dim == 3 and f.components == 3:
        c = f.coeffs
        out = np.stack(
            [
                1j * (k[1] * c[2] - k[2] * c[1]),
                1j * (k[2] * c[0] - k[0] * c[2]),
                1j * (k[0] * c[1] - k[1] * c[0]),
            ]
        )
        return SpectralField(3, f.cutoff, out)
    if f.dim == 2 and f.components == 2:
        out = 1j * (k[0] * f.coeffs[1] - k[1] * f.coeffs[0])
        return SpectralField(2, f.cutoff, out[None])
    raise ValidationError("curl defined for d=3 vectors and d=2 planar vectors")


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise product; scalar*scalar or scalar*vector."""
    _check_compatible(f, g)
    if f.components != 1 and g.components != 1:
        raise ValidationError("multiply handles scalar*scalar or scalar*vector; use dot for pairs of vectors")
    n = padded_grid_size(f.cutoff)
    prod = f.to_grid(n) * g.to_grid(n)
    return SpectralField.from_grid(prod, f.cutoff)


def dot(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise dot product of two vector fields (scalar result)."""
    _check_compatible(f, g, same_components=True)
    n = padded_grid_size(f.cutoff)
    prod = (f.to_grid(n) * g.to_grid(n)).sum(axis=0, keepdims=True)
    return SpectralField.from_grid(prod, f.cutoff)


def cross3(f: SpectralField, g: SpectralField) -> SpectralField:
    _check_compatible(f, g, same_components=True)
    if f.dim != 3 or f.components != 3:
        raise ValidationError("cross3 requires 3-component fields on the 3-torus")
    n = padded_grid_size(f.cutoff)
    a = f.to_grid(n)
    b = g.to_grid(n)
    out = np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )
    return SpectralField.from_grid(out, f.cutoff)


def compose_analytic(
    series: Sequence[float] | Callable[[int], float],
    f: SpectralField,
    radius: float,
    delta: float,
    n_terms: int = 24,
) -> tuple[SpectralField, float]:
    """Truncated power series h(f) = sum a_n f^n via repeated dealiased products.

    Requires |f|_delta < radius.  Returns (field, tail) where tail majorizes
    the dropped remainder by sum_{n>n_terms} |a_n| |f|_delta^n.
    """
    if not f.is_scalar:
        raise ValidationError("compose_analytic expects a scalar argument field")
    r = analytic_norm(f, delta)
    if r >= radius:
        raise ValidationError(f"|f|_delta = {r:.6g} is not below the series radius {radius:.6g}")
    coeff = (lambda n: float(series(n))) if callable(series) else (lambda n: float(series[n]) if n < len(series) else 0.0)
    out = SpectralField.constant(f.dim, f.cutoff, coeff(0))
    power = None
    for n in range(1, n_terms + 1):
        power = f if power is None else multiply(power, f)
        a = coeff(n)
        if a != 0.0:
            out = out + a * power
    tail = 0.0
    if r > 0:
        rn = r ** (n_terms + 1)
        for n in range(n_terms + 1, n_terms + 201):
            tail += abs(coeff(n)) * rn
            rn *= r
    return out, tail


def inverse_sqrt_series(n: int) -> float:
    """Taylor coefficients of (1+z)^(-1/2): a_n = (-1)^n C(2n,n) / 4^n."""
    a = 1.0
    for m in range(n):
        a *= -(0.5 + m) / (m + 1)
    return a


# ----------------------------------------------------------------------
# elliptic solves and projections
# ----------------------------------------------------------------------

TOL_NEUTRALITY = 1e-10


def mean(f: SpectralField) -> np.ndarray:
    """Spatial mean = k=0 coefficient (real part), one value per component."""
    center = (slice(None),) + (f.cutoff,) * f.dim
    return f.coeffs[center].real.copy()


def l2_norm(f: SpectralField) -> float:
    """L2 norm w.r.t. the normalized measure (Parseval over the box)."""
    return float(np.sqrt((np.abs(f.coeffs) ** 2).sum()))


def solve_poisson(rho: SpectralField, tol_neutrality: float = TOL_NEUTRALITY) -> SpectralField:
    """Solve -Lap(phi) = rho - 1 with zero-mean phi; requires <rho> = 1."""
    if not rho.is_scalar:
        raise ValidationError("solve_poisson expects a scalar density")
    m = mean(rho)[0]
    if abs(m - 1.0) > tol_neutrality:
        raise ValidationError(f"charge neutrality violated: <rho> - 1 = {m - 1.0:.3e}")
    k2 = mode_norms_sq(rho.dim, rho.cutoff)
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = 1.0 / k2[nz]
    return rho._like(rho.coeffs * inv)


def leray_project(f: SpectralField) -> SpectralField:
    """Mode-wise (Id - k k^T/|k|^2); the k=0 mode passes through unchanged."""
    if f.dim < 2 or f.components != f.dim:
        raise ValidationError("leray_project expects a d-component vector field, d >= 2")
    k = mode_vectors(f.dim, f.cutoff).astype(float)
    k2 = mode_norms_sq(f.dim, f.cutoff)
    kdotf = (k * f.coeffs).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(k2 > 0, kdotf / np.where(k2 > 0, k2, 1.0), 0.0)
    return f._like(f.coeffs - k * factor)


def helmholtz_decompose(f: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split F = grad_part + divfree_part exactly, mode by mode."""
    divfree = leray_project(f)
    return f - divfree, divfree


def biot_savart(b: SpectralField, tol_div: float = 1e-10) -> SpectralField:
    """Vector potential A with curl A = B - <B>, div A = 0, <A> = 0.

    d=3 expects a solenoidal vector B; d=2 expects a scalar B (planar curl).
    """
    k2 = mode_norms_sq(b.dim, b.cutoff)
    if b.dim == 3 and b.components == 3:
        divres = np.abs(divergence(b).coeffs).max()
        scale = np.abs(b.coeffs).max()
        if divres > tol_div * max(scale, 1.0):
            raise ValidationError(f"biot_savart requires div B = 0 mode-wise (residual {divres:.3e})")
        k = mode_vectors(3, b.cutoff).astype(float)
        c = b.coeffs
        kxb = np.stack(
            [
                k[1] * c[2] - k[2] * c[1],
                k[2] * c[0] - k[0] * c[2],
                k[0] * c[1] - k[1] * c[0],
            ]
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(k2 > 0, 1j * kxb / np.where(k2 > 0, k2, 1.0), 0.0)
        return SpectralField(3, b.cutoff, out)
    if b.dim == 2 and b.components == 1:
        k = mode_vectors(2, b.cutoff).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            psi = np.where(k2 > 0, b.coeffs[0] / np.where(k2 > 0, k2, 1.0), 0.0)
        out = np.stack([1j * k[1] * psi, -1j * k[0] * psi])
        return SpectralField(2, b.cutoff, out)
    raise ValidationError("biot_savart: need d=3 vector B or d=2 scalar B")


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

def save_field(f: SpectralField, path) -> None:
    """Header line (JSON) + raw complex128 coefficients in row-major k order."""
    header = {
        "format": "vmvp-field-v1",
        "dim": f.dim,
        "cutoff": f.cutoff,
        "components": f.components,
        "convention": FIELD_CONVENTION,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(f.coeffs).tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != "vmvp-field-v1":
            raise ValidationError(f"unrecognized field file format in {path}")
        if header.get("convention") != FIELD_CONVENTION:
            raise ValidationError("field file uses a different Fourier convention")
        dim, cutoff, m = header["dim"], header["cutoff"], header["components"]
        raw = fh.read()
    coeffs = np.frombuffer(raw, dtype=np.complex128).reshape((m,) + (2 * cutoff + 1,) * dim)
    return SpectralField(dim, cutoff, coeffs)


def field_to_grid_csv(f: SpectralField, path) -> None:
    """Plot-ready CSV of collocation values: x1..xd, then one column per component."""
    n = padded_grid_size(f.cutoff)
    vals = f.to_grid(n)
    xs = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    mesh = np.meshgrid(*([xs] * f.dim), indexing="ij")
    cols = [m.ravel() for m in mesh] + [vals[c].ravel() for c in range(f.components)]
    headers = [f"x{a+1}" for a in range(f.dim)] + [f"f{c}" for c in range(f.components)]
    buf = io.StringIO()
    buf.write(",".join(headers) + "\n")
    np.savetxt(buf, np.column_stack(cols), delimiter=",", fmt="%.17g")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
