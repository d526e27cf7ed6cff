"""The closed-form k×k kernels (k <= 2) of the grid integrals, and an independent route.

The kernels take entry-major stacks (k, k, ...), so the tests hand them
`np.moveaxis` views of (..., k, k) stacks.  Each kernel is compared with the
general numpy routine it replaces.  The
tolerance is 1e-12 relative to the scale at which round-off enters: the
entries of |a| @ |b| for products, Tr(|p| (|a| |b| + |b| |a|)) for
Tr(p [a, b]), σ_max for σ_min (an SVD is only accurate to eps·σ_max), and the
largest entry of the inverse.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdlab.topology import _inv2, _mul2, _sigma_min2, _trace_commutator2, chern_2d, winding_3d
from mdlab.witnesses import exp_ptilde, gamma3_disk, phat_disk

RTOL = 1e-12


def _em(a):
    """A (..., k, k) stack as an entry-major (k, k, ...) view."""
    return np.moveaxis(a, (-2, -1), (0, 1))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    q, _ = np.linalg.qr(_complex(rng, (n, 2, 2)))
    return q


def _batches(rng, k, n=200):
    """Random, Hermitian, unitary (σ1 = σ2, as at the witnesses) and
    near-singular (σ_min/σ_max = 1e-3) k×k batches."""
    m = _complex(rng, (n, k, k))
    herm = m + m.conj().swapaxes(-1, -2)
    if k == 1:
        unitary = np.exp(1j * rng.uniform(0, 2 * math.pi, (n, 1, 1)))
        near = 1e-3 * m
    else:
        unitary = _unitary(rng, n)
        near = _unitary(rng, n) @ np.diag([1.0, 1e-3]) @ _unitary(rng, n)
    return {"random": m, "hermitian": herm, "unitary": unitary, "near_singular": near}


def _check_kernels(a, b):
    scale = np.abs(a) @ np.abs(b)
    assert np.all(np.abs(_mul2(_em(a), _em(b)) - _em(a @ b)) <= RTOL * _em(scale))
    sv = np.linalg.svd(a, compute_uv=False)
    assert np.all(np.abs(_sigma_min2(_em(a)) - sv[..., -1]) <= RTOL * sv[..., 0])


def _check_trace_commutator(p, a, b):
    trace = np.trace(p @ (a @ b - b @ a), axis1=-2, axis2=-1)
    pa, aa, ab = np.abs(p), np.abs(a), np.abs(b)
    scale = np.trace(pa @ (aa @ ab + ab @ aa), axis1=-2, axis2=-1)
    assert np.all(np.abs(_trace_commutator2(_em(p), _em(a), _em(b)) - trace) <= RTOL * scale)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["random", "hermitian", "unitary", "near_singular"])
def test_kernels_match_the_general_routines(k, kind):
    rng = np.random.default_rng(10 * k)
    a = _batches(rng, k)[kind]
    b = _complex(rng, a.shape)
    _check_kernels(a, b)
    _check_kernels(a, a)
    _check_trace_commutator(a, b, _complex(rng, a.shape))
    _check_trace_commutator(_complex(rng, a.shape), a, b)
    inv = np.linalg.inv(a)
    assert np.all(np.abs(_inv2(_em(a)) - _em(inv))
                  <= RTOL * np.abs(inv).max(axis=(-2, -1), keepdims=True).T)
    if kind in ("unitary", "near_singular"):
        sv = np.linalg.svd(a, compute_uv=False)[..., -1]
        assert np.all(np.abs(_sigma_min2(_em(a)) - sv) <= RTOL * sv)


@pytest.mark.parametrize("k", [1, 2])
def test_mul2_broadcasts_a_stack_against_its_partials(k):
    rng = np.random.default_rng(3)
    a = _complex(rng, (100, k, k))
    d = _complex(rng, (3, 100, k, k))
    out = _mul2(_em(a), _em(d))
    assert out.shape == (k, k, 3, 100)
    assert np.all(np.abs(out - _em(a @ d)) <= RTOL * _em(np.abs(a) @ np.abs(d)))


def test_sigma_min2_edge_values():
    zero = np.zeros((2, 2, 2), complex)
    assert np.array_equal(_sigma_min2(_em(zero)), [0.0, 0.0])
    nan = np.eye(2, dtype=complex)[None].repeat(2, axis=0)
    nan[1, 0, 1] = np.nan
    out = _sigma_min2(_em(nan))
    assert out[0] == 1.0 and np.isnan(out[1])
    assert np.array_equal(_sigma_min2(np.array([[[-3.0 + 4.0j]]])), [5.0])


@pytest.mark.parametrize("k", [1, 2])
def test_kernels_give_the_same_bits_on_a_view_and_on_its_contiguous_copy(k):
    # The grid integrals hand the kernels contiguous entries from entry-major
    # jets and strided ones from (N, k, k) derivatives; both must round alike.
    rng = np.random.default_rng(5)
    p, a = (_em(_complex(rng, (100, k, k))) for _ in range(2))
    b, c = (_em(_complex(rng, (3, 100, k, k))) for _ in range(2))
    for kernel, args in [(_mul2, (p, b)), (_mul2, (p, a)), (_inv2, (a,)), (_sigma_min2, (a,)),
                         (_trace_commutator2, (p, b[:, :, 0], c[:, :, 1]))]:
        assert k == 1 or not any(arg.flags.c_contiguous for arg in args)
        view = kernel(*args)
        copy = kernel(*(np.ascontiguousarray(arg) for arg in args))
        assert view.shape == copy.shape, kernel.__name__
        assert np.ascontiguousarray(view).tobytes() == np.ascontiguousarray(copy).tobytes(), \
            kernel.__name__


_entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
# Two k×k matrices (k = 1 or 2), as flat entry lists.
_pairs = st.sampled_from([1, 4]).flatmap(
    lambda n: st.tuples(*(st.lists(_entries, min_size=n, max_size=n) for _ in range(2))))


@settings(max_examples=200, deadline=None)
@given(entries=_pairs)
# A subnormal 1×1 entry: its inverse, 4.5e308, overflows float64.
@example(entries=([2.225073858507203e-309 + 0j], [1.0 + 0j]))
# Entries whose squares underflow to 0: σ_min = 5.4e-247, not 0.
@example(entries=([5.397181587520103e-247 + 0j, 0j, 0j, 5.397181587520103e-247 + 0j],
                  [0j, 0j, 0j, 0j]))
def test_kernels_property_random_complex_entries(entries):
    k = math.isqrt(len(entries[0]))
    a, b = (np.array(e, dtype=complex).reshape(1, k, k) for e in entries)
    _check_kernels(a, b)
    sv = np.linalg.svd(a, compute_uv=False)[0]
    if sv[-1] > 1e-3 * sv[0]:
        inv = np.linalg.inv(a)
        # The comparison needs an inverse that float64 can represent.
        assume(np.isfinite(inv).all())
        assert np.all(np.abs(_inv2(_em(a)) - _em(inv)) <= RTOL * np.abs(inv).max())


_stacks = st.integers(1, 4).flatmap(
    lambda n: st.lists(_entries, min_size=12 * n, max_size=12 * n))


@settings(max_examples=200, deadline=None)
@given(entries=_stacks, nan_at=st.integers(0, 11))
def test_trace_commutator_property(entries, nan_at):
    # p, a and b as stacks of n 2x2 matrices; then their 1x1 corners.
    p, a, b = np.array(entries, dtype=complex).reshape(3, -1, 2, 2)
    _check_trace_commutator(p, a, b)
    corners = _trace_commutator2(*(_em(m[..., :1, :1]) for m in (p, a, b)))
    assert np.array_equal(corners, np.zeros(len(p)))
    # A NaN in any entry of the first matrices gives NaN there and nowhere else.
    pab = np.stack([p, a, b])
    pab[nan_at // 4, 0, (nan_at % 4) // 2, nan_at % 2] = np.nan
    out = _trace_commutator2(*(_em(m) for m in pab))
    assert np.isnan(out[0]) and not np.isnan(out[1:]).any()
    corner = _trace_commutator2(*(_em(m[..., :1, :1]) for m in pab))
    assert np.isnan(corner[0]) == (nan_at % 4 == 0)


def _midpoint_reference(field, kind):
    """The grid integral by the general routines: @, np.trace, np.linalg.inv and an SVD floor."""
    domain = field.default_domain
    axes = np.meshgrid(*(ax.midpoints() for ax in domain.axes), indexing="ij")
    mesh = np.stack(axes, axis=-1).reshape(-1, domain.dim)
    vals = field(mesh)
    _, partials = field.derivative(mesh)
    if kind == "chern":
        d1, d2 = partials
        integrand = np.trace(vals @ (d1 @ d2 - d2 @ d1), axis1=1, axis2=2)
        scale = domain.cell_volume / (2.0j * math.pi)
    else:
        assert np.linalg.svd(vals, compute_uv=False)[:, -1].min() > 1e-6
        a0, a1, a2 = np.linalg.inv(vals) @ partials
        integrand = np.trace(a0 @ (a1 @ a2 - a2 @ a1), axis1=1, axis2=2)
        scale = 3.0 * domain.cell_volume * (-1.0 / (24.0 * math.pi ** 2))
    total = complex(math.fsum(z.real for z in integrand), math.fsum(z.imag for z in integrand))
    return (total * scale).real


@pytest.mark.parametrize("integral, field, kind", [
    (chern_2d, phat_disk(64), "chern"),
    (chern_2d, gamma3_disk(64), "chern"),
    (winding_3d, exp_ptilde("+", 16), "winding"),
    (winding_3d, exp_ptilde("-", 16), "winding"),
], ids=["phat_disk", "gamma3_disk", "exp_ptilde_plus", "exp_ptilde_minus"])
def test_grid_integrals_agree_with_the_general_routines(integral, field, kind):
    assert abs(integral(field).raw - _midpoint_reference(field, kind)) <= 1e-13
