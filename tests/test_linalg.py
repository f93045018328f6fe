import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtarget import (
    DataError,
    NotPositiveDefiniteError,
    ShapeError,
    cholesky,
    frobenius_path_loss,
    kl_divergence,
    nearest_pd,
    symmetrize,
)
from covtarget.linalg import (
    PD_FLOOR,
    _factor_into,
    _factor_stack_into,
    _check_independent,
    _lower_inverse,
    _path_loglik,
    _PathBuffers,
)

from conftest import random_spd


def gaussian_path_loglik(h, x, target=None, grad=False):
    """The Gaussian path kernel over the whole of h and x, in fresh buffers."""
    return _path_loglik(h, x, target, grad, _PathBuffers(*x.shape))


def factor_stack(h, t0=0):
    """The lower factors _factor_stack_into writes for the stack h."""
    low = np.empty_like(h)
    _factor_stack_into(h, low, t0)
    return low


class TestSymmetrize:
    def test_passes_symmetric(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(symmetrize(m), m)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            symmetrize(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            symmetrize(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_tolerates_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        out = symmetrize(m)
        assert out[0, 1] == out[1, 0]

    def test_entries_near_the_largest_double_stay_finite(self):
        assert symmetrize(np.array([[1e308]])).tolist() == [[1e308]]
        m = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
        assert np.array_equal(symmetrize(m), m)

    def test_asymmetry_beyond_the_largest_double_is_rejected(self):
        with pytest.raises(ShapeError, match="max asymmetry inf"):
            symmetrize(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    # Entries whose sum stays finite and whose halves stay normal, each
    # off-diagonal pair apart by up to 1e-13 relative (within SYM_TOL).
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 5),
        entries=st.lists(
            st.floats(-8e307, 8e307).filter(lambda v: v == 0.0 or abs(v) > 1e-300),
            min_size=25, max_size=25,
        ),
        skew=st.lists(st.floats(-1e-13, 1e-13), min_size=25, max_size=25),
    )
    def test_matches_the_half_sum_bit_for_bit(self, n, entries, skew):
        m = np.array(entries[: n * n]).reshape(n, n)
        m = np.triu(m) + np.triu(m, 1).T * (1.0 + np.array(skew[: n * n]).reshape(n, n))
        assert symmetrize(m).tobytes() == (0.5 * (m + m.T)).tobytes()


    def test_odd_subnormals_keep_their_last_bit(self):
        m = np.array([[5e-324, 1e-310], [1e-310, 3e-323]])
        assert symmetrize(m).tobytes() == m.tobytes()

    # Symmetric matrices from any finite doubles: subnormals, and entries
    # whose sum with their mirror overflows.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 5),
        entries=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-1e-300, 1e-300),
                st.integers(1, 2**52 - 1).map(lambda f: float(np.uint64(f).view(float))),
                st.floats(8.9e307, 1.7976931348623157e308).map(lambda v: -v),
                st.floats(8.9e307, 1.7976931348623157e308),
            ),
            min_size=25, max_size=25,
        ),
    )
    def test_symmetric_input_comes_back_bit_for_bit(self, n, entries):
        m = np.array(entries[: n * n]).reshape(n, n)
        m = np.triu(m) + np.triu(m, 1).T
        assert symmetrize(m).tobytes() == m.tobytes()


class TestCholesky:
    def test_reconstructs_input(self, rng):
        for _ in range(20):
            m = random_spd(rng, int(rng.integers(1, 7)))
            f = cholesky(m)
            assert np.allclose(f.lower @ f.lower.T, m, atol=1e-10)
            assert np.all(np.triu(f.lower, k=1) == 0.0)

    def test_logdet_matches_slogdet(self, rng):
        for _ in range(20):
            m = random_spd(rng, 4)
            sign, ld = np.linalg.slogdet(m)
            assert sign == 1.0
            assert cholesky(m).logdet == pytest.approx(ld, abs=1e-10)

    def test_known_logdet(self):
        # diag(4, 9): determinant 36
        assert cholesky(np.diag([4.0, 9.0])).logdet == pytest.approx(np.log(36.0))

    def test_not_pd_reports_pivot(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert err.value.pivot == 1

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.ones((3, 3)))
        assert err.value.pivot == textbook_pivot(np.ones((3, 3))) == 1


def textbook_pivot(a: np.ndarray) -> int:
    """The first non-positive pivot of the textbook column-by-column
    factorization of a symmetric matrix (n - 1 if there is none): the oracle
    for the pivot that the factorization errors report."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - float(low[j, :j] @ low[j, :j])
        if d <= 0.0 or not np.isfinite(d):
            return j
        low[j, j] = np.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return n - 1


@st.composite
def planted_non_pd(draw):
    """A symmetric (n, n) matrix, n in [1, 12], whose leading k x k block is
    PD and whose leading (k + 1) x (k + 1) block is not: the Schur complement
    at pivot k is planted at -c, c in [0.01, 1]. The entries outside that
    block are arbitrary."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n - 1))
    c = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    a += a.T
    a[:k, :k] = random_spd(rng, k)
    col = a[:k, k]
    a[k, k] = (col @ np.linalg.solve(a[:k, :k], col) if k else 0.0) - c
    return a, k


class TestFactorizationGate:
    @given(case=planted_non_pd(), t=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_pivot_matches_the_textbook_oracle(self, case, t):
        a, k = case
        assert textbook_pivot(a) == k
        with pytest.raises(NotPositiveDefiniteError, match=rf"\(pivot {k}\)$") as err:
            cholesky(a)
        assert err.value.pivot == k
        stack = np.stack([np.eye(len(a))] * t + [a])
        with pytest.raises(NotPositiveDefiniteError, match=rf"time index {t} ") as err:
            factor_stack(stack)
        assert err.value.pivot == k

    def test_messages_name_what_failed(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(
            NotPositiveDefiniteError, match=r"^matrix is not positive definite \(pivot 1\)$"
        ):
            cholesky(m)
        with pytest.raises(
            NotPositiveDefiniteError,
            match=r"^matrix at time index 0 is not positive definite \(pivot 1\)$",
        ):
            factor_stack(m[None])


@st.composite
def step_kernel_inputs(draw):
    """An SPD (n, n) matrix, n in [1, 15], scaled by 1e-6 to 1e6; or the same
    matrix with one eigenvalue shifted to zero or below, or with a NaN or an
    infinity at one symmetric pair of entries."""
    n = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_spd(rng, n, 10.0 ** draw(st.integers(-6, 6)))
    kind = draw(st.sampled_from(["spd", "shifted", "nan", "inf", "-inf"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "shifted":
        a -= np.linalg.eigvalsh(a)[i] * draw(st.floats(1.0, 2.0)) * np.eye(n)
    elif kind != "spd":
        a[i, j] = a[j, i] = float(kind)
    return a, kind


@given(case=step_kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_factor_into_is_np_linalg_cholesky(case):
    # The simulators factor each step with _factor_into; a numpy that changes
    # the bits of its gufunc's factor, or how that gufunc marks a failure,
    # fails here.
    a, kind = case
    low = np.full(a.shape, 7.0)  # nothing of the buffer's old contents survives
    with np.errstate(all="ignore"):
        factored = _factor_into(a, low)
    try:
        ref = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        assert not factored and np.isnan(low).all()
    else:
        assert factored
        assert low.tobytes() == ref.tobytes()
    assert factored or kind != "spd"


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0, 1.0), (1e-6, 1.0, 1e4, 3.0)])
def test_check_independent_is_scale_free(scales):
    # one rule for a covariance and its correlation, whatever the units
    z = np.random.default_rng(5).standard_normal((200, 4))
    _check_independent(np.cov(z * scales, rowvar=False), "cov", "ABCD")
    z[:, 2] = 3.0 * z[:, 0] - z[:, 1] + 1e-9 * z[:, 3]
    cov = np.cov(z * scales, rowvar=False)
    d = np.sqrt(np.diag(cov))
    for m in (cov, cov / np.outer(d, d)):
        with pytest.raises(DataError, match="^m is .* series C is a linear combination"):
            _check_independent(m, "m", "ABCD")


class TestNearestPd:
    def test_already_pd_unchanged(self, rng):
        m = random_spd(rng, 4)
        assert np.array_equal(nearest_pd(m), symmetrize(m))

    def test_repairs_indefinite(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])
        assert np.linalg.eigvalsh(m).min() < 0
        out = nearest_pd(m)
        assert np.linalg.eigvalsh(out).min() >= PD_FLOOR - 1e-12
        cholesky(out)

    def test_idempotent(self):
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])
        once = nearest_pd(m)
        assert np.array_equal(nearest_pd(once), once)

    def test_floor_respected(self):
        m = np.diag([1.0, 1e-12])
        out = nearest_pd(m)
        assert np.linalg.eigvalsh(out).min() >= PD_FLOOR - 1e-15


class TestKlDivergence:
    def test_zero_on_equal(self, rng):
        for _ in range(10):
            m = random_spd(rng, 3)
            assert abs(kl_divergence(m, m)) <= 1e-12

    def test_known_value(self):
        val = kl_divergence(np.eye(2), 2.0 * np.eye(2))
        assert val == pytest.approx((np.log(4.0) - 1.0) / 2.0, abs=1e-12)

    def test_asymmetric(self):
        a = kl_divergence(np.eye(2), 2.0 * np.eye(2))
        b = kl_divergence(2.0 * np.eye(2), np.eye(2))
        assert b == pytest.approx((2.0 - np.log(4.0)) / 2.0, abs=1e-12)
        assert abs(a - b) > 0.1

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            assert kl_divergence(p, q) >= -1e-12

    def test_matches_direct_formula(self, rng):
        # oracle: dense formula with explicit inverse
        for _ in range(20):
            p = random_spd(rng, 3)
            q = random_spd(rng, 3)
            direct = 0.5 * (
                np.log(np.linalg.det(q) / np.linalg.det(p))
                + np.trace(np.linalg.inv(q) @ p)
                - 3
            )
            assert kl_divergence(p, q) == pytest.approx(direct, rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(np.eye(2), np.eye(3))


class TestStackedOps:
    def test_factor_stack_into_matches_loop(self, rng):
        h = np.stack([random_spd(rng, 3) for _ in range(40)])
        lowers = factor_stack(h)
        assert lowers.tobytes() == np.linalg.cholesky(h).tobytes()
        for t in range(40):
            assert np.allclose(lowers[t], cholesky(h[t]).lower, atol=1e-12)

    @pytest.mark.parametrize("t0", [0, 1000])
    def test_factor_stack_into_reports_bad_index(self, rng, t0):
        h = np.stack([random_spd(rng, 3) for _ in range(5)])
        h[3] = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match=f"time index {t0 + 3} ") as err:
            factor_stack(h, t0)
        assert err.value.pivot == textbook_pivot(h[3]) == 1

    def test_quad_logdet_matches_loop(self, rng):
        h = np.stack([random_spd(rng, 3) for _ in range(30)])
        x = rng.standard_normal((30, 3))
        ld_ref = sum(np.linalg.slogdet(h[t])[1] for t in range(30))
        qd_ref = sum(x[t] @ np.linalg.solve(h[t], x[t]) for t in range(30))
        # With zero vectors the kernel is the log-determinant term alone.
        ld = -2.0 * gaussian_path_loglik(h, np.zeros_like(x))
        qd = -2.0 * gaussian_path_loglik(h, x) - ld
        assert ld == pytest.approx(ld_ref, rel=1e-10)
        assert qd == pytest.approx(qd_ref, rel=1e-10)

    def test_kl_path_sum_matches_per_step(self, rng):
        p = random_spd(rng, 3)
        h = np.stack([random_spd(rng, 3) for _ in range(25)])
        x = rng.standard_normal((25, 3))
        # The target enters the kernel only through -sum_t KL(P, H_t).
        total = gaussian_path_loglik(h, x) - gaussian_path_loglik(h, x, (p, cholesky(p).logdet))
        ref = sum(kl_divergence(p, h[t]) for t in range(25))
        assert total == pytest.approx(ref, abs=1e-10)

    def test_gaussian_path_loglik_matches_separate_kernels(self, rng):
        p = random_spd(rng, 3)
        h = np.stack([random_spd(rng, 3) for _ in range(20)])
        x = rng.standard_normal((20, 3))
        plain = 0.0
        kl = 0.0
        for t in range(20):
            f = cholesky(h[t])
            z = np.linalg.solve(f.lower, x[t])
            plain -= 0.5 * (f.logdet + z @ z)
            kl += kl_divergence(p, h[t])
        assert gaussian_path_loglik(h, x) == pytest.approx(plain, rel=1e-12)
        assert gaussian_path_loglik(h, x, (p, cholesky(p).logdet)) == pytest.approx(
            plain - kl, rel=1e-12
        )


@st.composite
def lower_factors(draw):
    """A (T, N, N) stack of Cholesky factors, T in [1, 40] and N in [1, 30],
    of matrices whose eigenvalues span 10^-span .. 1, with every series on
    its own scale in 1e-2 .. 1e2: well conditioned at span 0, ill
    conditioned at span 8, where the factors' condition numbers reach ~1e7."""
    n, t_len = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    span = draw(st.sampled_from([0.0, 2.0, 5.0, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((t_len, n, n)))
    w = 10.0 ** rng.uniform(-span, 0.0, (t_len, n))
    d = 10.0 ** rng.uniform(-2.0, 2.0, (t_len, n))
    h = d[:, :, None] * ((q * w[:, None, :]) @ np.swapaxes(q, 1, 2)) * d[:, None, :]
    return np.linalg.cholesky(0.5 * (h + np.swapaxes(h, 1, 2)))


@settings(max_examples=80, deadline=None)
@given(lower_factors())
def test_lower_inverse_matches_general_inverse(lowers):
    m = _lower_inverse(lowers, np.zeros_like(lowers))
    ref = np.linalg.inv(lowers)
    assert np.all(np.triu(m, k=1) == 0.0)
    err = np.linalg.norm(m - ref, axis=(1, 2))
    assert np.all(err <= 1e-13 * np.linalg.norm(ref, axis=(1, 2)))


def inverse_path_loglik(h, x, p=None):
    """The path kernel's value and G, written with np.linalg.inv."""
    t_len, n = x.shape
    hinv = np.linalg.inv(h)
    hx = np.einsum("tij,tj->ti", hinv, x)
    logdets = np.linalg.slogdet(h)[1]
    value = -0.5 * (logdets.sum() + (x * hx).sum())
    g = 0.5 * (hx[:, :, None] * hx[:, None, :] - hinv)
    if p is not None:
        kl = logdets - np.linalg.slogdet(p)[1] + np.einsum("tij,ji->t", hinv, p) - n
        value -= 0.5 * kl.sum()
        g += 0.5 * (hinv @ p @ hinv - hinv)
    return value, g


@pytest.mark.parametrize("with_target", [False, True], ids=["plain", "target"])
@pytest.mark.parametrize("n, t_len", [(1, 9), (5, 252), (15, 60)])
def test_gaussian_path_loglik_matches_inverse_reference(rng, n, t_len, with_target):
    h = np.stack([random_spd(rng, n) for _ in range(t_len)])
    x = rng.standard_normal((t_len, n))
    p = random_spd(rng, n) if with_target else None
    target = None if p is None else (p, cholesky(p).logdet)
    value, g = gaussian_path_loglik(h, x, target, grad=True)
    ref_value, ref_g = inverse_path_loglik(h, x, p)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert gaussian_path_loglik(h, x, target) == value
    assert np.linalg.norm(g - ref_g) <= 1e-12 * np.linalg.norm(ref_g)


class TestFrobeniusPathLoss:
    def test_zero_when_equal(self, rng):
        m = random_spd(rng, 3)
        path = np.repeat(m[None, :, :], 7, axis=0)
        assert frobenius_path_loss(path, m) == 0.0

    def test_known_value(self):
        # one step, difference I_2: sqrt(Tr(I I')) = sqrt(2)
        path = (2.0 * np.eye(2))[None, :, :]
        assert frobenius_path_loss(path, np.eye(2)) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_matches_loop(self, rng):
        tgt = random_spd(rng, 3)
        h = np.stack([random_spd(rng, 3) for _ in range(12)])
        ref = np.sqrt(
            sum(((h[t] - tgt) ** 2).sum() for t in range(12))
        )
        assert frobenius_path_loss(h, tgt) == pytest.approx(ref, rel=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            frobenius_path_loss(np.zeros((4, 2, 3)), np.eye(2))
        with pytest.raises(ShapeError):
            frobenius_path_loss(np.zeros((4, 2, 2)), np.eye(3))
