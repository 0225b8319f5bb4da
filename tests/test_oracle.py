import math
from fractions import Fraction

import numpy as np
import pytest

import qsdlab as q
from qsdlab.errors import IllConditionedEigenbasis, Reducible
from qsdlab.oracle import (
    SIZE_CAP,
    FiniteChain,
    exact_qsd_qed,
    exact_spectrum,
    fixture_dict,
    lobo_leading_term,
    lobo_sum,
)

SQ3 = math.sqrt(3)


def chain(name):
    return FiniteChain(Q=np.asarray(q.get_spec(name).params["matrix"], dtype=float))


def test_exact_spectrum_sym2():
    sys = exact_spectrum(chain("sym2"))
    assert np.allclose(sorted(np.abs(sys.values)), [0.25, 0.75], atol=1e-14)


def test_exact_spectrum_antidiagonal():
    sys = exact_spectrum(chain("cycle2"))
    assert np.allclose(sorted(sys.values.real), [-math.sqrt(0.24), math.sqrt(0.24)],
                       atol=1e-14)


def test_left_right_biorthogonality():
    for name in ("sym2", "cycle2", "cycle3", "ds3"):
        sys = exact_spectrum(chain(name))
        gram = sys.left.conj().T @ sys.right
        assert np.abs(gram - np.eye(len(sys.values))).max() < 1e-12, name


def test_random_chain_matches_spectral_module():
    rng = np.random.default_rng(20240817)
    a = rng.random((10, 10))
    a = 0.95 * a / a.sum(axis=1, keepdims=True)
    sys = exact_spectrum(FiniteChain(Q=a))
    from qsdlab.kernels import KernelSpec, build_operator

    op = build_operator(KernelSpec(domain=(0, 9), family="explicit_matrix",
                                   params={"matrix": a.tolist()}))
    sd = q.peripheral_spectrum(op)
    assert abs(float(np.abs(sys.values[0])) - sd.lam) < 1e-10
    mu, eta, lam, m = exact_qsd_qed(FiniteChain(Q=a))
    assert m == 1 and abs(lam - sd.lam) < 1e-10
    assert q.tv_distance(mu, sd.mu0) < 1e-10


def _block_cyclic(rng, m, b):
    """m equal blocks of b states, each feeding only the next: period m."""
    a = np.zeros((m * b, m * b))
    for k in range(m):
        nxt = (k + 1) % m
        rows = rng.uniform(0.05, 1.0, (b, b))
        rows *= rng.uniform(0.5, 0.99, (b, 1)) / rows.sum(axis=1, keepdims=True)
        a[k * b:(k + 1) * b, nxt * b:(nxt + 1) * b] = rows
    return a


@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_cyclic_chains_match_spectral_module(m):
    # every peripheral eigenvalue has modulus lam; the oracle must still lead
    # with the Perron root +lam, whatever order rounding puts the others in
    from qsdlab.kernels import KernelSpec, build_operator

    rng = np.random.default_rng(7000 + m)
    for b in range(1, 13):
        a = _block_cyclic(rng, m, b)
        mu, eta, lam, m_o = exact_qsd_qed(FiniteChain(Q=a))
        op = build_operator(KernelSpec(domain=(0, m * b - 1), family="explicit_matrix",
                                       params={"matrix": a.tolist()}))
        sd = q.peripheral_spectrum(op)
        assert m_o == sd.period_m == m, b
        assert abs(lam - sd.lam) < 1e-9, b
        assert np.abs(mu - q.quasi_stationary_measure(sd)[0]).max() < 1e-9, b
        assert np.abs(eta - q.quasi_ergodic_measure(sd)).max() < 1e-9, b


def test_ill_conditioned_refused():
    # nearly defective pair: eigenvectors almost parallel
    a = np.array([[0.5, 0.01], [0.0, 0.5 + 1e-13]])
    with pytest.raises(IllConditionedEigenbasis):
        exact_spectrum(FiniteChain(Q=a))


# -- exact conditioned measures -----------------------------------------------

def test_exact_qsd_qed_sym2():
    mu, eta, lam, m = exact_qsd_qed(chain("sym2"))
    assert np.allclose(mu, [0.5, 0.5], atol=1e-14)
    assert np.allclose(eta, [0.5, 0.5], atol=1e-14)
    assert lam == pytest.approx(0.75, abs=1e-14)
    assert m == 1


def test_exact_qsd_qed_cycle2_closed_form():
    # survival measure proportional to (sqrt(0.4), sqrt(0.6)); the ergodic
    # product measure is uniform
    mu, eta, lam, m = exact_qsd_qed(chain("cycle2"))
    ref = np.array([math.sqrt(0.4), math.sqrt(0.6)])
    assert np.allclose(mu, ref / ref.sum(), atol=1e-14)
    assert np.allclose(eta, [0.5, 0.5], atol=1e-12)
    assert lam == pytest.approx(math.sqrt(0.24), abs=1e-14)
    assert m == 2


def test_exact_qsd_qed_ds3_closed_form():
    mu, eta, lam, m = exact_qsd_qed(chain("ds3"))
    assert np.allclose(mu, np.array([1.0, SQ3, 1.0]) / (2 + SQ3), atol=1e-13)
    assert np.allclose(eta, [0.25, 0.5, 0.25], atol=1e-13)
    assert lam == pytest.approx(0.4 + math.sqrt(0.12), abs=1e-14)
    assert m == 1


def test_reducible_refused():
    a = np.array([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(Reducible):
        exact_qsd_qed(FiniteChain(Q=a))


@pytest.mark.parametrize("call,error,match", [
    (lambda: FiniteChain(Q=np.full((2, 3), 0.1)), ValueError, "Q must be square"),
    (lambda: FiniteChain(Q=np.zeros((SIZE_CAP + 1, SIZE_CAP + 1))), ValueError,
     f"oracle capped at {SIZE_CAP} states"),
    (lambda: FiniteChain(Q=[[0.5, -0.1], [0.2, 0.3]]), ValueError,
     "Q must be entrywise nonnegative"),
    (lambda: FiniteChain(Q=[[0.9, 0.9], [0.2, 0.3]]), ValueError,
     "rows must sum to at most one"),
    (lambda: lobo_sum(chain("sym2"), [1.0, 0.0], 0, 0), ValueError, "n must be >= 1"),
    # no state survives a step: no communicating class at all
    (lambda: exact_qsd_qed(FiniteChain(Q=[[0.0]])), Reducible,
     "non-dying states do not form one communicating class"),
], ids=["not_square", "above_cap", "negative", "row_sum", "lobo_n_0", "all_dying"])
def test_oracle_refusals(call, error, match):
    with pytest.raises(error, match=f"^{match}$"):
        call()


# -- cumulative occupation sums -----------------------------------------------

def test_lobo_sum_constant_function():
    ch = chain("ds3")
    n = 7
    ones = np.ones(3)
    sn = np.linalg.matrix_power(ch.Q, n) @ ones
    for x in range(3):
        assert lobo_sum(ch, ones, x, n) == pytest.approx(n * sn[x], rel=1e-13)


def test_lobo_sum_sym2_hand_rational():
    # Q = [[1/2, 1/4], [1/4, 1/2]], h = e_0, x = 0, n = 4, computed in exact
    # rational arithmetic: sum_{k<4} (Q^k diag(h) Q^{4-k} 1)(0)
    qf = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 2)]]

    def matvec(m, v):
        return [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]

    def matpow_vec(p, v):
        for _ in range(p):
            v = matvec(qf, v)
        return v

    total = Fraction(0)
    for k in range(4):
        inner = matpow_vec(4 - k, [Fraction(1), Fraction(1)])
        masked = [inner[0], Fraction(0)]
        total += matpow_vec(k, masked)[0]
    got = lobo_sum(chain("sym2"), np.array([1.0, 0.0]), 0, 4)
    assert got == pytest.approx(float(total), rel=1e-14)
    assert total == Fraction(111, 128)


def test_lobo_ratio_converges_on_cycle3():
    ch = chain("cycle3")
    h = np.zeros(6)
    h[2] = 1.0
    devs = []
    for n in (61, 122, 244):
        ratio = lobo_sum(ch, h, 0, n) / lobo_leading_term(ch, h, 0, n)
        devs.append(abs(ratio - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02
    # at multiples of the period the oscillating cross terms cancel exactly
    for n in (60, 120, 240):
        ratio = lobo_sum(ch, h, 0, n) / lobo_leading_term(ch, h, 0, n)
        assert ratio == pytest.approx(1.0, abs=1e-10)


def test_fixture_dict_contents():
    doc = fixture_dict("sym2", chain("sym2"))
    assert doc["provenance"].startswith("oracle_finite@")
    assert doc["lambda"] == pytest.approx(0.75, abs=1e-14)
    assert doc["m"] == 1
    assert doc["mu"] == pytest.approx([0.5, 0.5], abs=1e-14)
