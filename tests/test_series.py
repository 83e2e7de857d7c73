import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_kam import merge, series
from poisson_kam import (
    DecayBound,
    FourierTaylorSeries,
    Truncation,
    WeightedNormParams,
    discard_tracker,
    discards,
    reassemble_taylor,
    shift_action_expansion,
    taylor_split,
    weighted_norm,
)
from poisson_kam.errors import (
    EtaDegreeError,
    NormDomainError,
    StructureMismatchError,
)
from poisson_kam.series import SeriesStack

from conftest import cosx, decay, eta, mk, random_series, sampled_series, yi, zeros


def rand_point(rng, n, m):
    return (
        rng.normal(size=m) + 1j * rng.normal(size=m),
        rng.normal(size=n) + 1j * rng.normal(size=n),
        complex(rng.normal(), rng.normal()),
        complex(abs(rng.normal()), 0.2 * rng.normal()),
    )


# ---- add ----------------------------------------------------------------


def test_add_identity():
    f = mk([((1,), (1,), 0, 1, 2.0 + 1j), ((0,), (2,), 0, 0, -3.0)])
    assert f + zeros() == f


def test_add_two_unit_modes():
    f = mk([((1,), (0,), 0, 0, 1.0)])
    g = mk([((-1,), (0,), 0, 0, 1.0)])
    s = f + g
    assert s.num_terms == 2
    assert s.coefficient((1,), (0,), 0, 0) == 1.0
    assert s.coefficient((-1,), (0,), 0, 0) == 1.0


def test_add_inverse_cancels_to_empty():
    f = mk([((2,), (1,), 0, 1, 0.75), ((0,), (0,), 0, 2, -1.5j)])
    assert (f + f.scale(-1.0)).is_zero()


def test_add_requires_matching_structure():
    f = mk([((0,), (0,), 0, 0, 1.0)])
    g = mk([((0,), (0,), 0, 0, 1.0)], trunc=Truncation(6, 4, 4))
    with pytest.raises(StructureMismatchError):
        f + g


# ---- mul ----------------------------------------------------------------


def test_mul_monomials():
    y1 = yi(0)
    sq = y1 * y1
    assert list(sq.terms()) == [((0,), (2,), 0, 0, 1.0 + 0j)]


def test_mul_exponent_addition():
    f = mk([((1,), (0,), 0, 1, 1.0)])
    g = mk([((-1,), (0,), 0, 1, 1.0)])
    prod = f * g
    assert list(prod.terms()) == [((0,), (0,), 0, 2, 1.0 + 0j)]


def test_mul_cos_squared(rng):
    # cos^2 = 1/2 + 1/2 cos(2x); oracle: pointwise evaluation
    c = cosx()
    sq = c * c
    assert sq.coefficient((0,), (0,), 0, 0) == pytest.approx(0.5)
    assert sq.coefficient((2,), (0,), 0, 0) == pytest.approx(0.25)
    for _ in range(20):
        y, x, et, xi = rand_point(rng, 1, 1)
        lhs = sq.evaluate(y, x, et, xi)
        rhs = c.evaluate(y, x, et, xi) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_mul_eta_degree_guard():
    with pytest.raises(EtaDegreeError):
        eta() * eta()


def test_mul_truncation_discard_tracked():
    f = mk([((5,), (0,), 0, 0, 1.0)])
    g = mk([((4,), (0,), 0, 0, 1.0)])
    root = (discard_tracker.total_mass, discard_tracker.events)
    with discards() as outer:
        with discards() as inner:
            assert (f * g).is_zero()  # |k|=9 > K_max=8
        assert (inner.total_mass, inner.events) == (1.0, 1)
        assert f.mul_y(0).mul_y(0).mul_y(0).mul_y(0).mul_y(0).is_zero()  # |alpha| > 4
    assert (outer.total_mass, outer.events) == (2.0, 2)
    # each record also reaches the process total
    assert discard_tracker.events == root[1] + 2
    assert discard_tracker.total_mass > root[0]


# ---- derivatives ----------------------------------------------------------


def test_partial_xi_exponential():
    f = decay(p=1)
    assert f.partial_xi() == f.scale(-f.decay_rate)


def test_partial_x_mode():
    f = mk([((3,), (0,), 0, 0, 1.0)])
    assert list(f.partial_x(0).terms()) == [((3,), (0,), 0, 0, 3j)]


def test_partial_y_power():
    f = mk([((0,), (2, 1), 0, 0, 1.0)], m=2)
    assert list(f.partial_y(0).terms()) == [((0,), (1, 1), 0, 0, 2.0 + 0j)]


def test_partial_eta_drops_and_counts():
    f = eta() + decay(p=1)
    d = f.partial_eta()
    assert list(d.terms()) == [((0,), (0,), 0, 0, 1.0 + 0j)]


# ---- evaluation -------------------------------------------------------------


def test_eval_constant():
    one = FourierTaylorSeries.constant(1.0, zeros())
    assert one.evaluate([0.3], [1.2], 0.5, 2.0) == 1.0


def test_eval_omega_dot_y():
    om = np.array([0.7, -1.3])
    f = yi(0, m=2, value=om[0]) + yi(1, m=2, value=om[1])
    assert f.evaluate(om, [0.0], 0, 0) == pytest.approx(float(om @ om))


def test_eval_decaying_cos():
    f = cosx(p=1)
    assert f.evaluate([0.0], [0.0], 0.0, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_stack_matches_each_part(rng, n):
    # every part of a stack evaluates bit for bit as it does alone, whatever
    # its neighbours and the other points of the batch: the empty part, the
    # eta part and the one-term part too.
    # The one-term k = (1, 3) rounds k.x differently under a fused dot, which
    # a matrix product takes for a single row; the > 8-term part sums
    # differently under a sequential reduceat.
    m, a, trunc = 2, 0.5, Truncation(4, 3, 3)
    k_one = (1, 3) + (0,) * (n - 2) if n > 1 else (3,)
    parts = [
        random_series(rng, n=n, m=m, a=a, trunc=trunc, nterms=20),
        FourierTaylorSeries.zeros(n, m, a, trunc),
        random_series(rng, n=n, m=m, a=a, trunc=trunc, nterms=6, with_eta=True),
        FourierTaylorSeries.from_terms(n, m, a, trunc, [(k_one, (1, 0), 0, 1, 0.3 - 0.7j)]),
        random_series(rng, n=n, m=m, a=a, trunc=trunc, nterms=3),
    ]
    assert parts[0].num_terms > 8
    assert parts[2].ecol.any() and not parts[2].ecol.all()
    points = []
    for _ in range(10):
        y, x, et, xi = rand_point(rng, n, m)
        points += [(y, x, et, xi), (y.real, x.real, 0.0, xi.real)]
    # one batch of all points: row i is point i, whatever the other points
    got = SeriesStack(parts).evaluate(*(np.array(c) for c in zip(*points)))
    assert got.shape == (len(points), len(parts))
    for point, row in zip(points, got):
        assert [complex(v) for v in row] == [part.evaluate(*point) for part in parts]
    assert (SeriesStack(parts[1:2]).evaluate([y], [x], [0.0], [0.0]) == 0).all()


def test_series_stack_rejects_mixed_rings():
    with pytest.raises(StructureMismatchError):
        SeriesStack([zeros(), zeros(n=2)])
    with pytest.raises(StructureMismatchError):
        SeriesStack([zeros(), zeros(a=0.25)])


# ---- weighted norm ----------------------------------------------------------


def test_norm_cos_sigma_ln2():
    b = weighted_norm(cosx(), WeightedNormParams(0.3, math.log(2.0)))
    assert b == DecayBound(2.0, 0)


def test_norm_single_action_term():
    b = weighted_norm(yi(0), WeightedNormParams(0.3, 1.0))
    assert b.K == pytest.approx(0.3) and b.p == 0


def test_norm_decay_index():
    b = weighted_norm(decay(p=2, value=5.0), WeightedNormParams(1.0, 1.0))
    assert b == DecayBound(5.0, 2)


def test_norm_rejects_eta():
    with pytest.raises(NormDomainError):
        weighted_norm(eta(), WeightedNormParams(1.0, 1.0))


# ---- taylor split -------------------------------------------------------------


def test_split_polynomial_readoff():
    f = mk(
        [
            ((0,), (0,), 0, 0, 3.0),
            ((0,), (1,), 0, 0, 2.0),
            ((0,), (2,), 0, 0, 1.0),
            ((0,), (3,), 0, 0, 1.0),
        ]
    )
    A, B, C, R = taylor_split(f)
    assert list(A.terms()) == [((0,), (0,), 0, 0, 3.0 + 0j)]
    assert list(B[0].terms()) == [((0,), (0,), 0, 0, 2.0 + 0j)]
    assert list(C[0][0].terms()) == [((0,), (0,), 0, 0, 2.0 + 0j)]
    assert list(R.terms()) == [((0,), (3,), 0, 0, 1.0 + 0j)]


def test_split_linear_coefficient_series():
    f = cosx(n=1, m=3, p=1).mul_y(1)
    A, B, C, R = taylor_split(f)
    assert A.is_zero() and R.is_zero()
    assert B[0].is_zero() and B[2].is_zero()
    assert B[1] == cosx(n=1, m=3, p=1)
    assert all(C[i][l].is_zero() for i in range(3) for l in range(3))


def test_split_roundtrip_random(rng):
    for _ in range(25):
        f = random_series(rng, n=2, m=2, nterms=12, dyadic=True)
        A, B, C, R = taylor_split(f)
        assert reassemble_taylor(A, B, C, R) == f
        for i in range(2):
            for l in range(2):
                assert C[i][l] == C[l][i]


def test_split_hessian_three_actions(rng):
    # C is the y-Hessian: the y_i y_l coefficient off the diagonal, twice the
    # y_i^2 coefficient on it, symmetric, and reassembly is exact
    f = mk(
        [((0,), (1, 1, 0), 0, 0, 0.75), ((1,), (0, 0, 2), 0, 1, 0.5 - 0.25j)],
        m=3,
    )
    A, B, C, R = taylor_split(f)
    assert list(C[0][1].terms()) == [((0,), (0, 0, 0), 0, 0, 0.75 + 0j)]
    assert list(C[2][2].terms()) == [((1,), (0, 0, 0), 0, 1, 1.0 - 0.5j)]
    assert C[0][0].is_zero() and C[1][2].is_zero()
    for _ in range(10):
        f = random_series(rng, n=2, m=3, nterms=16, dyadic=True)
        A, B, C, R = taylor_split(f)
        assert reassemble_taylor(A, B, C, R) == f
        assert all(C[i][l] == C[l][i] for i in range(3) for l in range(3))


# ---- shift of the expansion point ----------------------------------------------


def test_shift_action_expansion_quadratic(rng):
    h = mk([((0,), (2,), 0, 0, 0.5)])
    sh = shift_action_expansion(h, [1.0])
    # (y+1)^2/2 = 1/2 + y + y^2/2
    assert sh.coefficient((0,), (0,), 0, 0) == 0.5
    assert sh.coefficient((0,), (1,), 0, 0) == 1.0
    assert sh.coefficient((0,), (2,), 0, 0) == 0.5
    for _ in range(5):
        y, x, et, xi = rand_point(rng, 1, 1)
        assert sh.evaluate(y, x, et, xi) == pytest.approx(
            h.evaluate(y + 1.0, x, et, xi), rel=1e-12
        )


# ---- serialization ---------------------------------------------------------------


def test_payload_roundtrip_bit_exact(rng):
    from poisson_kam import jsonio

    f = random_series(rng, n=2, m=2, nterms=15, with_eta=True)
    text = jsonio.dumps(f.to_payload())
    g = FourierTaylorSeries.from_payload(jsonio.loads(text))
    assert g == f
    assert jsonio.dumps(g.to_payload()) == text


def test_payload_terms_share_key_tuples(rng):
    """Terms with equal k carry one k tuple, and likewise for alpha; a deep
    copy and a JSON round trip still hold independent terms, and the text is
    the one a fresh list for every k and alpha gives."""
    from poisson_kam import jsonio

    f = random_series(rng, n=2, m=2, nterms=40, k_budget=1, with_eta=True)
    payload = f.to_payload()
    terms = payload["terms"]
    for part in ("k", "alpha"):
        first = {}
        for t in terms:
            assert type(t[part]) is tuple
            assert first.setdefault(t[part], t[part]) is t[part]
        assert len(first) < len(terms)
    a, b = next((s, t) for s, t in zip(terms, terms[1:]) if s["k"] == t["k"])
    ia, ib = terms.index(a), terms.index(b)
    listed = dict(payload, terms=[dict(t, k=list(t["k"]), alpha=list(t["alpha"])) for t in terms])
    text = jsonio.dumps(payload)
    assert text == jsonio.dumps(listed)
    copied, loaded = copy.deepcopy(payload), jsonio.loads(text)
    copied["terms"][ia]["e"] = 7
    assert terms[ia]["e"] != 7 and copied["terms"][ib]["e"] != 7
    loaded_a, loaded_b = loaded["terms"][ia], loaded["terms"][ib]
    assert loaded_a["k"] is not loaded_b["k"]
    loaded_a["k"][0] += 1
    assert loaded_b["k"] == list(b["k"]) and a["k"] == b["k"]
    assert FourierTaylorSeries.from_payload(copy.deepcopy(payload)) == f
    assert FourierTaylorSeries.from_payload(jsonio.loads(text)) == f


# ---- invariants on random instances ----------------------------------------------


def test_ring_axioms_exact_dyadic(rng):
    for _ in range(40):
        f = random_series(rng, n=2, m=1, nterms=6, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
        g = random_series(rng, n=2, m=1, nterms=6, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
        h = random_series(rng, n=2, m=1, nterms=6, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_eval_homomorphism(rng):
    for _ in range(20):
        f = random_series(rng, n=1, m=2, nterms=5, k_budget=3, l_budget=2, p_budget=2)
        g = random_series(rng, n=1, m=2, nterms=5, k_budget=3, l_budget=2, p_budget=2)
        y, x, et, xi = rand_point(rng, 1, 2)
        lhs = (f * g).evaluate(y, x, 0, xi)
        rhs = f.evaluate(y, x, 0, xi) * g.evaluate(y, x, 0, xi)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_derivation_rule(rng):
    for _ in range(20):
        f = random_series(rng, n=2, m=1, nterms=5, dyadic=True, k_budget=3, l_budget=2, p_budget=2)
        g = random_series(rng, n=2, m=1, nterms=5, dyadic=True, k_budget=3, l_budget=2, p_budget=2)
        prod = (f * g).partial_x(0)
        assert prod == f.partial_x(0) * g + f * g.partial_x(0)


def test_norm_submultiplicative(rng):
    params = WeightedNormParams(0.7, 0.9)
    for _ in range(20):
        f = random_series(rng, n=1, m=1, nterms=6, k_budget=3, l_budget=2, p_budget=2)
        g = random_series(rng, n=1, m=1, nterms=6, k_budget=3, l_budget=2, p_budget=2)
        bf, bg, bfg = (
            weighted_norm(f, params),
            weighted_norm(g, params),
            weighted_norm(f * g, params),
        )
        assert bfg.K <= bf.K * bg.K * (1 + 1e-12)
        if not (f * g).is_zero():
            assert bfg.p >= bf.p + bg.p


def test_norm_monotone_in_params(rng):
    for _ in range(10):
        f = random_series(rng, n=2, m=2, nterms=8)
        big = weighted_norm(f, WeightedNormParams(0.8, 1.1)).K
        small = weighted_norm(f, WeightedNormParams(0.5, 0.6)).K
        assert small <= big * (1 + 1e-14)


def test_reality_preserved(rng):
    for _ in range(10):
        f = random_series(rng, n=2, m=1, nterms=4, dyadic=True, real=True, k_budget=2, l_budget=1, p_budget=1)
        g = random_series(rng, n=2, m=1, nterms=4, dyadic=True, real=True, k_budget=2, l_budget=1, p_budget=1)
        assert f.is_real_symmetric()
        assert (f + g).is_real_symmetric()
        assert (f * g).is_real_symmetric()
        assert f.partial_x(0).is_real_symmetric()
        assert f.partial_y(0).is_real_symmetric()
        A, B, C, R = taylor_split(f)
        assert A.is_real_symmetric() and R.is_real_symmetric()
        assert all(b.is_real_symmetric() for b in B)


def test_from_terms_validates_keys():
    with pytest.raises(StructureMismatchError):
        mk([((9,), (0,), 0, 0, 1.0)])  # |k| beyond K_max
    with pytest.raises(StructureMismatchError):
        mk([((0,), (5,), 0, 0, 1.0)])  # |alpha| beyond L_max
    with pytest.raises(StructureMismatchError):
        mk([((0,), (0,), 0, 9, 1.0)])  # p beyond P_max
    with pytest.raises(EtaDegreeError):
        mk([((0,), (0,), 2, 0, 1.0)])  # eta power 2


def test_ring_too_wide_to_pack_is_refused():
    # K_max = 2^20 in three angles needs 79 bits per key: every way of
    # building a series in that ring refuses it, naming the 62-bit bound
    big = Truncation(1 << 20, 4, 4)
    terms = [((70000, -3, 2), (1,), 0, 1, 1.5), ((0, 0, 0), (0,), 0, 0, 2.0)]
    payload = FourierTaylorSeries.from_terms(3, 1, 0.5, (4, 4, 4), []).to_payload()
    payload["K_max"] = big.K_max
    for build in (
        lambda: FourierTaylorSeries.zeros(3, 1, 0.5, big),
        lambda: FourierTaylorSeries.from_terms(3, 1, 0.5, big, terms),
        lambda: FourierTaylorSeries.from_payload(payload),
    ):
        with pytest.raises(StructureMismatchError, match="needs 79 bits per key, over the 62"):
            build()
    # the 3-DOF ring at (8192, 3, 8) needs 64
    with pytest.raises(StructureMismatchError) as info:
        FourierTaylorSeries.zeros(3, 3, 0.5, (8192, 3, 8))
    assert str(info.value) == (
        "the ring n=3, m=3, (K_max, L_max, P_max) = (8192, 3, 8) needs 64 bits "
        "per key, over the 62 that pack into one int64 code"
    )
    # the eta^2 guard on a packed lattice
    with pytest.raises(EtaDegreeError):
        (decay(p=1) + eta()) * (cosx() + eta())


def test_three_dof_ring_at_8191_packs_in_61_bits():
    trunc = Truncation(8191, 3, 8)
    codec = merge._pack_codec(3, 3, trunc)
    assert int(codec.shifts[0]) + int(codec.masks[0]).bit_length() == 61
    f = FourierTaylorSeries.from_terms(
        3, 3, 0.5, trunc, [((8189, -1, 0), (1, 0, 0), 0, 1, 1.5), ((0, 0, 0), (0, 0, 0), 0, 0, 2.0)]
    )
    g = FourierTaylorSeries.from_terms(3, 3, 0.5, trunc, [((1, 0, 0), (0, 1, 0), 0, 2, -0.5)])
    prod = f * g
    assert prod.coefficient((8190, -1, 0), (1, 1, 0), 0, 3) == -0.75
    assert prod.coefficient((1, 0, 0), (0, 1, 0), 0, 2) == -1.0
    assert (f + f.scale(-1.0)).is_zero()


def test_pack_codec_built_once_per_ring():
    f, g = cosx(), yi(0)
    codec = merge._pack_codec(f.n, f.m, f.trunc)
    assert codec is merge._pack_codec(g.n, g.m, g.trunc)
    assert codec is merge._pack_codec(f.n, f.m, tuple(f.trunc))
    assert not any(arr.flags.writeable for arr in codec)


# ---- product against the all-pairs oracle -------------------------------------


def _all_pairs(f, g):
    """Every pair (i, j) in row-major order: its summed key row, its
    coefficient, and whether it is within the truncation."""
    n, m = f.n, f.m
    K, L, P = f.trunc
    keys = (f.keys[:, None, :] + g.keys[None, :, :]).reshape(-1, n + m + 2)
    coeffs = (f.coeffs[:, None] * g.coeffs[None, :]).reshape(-1)
    ok = (
        (np.abs(keys[:, :n]).sum(axis=1) <= K)
        & (keys[:, n : n + m].sum(axis=1) <= L)
        & (keys[:, n + m + 1] <= P)
    )
    return keys, coeffs, ok


def _all_pairs_product(f, g):
    """The naive product: every pair filtered on the truncation and merged
    by the series constructor.  Returns the product and the discarded mass."""
    keys, coeffs, ok = _all_pairs(f, g)
    return f._like(keys[ok], coeffs[ok]), float(np.abs(coeffs[~ok]).sum())


def _assert_bit_identical(f, g):
    """Keys and coefficients equal the oracle's bit for bit; the discarded
    mass, which the product values blockwise for the |alpha| and p cuts,
    agrees to 1e-12, and one event is recorded iff something is discarded.
    Returns (kept terms, discarded mass, discard events)."""
    with series.discards() as tracker:
        prod = series._series_mul(f, g)
    ref, mass = _all_pairs_product(f, g)
    assert prod.keys.shape == ref.keys.shape and (prod.keys == ref.keys).all()
    assert (prod.coeffs == ref.coeffs).all()
    assert tracker.total_mass == pytest.approx(mass, rel=1e-12, abs=0.0)
    assert tracker.events == (1 if mass > 0 else 0)
    return prod.num_terms, tracker.total_mass, tracker.events


def _edge_terms(n, m, trunc):
    """Terms on each truncation edge: |k|_1 = K_max, |alpha| = L_max, p = P_max."""
    K, L, P = trunc
    k_edge = (-K,) + (0,) * (n - 1)
    k_split = (K - 1, -1) + (0,) * (n - 2) if n > 1 else (K,)
    a_edge = (L,) + (0,) * (m - 1)
    z_k, z_a = (0,) * n, (0,) * m
    return [
        (k_edge, z_a, 0, 0, 0.75 - 0.5j),
        (k_split, (1,) + (0,) * (m - 1), 0, 1, -1.25),
        (z_k, a_edge, 0, 0, 0.5 + 2j),
        (z_k, z_a, 0, P, 1.5j),
        (k_edge, a_edge, 0, P, -0.3 + 0.1j),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_product_bit_identical_to_rows(rng, n):
    m = 2 if n > 1 else 1
    trunc = Truncation(4, 3, 3)
    edges = FourierTaylorSeries.from_terms(n, m, 0.5, trunc, _edge_terms(n, m, trunc))
    for _ in range(6):
        f = random_series(rng, n=n, m=m, trunc=trunc, nterms=15) + edges
        g = random_series(rng, n=n, m=m, trunc=trunc, nterms=11, with_eta=True)
        assert f.kcols.min() < 0 and g.ecol.any()
        for a, b in ((f, g), (g, f), (f, f)):
            kept, mass, events = _assert_bit_identical(a, b)
            assert kept > 0 and mass > 0 and events == 1


def test_packed_product_all_discarded():
    f = mk([((5,), (2,), 0, 3, 1.0 + 1j), ((-6,), (1,), 0, 4, 0.5)])
    g = mk([((4,), (0,), 0, 1, 2.0), ((-3,), (3,), 0, 4, -1j)])
    kept, mass, events = _assert_bit_identical(f, g)
    assert kept == 0 and mass > 0 and events == 1
    assert series._series_mul(f, g).is_zero()


def test_packed_product_sums_in_pair_order(rng):
    # each product coefficient is the reduceat sum of its contributions taken
    # in row-major pair order, the order the stable merge preserves
    trunc = Truncation(3, 2, 2)
    f = random_series(rng, n=1, m=1, trunc=trunc, nterms=40)
    g = random_series(rng, n=1, m=1, trunc=trunc, nterms=40)
    products = f.coeffs[:, None] * g.coeffs[None, :]
    parts = {}
    for i, fk in enumerate(f.keys):
        for j, gk in enumerate(g.keys):
            key = fk + gk
            if abs(key[0]) <= trunc.K_max and key[1] <= trunc.L_max and key[3] <= trunc.P_max:
                parts.setdefault(tuple(key), []).append(products[i, j])
    prod = series._series_mul(f, g)
    assert max(len(v) for v in parts.values()) > 16
    assert sorted(parts) == sorted(tuple(k) for k in prod.keys)
    for key, c in zip(prod.keys, prod.coeffs):
        ordered = np.array(parts[tuple(key)])
        assert c.real == np.add.reduceat(ordered.real, [0])[0]
        assert c.imag == np.add.reduceat(ordered.imag, [0])[0]


_MAGNITUDE = st.one_of(st.just(0.0), st.floats(0.125, 4.0), st.floats(-4.0, -0.125))
_COEFF = st.builds(complex, _MAGNITUDE, _MAGNITUDE).filter(lambda c: c != 0)


@st.composite
def _terms(draw, n, m, trunc, with_eta):
    """Up to 10 random terms inside the truncation; each k draws its
    components from the |k|_1 budget left, so edge values come up."""
    K, L, P = trunc
    terms = []
    for _ in range(draw(st.integers(0, 10))):
        k, left = [], K
        for _ in range(n):
            k.append(draw(st.integers(-left, left)))
            left -= abs(k[-1])
        alpha, left = [], L
        for _ in range(m):
            alpha.append(draw(st.integers(0, left)))
            left -= alpha[-1]
        e = draw(st.integers(0, 1)) if with_eta else 0
        terms.append((k, alpha, e, draw(st.integers(0, P)), draw(_COEFF)))
    return terms


@st.composite
def _operands(draw):
    """(f, g): f carries the truncation-edge terms, and eta sits on at most
    one side."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    trunc = Truncation(draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    eta_side = draw(st.sampled_from(["f", "g", None]))
    f_terms = draw(_terms(n, m, trunc, eta_side == "f")) + _edge_terms(n, m, trunc)
    g_terms = draw(_terms(n, m, trunc, eta_side == "g"))
    f = FourierTaylorSeries.from_terms(n, m, 0.5, trunc, f_terms)
    g = FourierTaylorSeries.from_terms(n, m, 0.5, trunc, g_terms)
    return f, g


@settings(max_examples=60, deadline=None, database=None)
@given(_operands())
def test_product_matches_all_pairs_oracle(operands):
    f, g = operands
    for a, b in ((f, g), (g, f)):
        _assert_bit_identical(a, b)


@pytest.mark.parametrize(
    "k_budget, per_pair", [(2, 32), (None, 24)], ids=["all_kept", "order_cuts"]
)
def test_product_transient_is_bounded_per_pair(monkeypatch, k_budget, per_pair):
    """A 2174 x 3107 product in the 3-DOF ring, (8, 3, 8) with n = m = 3: the
    factors' sizes in the largest product of the 3-DOF stress normalization.
    A kept pair is two int32 row indices and an int64 code until the merge,
    which sorts the codes in place and adds an int32 order; every gather and
    every coefficient is formed a block at a time, so the transient stays
    near 22 bytes per kept pair.  Gathering the whole coefficient arrays in
    merged order took about 49.

    With |k|_1 <= 2 on both sides every pair within the |alpha| and p orders
    is kept, and the products share few keys; the bound is 32 bytes per
    kept pair.  Drawn from the whole ring, the |k|_1 order cuts more than
    half the formed pairs, which hold their indices and mask while the kept
    ones are picked out; the bound is 24 bytes per formed pair (about 19
    read)."""
    rng = np.random.default_rng(5)
    trunc = Truncation(8, 3, 8)
    f = sampled_series(rng, 3, 3, trunc, 2174, k_budget=k_budget)
    g = sampled_series(rng, 3, 3, trunc, 3107, k_budget=k_budget)
    counts = np.zeros((trunc.L_max + 1, trunc.P_max + 1), dtype=np.int64)
    np.add.at(counts, (g.acols.sum(axis=1), g.pcol), 1)
    reach = counts.cumsum(axis=0).cumsum(axis=1)
    formed = int(reach[trunc.L_max - f.acols.sum(axis=1), trunc.P_max - f.pcol].sum())
    k_filter, kept = series._k_filter, []

    def counted(*args):
        near, far_mass = k_filter(*args)
        kept.append(int(near.sum()))
        return near, far_mass

    monkeypatch.setattr(series, "_k_filter", counted)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prod = series._series_mul(f, g)
        transient = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    (kept,) = kept
    assert formed > 500_000
    if k_budget is None:
        assert kept < formed // 2
    else:
        assert kept == formed and prod.num_terms < kept // 10
    assert transient < per_pair * formed


def _run_lengths(f, g):
    """How many kept pairs reach each product key."""
    keys, _, ok = _all_pairs(f, g)
    return np.unique(keys[ok], axis=0, return_counts=True)[1]


@pytest.mark.parametrize("widest", [False, True])
@pytest.mark.parametrize("block", [1, 2, 5])
def test_product_blocks_are_bit_identical(rng, monkeypatch, widest, block):
    """The |k|_1 filter, the code sums and the coefficient sums run a block
    of pairs at a time: with blocks of 1, 2 and 5 pairs, runs of equal keys
    straddle the block ends, a block of one pair forms its coefficient as a
    length-1 product, and every key and coefficient is still the all-pairs
    oracle's, on a small lattice and on the widest that packs, K_max =
    65535 in 62 bits, whose codes overflow the merge's tagged sort."""
    n, m = 3, 1
    trunc = Truncation(65535 if widest else 4, 2, 2)
    # |k|_1 <= 1 inside, so many pairs meet on one key; the edge terms add
    # keys that one pair reaches
    f, g = (
        random_series(rng, n=n, m=m, trunc=trunc, nterms=40, k_budget=1, with_eta=eta)
        for eta in (False, True)
    )
    f = f + FourierTaylorSeries.from_terms(n, m, f.decay_rate, trunc, _edge_terms(n, m, trunc))
    codec = merge._pack_codec(n, m, trunc)
    assert (int(codec.shifts[0]) + int(codec.masks[0]).bit_length() == 62) == widest
    lengths = _run_lengths(f, g)
    assert (lengths == 1).any() and (lengths > 5).any()
    whole = series._series_mul(f, g)
    # a code at or above 2^61 overflows once shifted by any tag of 2 or
    # more bits, so the merge of the kept pairs takes the stable argsort
    assert (merge._pack(whole.keys, codec).max() >= 1 << 61) == widest
    monkeypatch.setattr(merge, "_BLOCK_PAIRS", block)
    kept, mass, events = _assert_bit_identical(f, g)
    assert kept > 0 and mass > 0 and events == 1
    assert series._series_mul(f, g) == whole


# ---- the merge against a stable-argsort reference ------------------------------


def _stable_merge(codes, coeffs):
    """The merge by numpy's stable argsort: unique codes, the first row of
    each, and the real and imaginary sums in row order."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    c = coeffs[order]
    summed = np.add.reduceat(c.real, starts) + 1j * np.add.reduceat(c.imag, starts)
    return ordered[starts], order[starts], summed


# bases of the code pool: small, negative, and near +-2^62, where shifting
# the codes left by the bit length of the row count overflows int64
_CODE_BASE = st.sampled_from([0, -(1 << 40), 1 << 52, (1 << 62) - 64, -(1 << 62)])
_PART = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e16, -1e16, 0.0, -0.0]))


@st.composite
def _codes(draw):
    """(codes, coeffs): 1 to 300 int64 codes drawn from at most 12 values
    near one base, so most repeat, with parts whose sum depends on the order."""
    base = draw(_CODE_BASE)
    pool = draw(st.lists(st.integers(0, 63), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=300))
    codes = np.array([base + pool[i] for i in picks], dtype=np.int64)
    parts = draw(st.lists(_PART, min_size=2 * len(picks), max_size=2 * len(picks)))
    coeffs = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    return codes, coeffs


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_codes())
def test_merge_codes_is_the_stable_merge(case):
    codes, coeffs = case
    original = codes.copy()
    got = merge._merge_codes(codes, coeffs)
    ref = _stable_merge(codes, coeffs)
    assert (codes == original).all()
    assert got[0].dtype == np.int64 and np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert np.array_equal(_bits(got[2].real), _bits(ref[2].real))
    assert np.array_equal(_bits(got[2].imag), _bits(ref[2].imag))


def test_merge_codes_takes_the_stable_argsort_only_when_the_tag_overflows(monkeypatch):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(
        merge.np, "argsort", lambda *a, **kw: calls.append(kw) or argsort(*a, **kw)
    )
    coeffs = np.ones(3, dtype=np.complex128)
    # three rows take a 2-bit tag, so |code| must stay below 2^61
    for code, stable in [((1 << 61) - 1, False), (-(1 << 61), False), (1 << 61, True),
                         (-(1 << 61) - 1, True), ((1 << 63) - 1, True)]:
        calls.clear()
        codes = np.array([code, 0, code], dtype=np.int64)
        merged, first, summed = merge._merge_codes(codes, coeffs)
        assert calls == ([{"kind": "stable"}] if stable else [])
        assert sorted(merged.tolist()) == merged.tolist() == sorted({code, 0})
        assert summed[merged.tolist().index(code)] == 2.0


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_operands())
def test_sum_of_canonical_series_is_the_row_merge(operands):
    """f + g merges the two sorted code runs instead of sorting them; keys
    and coefficients, down to the signed zeros a negation leaves, are bit
    for bit those of the constructor's merge of the concatenated rows, also
    where the sum cancels."""
    f, g = operands
    for a, b in ((f, g), (g, f), (f, -g), (-f, f), (f, f.scale(0))):
        got = a + b
        ref = FourierTaylorSeries(
            a.n, a.m, a.decay_rate, a.trunc,
            np.concatenate([a.keys, b.keys]), np.concatenate([a.coeffs, b.coeffs]),
        )
        assert np.array_equal(got.keys, ref.keys)
        assert np.array_equal(_bits(got.coeffs), _bits(ref.coeffs))
