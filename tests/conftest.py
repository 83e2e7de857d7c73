import dataclasses
import itertools

import numpy as np
import pytest

from poisson_kam import FourierTaylorSeries, StructureMatrix, Truncation

A_DEFAULT = 0.5
TR_DEFAULT = Truncation(8, 4, 4)


def mk(terms, n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT):
    return FourierTaylorSeries.from_terms(n, m, a, trunc, terms)


def zeros(n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT):
    return FourierTaylorSeries.zeros(n, m, a, trunc)


def cosx(l=0, n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT, k=1, p=0):
    kp = tuple(k if j == l else 0 for j in range(n))
    km = tuple(-k if j == l else 0 for j in range(n))
    z = (0,) * m
    return mk([(kp, z, 0, p, 0.5), (km, z, 0, p, 0.5)], n, m, a, trunc)


def sinx(l=0, n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT, k=1, p=0):
    kp = tuple(k if j == l else 0 for j in range(n))
    km = tuple(-k if j == l else 0 for j in range(n))
    z = (0,) * m
    return mk([(kp, z, 0, p, -0.5j), (km, z, 0, p, 0.5j)], n, m, a, trunc)


def yi(i=0, n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT, value=1.0):
    alpha = tuple(1 if j == i else 0 for j in range(m))
    return mk([((0,) * n, alpha, 0, 0, value)], n, m, a, trunc)


def eta(n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT):
    return mk([((0,) * n, (0,) * m, 1, 0, 1.0)], n, m, a, trunc)


def decay(p=1, n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT, value=1.0):
    return mk([((0,) * n, (0,) * m, 0, p, value)], n, m, a, trunc)


def with_budget(setup, max_steps, target_eps):
    """setup with its run budget replaced; unlike Problem.initialize this
    takes target_eps = 0, which runs every one of the max_steps steps."""
    options = dataclasses.replace(setup.options, max_steps=max_steps, target_eps=target_eps)
    return dataclasses.replace(setup, options=options)


def _dyadic(rng, scale=16):
    return (int(rng.integers(-scale, scale + 1)) + 1j * int(rng.integers(-scale, scale + 1))) / 16.0


def random_series(
    rng,
    n=1,
    m=1,
    a=A_DEFAULT,
    trunc=TR_DEFAULT,
    nterms=6,
    dyadic=False,
    real=False,
    k_budget=None,
    l_budget=None,
    p_budget=None,
    with_eta=False,
    decaying_only=False,
):
    """Random sparse series; k/alpha/p stay within the given sub-budgets so
    products can be made discard-free by construction."""
    k_budget = trunc.K_max if k_budget is None else k_budget
    l_budget = trunc.L_max if l_budget is None else l_budget
    p_budget = trunc.P_max if p_budget is None else p_budget
    terms = []
    for _ in range(nterms):
        while True:
            k = tuple(int(rng.integers(-k_budget, k_budget + 1)) for _ in range(n))
            if sum(abs(v) for v in k) <= k_budget:
                break
        while True:
            alpha = tuple(int(rng.integers(0, l_budget + 1)) for _ in range(m))
            if sum(alpha) <= l_budget:
                break
        p_lo = 1 if decaying_only else 0
        p = int(rng.integers(p_lo, max(p_budget, p_lo) + 1))
        e = int(rng.integers(0, 2)) if with_eta else 0
        if decaying_only and p == 0 and not any(k):
            p = 1
        c = _dyadic(rng) if dyadic else complex(rng.normal(), rng.normal())
        if c == 0:
            c = 1.0
        terms.append((k, alpha, e, p, c))
        if real:
            mk_ = tuple(-v for v in k)
            terms.append((mk_, alpha, e, p, c.conjugate()))
    return FourierTaylorSeries.from_terms(n, m, a, trunc, terms)


def sampled_series(rng, n, m, trunc, nterms, k_budget=None):
    """nterms distinct eta-free terms drawn at random from every key of the
    ring with |k|_1 <= k_budget (default K_max), built in one pass."""
    K, L, P = trunc
    k_budget = K if k_budget is None else k_budget
    ks = np.array(list(itertools.product(range(-k_budget, k_budget + 1), repeat=n)))
    ks = ks[np.abs(ks).sum(axis=1) <= k_budget]
    alphas = np.array(list(itertools.product(range(L + 1), repeat=m)))
    alphas = alphas[alphas.sum(axis=1) <= L]
    k_i, a_i, p = np.meshgrid(np.arange(len(ks)), np.arange(len(alphas)), np.arange(P + 1))
    keys = np.column_stack([ks[k_i.ravel()], alphas[a_i.ravel()], 0 * p.ravel(), p.ravel()])
    keys = keys[rng.choice(len(keys), nterms, replace=False)]
    coeffs = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    return FourierTaylorSeries(n, m, A_DEFAULT, trunc, keys, coeffs)


def random_structure(rng, n=1, m=1, a=A_DEFAULT, trunc=TR_DEFAULT, scale=1.0):
    """Random constant-block structure matrix (B22 skew by construction)."""
    B12 = rng.integers(-8, 9, size=(m, n)) / 8.0 * scale
    if not B12.any():
        B12[0, 0] = -1.0
    W = rng.integers(-8, 9, size=(n, n)) / 8.0 * scale
    B22 = W - W.T
    return StructureMatrix.from_constant_blocks(B12, B22, a, trunc)


def rescaled_bracket_instance(a=A_DEFAULT, trunc=TR_DEFAULT, beta=0.25):
    """Action-rescaled Poisson structure with y-dependent coupling:
    m=1, n=2, B12(y) = (1+y) * (1, 1/2), constant skew B22.  Any B12 of the
    form g(y) * const vector satisfies the Jacobi identity with these blocks.
    """
    n, m = 2, 1
    zero = FourierTaylorSeries.zeros(n, m, a, trunc)

    def entry(c0, c1):
        return FourierTaylorSeries.from_terms(
            n, m, a, trunc, [((0, 0), (0,), 0, 0, c0), ((0, 0), (1,), 0, 0, c1)]
        )

    B12 = [[entry(1.0, 1.0), entry(0.5, 0.5)]]
    b = FourierTaylorSeries.constant(beta, zero)
    B22 = [[zero, b], [(-b), zero]]
    return StructureMatrix(B12, B22)


def non_poisson_b12(trunc=TR_DEFAULT):
    """B12 = (-(1+y), -1) for m = 1, n = 2.  With any constant skew B22 the
    cyclic Jacobi sum of (y, x1, x2) is {B^{y x1}, x2} = 1 alone, so the
    structure is not Poisson: its relative Jacobi defect is 1."""
    return [[
        mk([((0, 0), (0,), 0, 0, -1.0), ((0, 0), (1,), 0, 0, -1.0)], n=2, m=1, trunc=trunc),
        mk([((0, 0), (0,), 0, 0, -1.0)], n=2, m=1, trunc=trunc),
    ]]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
