"""Seeded generator of small irreducible substochastic chains.

Three shares, taken in turn so every pass has the same mix.  Within a
share the sizes are spread evenly over their range and only their order
depends on the seed, so every seed asks for the same amount of work:

* ``dense``:  all entries positive, 2-50 states, aperiodic;
* ``cyclic``: m = 2..4 equal blocks, each feeding only the next one, so the
  chain has period m and every peripheral eigenvalue is lam * (m-th root).
  Equal blocks keep the matrix diagonalizable (unequal ones give defective
  zero eigenvalues, outside what the eigenvector-based oracle can check);
* ``weak``:   two dense blocks with equal Perron roots coupled by a small
  epsilon, so subdominant/lam lies in [0.9, 0.9999] (log-uniform in the gap).
  This is the regime of slowly mixing chains, where a spectral solver must
  separate two nearly equal moduli.

Only numpy is used here; the chains are plain nested lists, the form a spec
file carries them in.
"""

import numpy as np

WEAK_RATIO_BAND = (0.9, 0.9999)
KINDS = ("dense", "cyclic", "weak")


def _rows(rng, n_rows, n_cols, lo, hi):
    """Positive random rows rescaled to row sums drawn from [lo, hi]."""
    q = rng.uniform(0.05, 1.0, (n_rows, n_cols))
    return q / q.sum(axis=1, keepdims=True) * rng.uniform(lo, hi, n_rows)[:, None]


def _spread(rng, count, lo, hi):
    """``count`` integers spread evenly over lo..hi, in a seed-dependent order."""
    return rng.permutation(lo + np.arange(count) * (hi - lo + 1) // count).tolist()


def _dense(rng, n):
    return _rows(rng, n, n, 0.5, 0.99)


def _cyclic(rng, m, b):
    q = np.zeros((m * b, m * b))
    for k in range(m):
        nxt = (k + 1) % m
        q[k * b:(k + 1) * b, nxt * b:(nxt + 1) * b] = _rows(rng, b, b, 0.5, 0.99)
    return q


def _perron(a):
    return float(np.abs(np.linalg.eigvals(a)).max())


def _weak(rng, na, nb):
    lo, hi = WEAK_RATIO_BAND
    while True:
        gap = 10 ** rng.uniform(np.log10(1 - hi), np.log10(1 - lo))
        eps = gap / 2
        rho = rng.uniform(0.5, 0.8)
        a, b = (_rows(rng, k, k, 0.8, 0.95) for k in (na, nb))
        a *= rho / _perron(a)
        b *= rho / _perron(b)
        u_b = rng.dirichlet(np.ones(nb))
        u_a = rng.dirichlet(np.ones(na))
        q = np.zeros((na + nb, na + nb))
        q[:na, :na] = (1 - eps) * a
        q[:na, na:] = eps * a.sum(axis=1)[:, None] * u_b[None, :]
        q[na:, na:] = (1 - eps) * b
        q[na:, :na] = eps * b.sum(axis=1)[:, None] * u_a[None, :]
        mods = np.sort(np.abs(np.linalg.eigvals(q)))[::-1]
        if q.sum(axis=1).max() <= 1.0 and lo <= mods[1] / mods[0] <= hi:
            return q


def _shapes(rng, count):
    """Size arguments of the chains of each kind, in generation order."""
    share = {k: len(range(i, count, len(KINDS))) for i, k in enumerate(KINDS)}
    # cyclic: periods 2, 3, 4 in equal shares, block sizes spread per period
    periods = rng.permutation([2 + j % 3 for j in range(share["cyclic"])]).tolist()
    blocks = {m: _spread(rng, periods.count(m), 1, 50 // m) for m in (2, 3, 4)}
    return {
        "dense": [(n,) for n in _spread(rng, share["dense"], 2, 50)],
        "cyclic": [(m, blocks[m].pop()) for m in periods],
        "weak": list(zip(_spread(rng, share["weak"], 2, 25),
                         _spread(rng, share["weak"], 2, 25))),
    }


_MAKERS = {"dense": _dense, "cyclic": _cyclic, "weak": _weak}


def generate(seed, count):
    """``count`` chains as (kind, matrix-as-nested-list), kinds in turn."""
    rng = np.random.default_rng([seed, 0x5C4A1])
    shapes = {k: iter(v) for k, v in _shapes(rng, count).items()}
    out = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        out.append((kind, _MAKERS[kind](rng, *next(shapes[kind])).tolist()))
    return out
