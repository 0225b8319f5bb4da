import numpy as np
import pytest

import qsdlab as q
from qsdlab import spectral


@pytest.fixture(scope="session")
def ops():
    """Built operators for the bundled systems (one build per session)."""
    out = {}
    for name in ("sym2", "cycle2", "cycle3", "ds3"):
        out[name] = q.build_operator(q.get_spec(name))
    out["example21_201"] = q.build_operator(q.get_spec("example21", grid_size=201))
    out["example22_201"] = q.build_operator(q.get_spec("example22cubic", grid_size=201))
    out["example23_101"] = q.build_operator(q.get_spec("example23gauss", grid_size=101))
    return out


@pytest.fixture(scope="session")
def sds(ops):
    """Peripheral spectra for the session operators."""
    return {name: q.peripheral_spectrum(op) for name, op in ops.items()}


def perron_values(monkeypatch):
    """Spy on ``spectral._eigenvalues``: the slot-0 (Perron) value of each call's eigenvalues."""
    real, values = spectral._eigenvalues, []

    def eigenvalues(op, period):
        out = real(op, period)
        at_slot = spectral._root_slots(out[0], period)[1]
        values.append(complex(out[0][at_slot[0]]))
        return out

    monkeypatch.setattr(spectral, "_eigenvalues", eigenvalues)
    return values


def delta_at(op, x0):
    """Point mass at the grid node nearest x0."""
    nu = np.zeros(op.size)
    nu[int(np.argmin(np.abs(op.grid.nodes - x0)))] = 1.0
    return nu
