"""Range checks: one wording per bound, and every error names its field."""

import numpy as np
import pytest

from dpdkit import ConfigurationError, IqSignal
from dpdkit.errors import _require_integer, _require_real
from dpdkit.mempoly import MemoryPolyModel, PolyShape, fit_ila, rescale_cascade_gain
from dpdkit.nn import DenseNet, glorot_net
from dpdkit.pa import load_default_pa

SIGNAL = IqSignal(np.full(300, 0.1 + 0j), 1.0)


@pytest.mark.parametrize("field, build", [
    pytest.param("p_max", lambda: PolyShape(3.0, 1), id="PolyShape(3.0, 1)"),
    pytest.param("q_max", lambda: PolyShape(3, 1, 2, 1), id="PolyShape(3, 1, 2, 1)"),
    pytest.param("conj_taps", lambda: PolyShape(3, 1, 3, 0), id="PolyShape(3, 1, 3, 0)"),
    pytest.param("hidden_layers", lambda: glorot_net(1.5, 4), id="glorot_net(1.5, 4)"),
    pytest.param("hidden_layers", lambda: glorot_net(True, 4), id="glorot_net(True, 4)"),
    pytest.param("width", lambda: DenseNet.zeros(2, 0), id="DenseNet.zeros(2, 0)"),
    pytest.param("n_iterations", lambda: fit_ila(load_default_pa(), PolyShape(3, 1), SIGNAL, -1),
                 id="fit_ila(n_iterations=-1)"),
    pytest.param("gain", lambda: rescale_cascade_gain(MemoryPolyModel.identity(PolyShape(3, 1)), 0),
                 id="rescale_cascade_gain(m, 0)"),
])
def test_range_error_names_its_field(field, build):
    with pytest.raises(ConfigurationError) as info:
        build()
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} ")


def test_one_wording_per_bound():
    with pytest.raises(ConfigurationError, match=r"^count must be >= 1, got 0$") as info:
        _require_integer("count", 0, 1)
    assert info.value.field == "count"
    with pytest.raises(ConfigurationError, match=r"^level must be >= 0, got -0\.5$"):
        _require_real("level", -0.5, 0)
    with pytest.raises(ConfigurationError, match=r"^rate must be positive, got 0\.0$"):
        _require_real("rate", 0.0, positive=True)
    # the type is checked before the bound
    with pytest.raises(ConfigurationError, match=r"^count must be an integer, got 0\.5$"):
        _require_integer("count", 0.5, 1)
    # a value at the bound passes, as does any value without one
    _require_integer("count", 1, 1)
    _require_integer("count", -5)
    _require_real("level", 0.0, 0)
    _require_real("rate", 1e-300, positive=True)
