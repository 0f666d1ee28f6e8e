import numpy as np
import pytest

import nctrace
from nctrace.sphere import SpherePoly
from nctrace.su2 import GenPoly
from nctrace.torus import ThetaMatrix, TorusElement

THETA = ThetaMatrix.from_upper(2, [np.pi / 2])

BUILDERS = {
    "TorusElement": lambda c: TorusElement(THETA, {(0, 0): 1.0, (1, 0): c}),
    "SpherePoly": lambda c: SpherePoly(2, {(0, 0): 1.0, (1, 0): c}),
    "GenPoly": lambda c: GenPoly({(): 1.0, (1,): c}),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0.0, float("nan"))])
@pytest.mark.parametrize("cls", sorted(BUILDERS))
def test_non_finite_coefficient_rejected(cls, value):
    with pytest.raises(ValueError, match="not finite"):
        BUILDERS[cls](value)


def test_public_names_resolve():
    assert len(set(nctrace.__all__)) == len(nctrace.__all__)
    missing = [name for name in nctrace.__all__ if not hasattr(nctrace, name)]
    assert missing == []
