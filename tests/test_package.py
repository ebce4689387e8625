"""The package's public names: each declared once, in its layer module."""

import inspect

import chebratu
from chebratu import bratu1d, chebyshev, diagnostics, newton, numerics, pde2d

LAYERS = (chebyshev, numerics, newton, bratu1d, pde2d, diagnostics)


def test_package_exports_the_layer_lists_and_errors():
    names = [name for module in LAYERS for name in module.__all__]
    assert len(set(names)) == len(names) == len(chebratu.__all__) - 1
    assert set(chebratu.__all__) == {*names, "errors"}
    assert chebratu.errors.__name__ == "chebratu.errors"
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(chebratu, name) is getattr(module, name)
            assert getattr(module, name).__module__ == module.__name__


def test_1d_and_2d_solves_take_the_same_parameters():
    # both dimensions run newton.solve; solve_1d is its ndim = 1 case with the
    # branch label on top, so it takes the same parameters but ndim
    names = list(inspect.signature(newton.solve).parameters)
    assert names == ["lam", "nonlinearity", "grid", "ndim", "guess", "amplitude", "config"]
    assert list(inspect.signature(bratu1d.solve_1d).parameters) == [
        name for name in names if name != "ndim"]
