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
    # the command line calls either solve the same way; only the operator differs
    names = [list(inspect.signature(f).parameters) for f in (bratu1d.solve_1d, pde2d.solve_2d)]
    assert names[0] == names[1] == ["lam", "nonlinearity", "grid", "guess", "amplitude",
                                    "config"]
