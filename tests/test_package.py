"""The package's public names: each declared once, in its layer module;
and the README's Python quick start, which calls them, runs."""

from pathlib import Path

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


def test_readme_python_block_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})
