import importlib

import pytest

MODULES = [
    "mlerisk",
    "mlerisk.benchmarks",
    "mlerisk.cli",
    "mlerisk.data_moments",
    "mlerisk.error_models",
    "mlerisk.eta",
    "mlerisk.expansion",
    "mlerisk.expr",
    "mlerisk.mc",
    "mlerisk.moments",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)
