"""The package namespace loads lazily, and a light command imports only
the modules it uses."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import christoffel
import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The public names the package bound when it imported every submodule.
PUBLIC_NAMES = frozenset("""
ChristoffelError ChristoffelParams Composition ContinuedFraction DeterminantalVector
ExactMatrix FactorMatrix FieldScalar GroupTriple IetPermutation Permutation SlopeRatio
SturmianSlope Word build_sigma bw_matrix bw_rows cf_density_from_slope cf_slope_from_density
christoffel_bw_row christoffel_length christoffel_matrix consecutive_rows_square continuant
cycle_type_string cyclic_restriction det_closed det_exact det_int determinantal_vector
determinantal_vector_closed determinantal_vector_oracle enumerate_pc_words factor_matrix fib
fib_detvec_prediction fib_sign fib_word_chain from_triple g_chain gcd_lemma_check
group_identity group_inverse group_mul is_christoffel is_circular is_perfectly_clustering
jacobi lower_christoffel lucas lyndon_words mat_mul p_matrix p_product pak_redlich_circular
palindromic_factorization params ppp_factorization restriction_word_chain semiconvergents
special_factor_determinant standard_encoding standard_factorization stern_brocot_nodes
stern_brocot_path to_triple two_interval_circular upper_christoffel vector_merge_step
zolotareff
""".split())

# Names the tests state results in; they live in ``tests/oracles.py``, since
# no library code calls them.
ORACLE_NAMES = frozenset("""
christoffel_chain circular_factors conjugates cycle_encodings density_from_slope is_lyndon
is_palindrome is_primitive reversal slope_from_density
""".split())


def modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``code``, after
    its own start-up."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules)\n"
              f"{code}\n"
              "import json; print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_cli_loads_only_errors():
    loaded = modules_loaded_by("import christoffel.cli")
    assert {m for m in loaded if m.startswith("christoffel")} == {
        "christoffel", "christoffel.cli", "christoffel.errors"}
    assert not loaded & {"dataclasses", "inspect"}


def test_import_package_loads_no_submodule():
    loaded = modules_loaded_by("import christoffel")
    assert {m for m in loaded if m.startswith("christoffel")} == {"christoffel"}


def test_sign_command_loads_errors_and_permsign():
    loaded = modules_loaded_by("from christoffel.cli import main\n"
                               "assert main(['sign', 'zolotareff', '5', '13']) == 0")
    assert {m for m in loaded if m.startswith("christoffel")} == {
        "christoffel", "christoffel.cli", "christoffel.errors", "christoffel.permsign"}
    assert not loaded & {"dataclasses", "inspect"}


def test_fib_sign_command_skips_the_sturmian_modules():
    """``fib_detvec_prediction`` imports ``sturmian`` when it runs, so the
    other ``fib`` commands load neither it nor ``dataclasses``."""
    loaded = modules_loaded_by("from christoffel.cli import main\n"
                               "assert main(['fib', 'sign', '9']) == 0")
    assert {m for m in loaded if m.startswith("christoffel")} <= {
        "christoffel", "christoffel.cli", "christoffel.errors", "christoffel.fibonacci",
        "christoffel.permsign", "christoffel._frozen"}
    assert "christoffel.fibonacci" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["sturmian", "detvec", "--cf", "2,1,2", "--len", "10"],
    ["fib", "detvec", "--len", "10"],
], ids=["sturmian-detvec", "fib-detvec"])
def test_detvec_commands_skip_numeric(argv):
    """The path-minor kernel lives in ``sturmian``: the determinantal-vector
    commands load neither ``christoffel.numeric`` nor ``array``."""
    loaded = modules_loaded_by("from christoffel.cli import main\n"
                               f"assert main({argv!r}) == 0")
    assert "christoffel.sturmian" in loaded
    assert not loaded & {"christoffel.numeric", "array"}


def test_traced_functions_resolve():
    """``perfbench/tracer.py`` runs, its ``LAYERS`` is not empty, and every
    function it traces is a callable of its ``christoffel.<layer>`` module;
    the names that are not are listed."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [f"{layer}.{func}" for layer, funcs in tracer.LAYERS.items() for func in funcs
               if not callable(getattr(importlib.import_module(f"christoffel.{layer}"),
                                       func, None))]
    assert missing == []


def test_public_names():
    assert len(christoffel.__all__) == len(set(christoffel.__all__)) == 70
    assert set(christoffel.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(christoffel))


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES | ORACLE_NAMES))
def test_name_is_the_submodule_attribute(name):
    """A public name is the attribute of the submodule that defines it; a
    name the tests state results in is an attribute of ``oracles`` only."""
    if name in ORACLE_NAMES:
        assert name not in christoffel.__all__
        assert getattr(christoffel, name, None) is None
        assert callable(getattr(oracles, name))
        return
    module = importlib.import_module(f"christoffel.{christoffel._MODULE_OF[name]}")
    assert getattr(christoffel, name) is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        christoffel.no_such_name  # noqa: B018
    assert getattr(christoffel, "no_such_name", None) is None


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from christoffel import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
