"""Exact-arithmetic kernel for hyper-Catalan and Geode numbers.

The hyper-Catalan series S[t_1..t_r] solves S = 1 + sum_k t_k S^{k+1}; the
Geode series G is the exact quotient (S - 1) / (t_1 + ... + t_r).  This
package computes both from the defining equation over arbitrary-precision
integers and verifies every closed form, evaluation identity, partition-sum
identity and telescoping certificate attached to them.
"""

# Every exported name and the module it is read from.  ``import geodenums``
# imports none of them: a name's module is imported when the name is first
# read (``__getattr__``), so a command loads only the modules it runs.
_EXPORTS = {
    name: module
    for module, names in (
        ("mpoly", (
            "ExpVec", "NonzeroConstantError", "NotDivisibleError", "OutOfRangeError",
            "TruncatedSeries", "UnivariateSeries", "VariableCountMismatchError", "coeff",
            "constant_series", "divide_exact_by_s1", "iter_exponents", "mul", "s1_series",
            "series_to_dict", "sub", "substitute_signed",
        )),
        ("hypercat", ("functional_residual", "hyper_catalan", "solve_S")),
        ("geode", (
            "GeodeTable", "eval_alternating", "eval_general",
            "geode_closed_shifted", "geode_closed_two_nonzero", "geode_recurrence_check",
            "geode_series",
        )),
        ("identities", (
            "binom_general", "claim1_sum", "claim2_ct", "claim2_sum",
            "partition_sum_main",
        )),
        ("verify", ("check_certificate_R", "check_wz1", "check_wz2")),
        ("report", ("Case", "VerifyReport")),
    )
    for name in names
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The exported `name`, imported from its module on first read."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
