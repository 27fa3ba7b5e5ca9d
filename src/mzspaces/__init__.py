"""Exact arithmetic for Mathieu-Zhao subspace decisions on k[t]/(f),
with p-adic non-radical certificates, image-membership probes, and a
characteristic-p twisted-derivation engine.

The public names are loaded lazily (PEP 562): `import mzspaces` runs no
submodule, and the first access to a name imports the submodule that
defines it, so `mz <subcommand>` pays only for the layers it runs.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "PAdicCertificate", "certify_exponential", "certify_unit_interval", "power_moment",
    ), "certificates"),
    **dict.fromkeys((
        "format_rational", "functional_from_json", "functional_to_json",
        "laurent_from_json", "parse_rational", "poly_from_json", "poly_to_json",
    ), "cli"),
    **dict.fromkeys((
        "DependentFunctionalsError", "DoesNotSplitError", "DomainError",
    ), "errors"),
    **dict.fromkeys((
        "FunctionalNF", "dependency_relation", "evaluate", "from_moments",
        "largest_ideal_exponents", "to_moments",
    ), "functionals"),
    **dict.fromkeys((
        "ImDCertificate", "ObstructionReport", "TheoremReport", "ZXPoly", "apply_d",
        "charp_theorem_check", "imd_decide", "j_ideal_witness",
    ), "imagep"),
    **dict.fromkeys((
        "DEFAULT_MAX_SUBSET_ROOTS", "MZVerdict", "SubspaceSpec", "decide_mz", "normalize",
        "oracle_decide_mz",
    ), "mzdecide"),
    **dict.fromkeys((
        "ConstCoeffOp", "GvcProbeReport", "MatrixQ", "MultiPolyQ", "TraceReport",
        "gvc_probe", "laurent_apply_op", "laurent_image_membership", "laurent_mz_class",
        "laurent_preimage", "radical_vminus1_membership", "trace_radical_test",
    ), "probes"),
    **dict.fromkeys(("all_idempotents", "crt_idempotents"), "quotient"),
    **dict.fromkeys((
        "PADIC_INF", "Rational", "is_prime", "padic_valuation",
    ), "scalars"),
    "run_selftest": "selftest",
    "LaurentPoly": "sparse",
    **dict.fromkeys((
        "NEG_INF", "Poly", "RootData", "apply_der_op", "apply_euler_op", "extended_gcd",
        "rational_roots",
    ), "upoly"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A relative import with a fromlist returns the submodule itself.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value
