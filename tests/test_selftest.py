from mzspaces.selftest import run_selftest

EXPECTED_CHECKS = {
    "valuation-laws",
    "extended-gcd",
    "point-evaluation-laws",
    "idempotent-laws",
    "closed-form-moments",
    "moment-roundtrip",
    "integer-kernels",
    "kernel-law",
    "decision-agreement",
    "certificates",
    "trace-probe",
    "probe-kernels",
    "laurent-probe",
    "gvc-probe",
    "image-roundtrip",
    "image-theorem",
}


def test_selftest_passes_on_several_seeds():
    for seed in (0, 1, 2026):
        passed, results = run_selftest(seed)
        assert passed, [r for r in results if not r["ok"]]
        assert {r["name"] for r in results} == EXPECTED_CHECKS
        assert all(r["ok"] for r in results)


def test_selftest_is_deterministic_per_seed():
    first = run_selftest(42)
    second = run_selftest(42)
    assert first == second
