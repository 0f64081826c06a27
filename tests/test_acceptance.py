"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 3-9 consume the builtin suite fixture (run once for live outcomes,
a second time for the byte-determinism gate).
"""

import functools
import random
import time
from fractions import Fraction as F

import pytest

import oracles
from fejerflow import moduli
from fejerflow.counterfunctions import Counterfunction as CF
from fejerflow.exact import R
from fejerflow.moduli import (
    ErrorRate,
    LiminfBound,
    ModulusBundle,
    PerturbationFn,
    PerturbationPair,
    ball_modulus,
    delta_first_order,
    delta_gradient_flow,
    delta_stojkovic,
    delta_with_error_rate,
    first_order_bundle,
    gradient_flow_bundle,
    rho_convergence_regular,
    stojkovic_bundle,
)

VERDICTS = []


def verdict(number: int, name: str):
    """Print one pass/fail line per criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                VERDICTS.append((number, False))
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")
            VERDICTS.append((number, True))
        return wrapper

    return decorate


def reports_by_claim(outcome):
    return {r.claim: r for r in outcome.reports}


def certs_by_theorem(outcome):
    table = {}
    for cert in outcome.certificates:
        table.setdefault(cert["theorem"], []).append(cert)
    return table


# ---------------------------------------------------------------------------
# criterion 1: certificate formula fidelity against the committed oracle
# ---------------------------------------------------------------------------


@verdict(1, "certificate formula fidelity")
def test_criterion_1_formula_fidelity():
    rng = random.Random(20240811)
    start = time.perf_counter()

    def frac(lo, hi, den=8):
        d = rng.randint(1, den)
        n = rng.randint(int(lo * d), int(hi * d))
        return F(n, d)

    fns = [CF.constant(0), CF.constant(1), CF.constant(3),
           CF.identity_plus(0), CF.identity_plus(1), CF.linear(1, 1),
           CF.table({0: 2, 3: 1}, default=1)]

    for _ in range(50):  # aas1
        b = frac(0, 2)
        c = b + frac(0, 2)
        Bn = frac(0, 2)
        eps = frac(1, 4)
        f = rng.choice(fns)
        assert moduli.aas1_metastability(b, c, Bn, eps, f).value == \
            oracles.aas1(b, c, Bn, eps, f)

    for _ in range(50):  # aas2
        c, A, Bn = frac(0, 2), frac(0, 2), frac(0, 2)
        p = rng.choice([F(1), F(3, 2), F(2)])
        r = rng.choice([F(1), F(2), None])
        eps = frac(2, 6)
        f = rng.choice(fns)
        assert moduli.aas2_metastability(c, A, Bn, p, r, eps, f).value == \
            oracles.aas2(c, A, Bn, p, r, eps, f)

    for _ in range(50):  # ball total boundedness
        d = rng.randint(1, 4)
        b = frac(0, 5)
        eps = frac(1, 4)
        assert moduli.ball_total_boundedness(d, b, eps).value == \
            oracles.ball_modulus(d, b, eps)

    for _ in range(50):  # fast linear rate
        beta = rng.randint(1, 5) / rng.randint(1, 3)
        k = rng.randint(1, 4) / rng.randint(1, 4)
        p = rng.choice([1.0, 2.0, 3.0])
        assert moduli.fast_linear_rate(beta, k, p) == oracles.fast_rate(beta, k, p)

    for _ in range(50):  # rho_convergence_regular, both branches
        a = frac(1, 6)
        power = rng.choice([1, 2])
        kind = rng.choice(["retraction", "quasi_contraction",
                           "metric_subregular", "strongly_quasiconvex"])
        if kind == "quasi_contraction":
            cc = F(rng.randint(0, 3), 4)
            tau = moduli.regularity_modulus(kind, c=cc)
            tau_kind, tau_coef = "linear", 1 - cc
        elif kind == "metric_subregular":
            kk = frac(1, 4)
            tau = moduli.regularity_modulus(kind, k=kk)
            tau_kind, tau_coef = "linear", 1 / kk
        elif kind == "strongly_quasiconvex":
            rho_p = frac(1, 3)
            tau = moduli.regularity_modulus(kind, rho=rho_p)
            tau_kind, tau_coef = "quadratic", rho_p / 2
        else:
            tau = moduli.regularity_modulus(kind)
            tau_kind, tau_coef = "linear", F(1)
        eps = frac(1, 3)
        eta_c = rng.randint(0, 5) if rng.random() < 0.5 else None
        bundle = ModulusBundle(
            phi=(LiminfBound(lambda e, n, a=a: n + (R(a) / e).ceil())
                 if eta_c is not None else
                 LiminfBound(lambda e, a=a: (R(a) / e).ceil(), unary=True)),
            eta=(ErrorRate.convergence(lambda e, eta_c=eta_c: eta_c)
                 if eta_c is not None else ErrorRate.zero()),
            pair=PerturbationPair(PerturbationFn(F(power)), PerturbationFn(F(power))),
            tau=tau,
        )
        ours = rho_convergence_regular(bundle, eps).value
        theirs = oracles.rho_regular(a, power, tau_kind, tau_coef, eta_c, eps)
        assert ours == theirs

    from fejerflow.exact import budget_limit

    for _ in range(50):  # gradient-flow Delta recursion
        b = F(rng.randint(0, 3))
        d = rng.randint(1, 2)
        eps = frac(1, 4)
        f = rng.choice([g for g in fns if g.is_nondecreasing])
        ours = delta_gradient_flow(b, ball_modulus(d, b), eps, f)
        theirs = oracles.delta_gradient_flow(b, d, eps, f)
        if ours.is_overflow:
            assert theirs > budget_limit()
        else:
            assert ours.value == theirs

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"formula fidelity took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: generic/specialized certificate agreement
# ---------------------------------------------------------------------------


@verdict(2, "generic/specialized certificate agreement")
def test_criterion_2_generic_specialized_agreement():
    start = time.perf_counter()
    eps_values = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
    fns = [CF.constant(0), CF.constant(1), CF.constant(3),
           CF.identity_plus(0), CF.table({0: 0, 1: 1}, default=2)]
    checked = 0

    for eps in eps_values:
        for f in fns:
            spec = delta_first_order(1, 1, {"lower_witness": F(1, 2)}, eps, f)
            gen = delta_with_error_rate(
                first_order_bundle(1, 1, {"lower_witness": F(1, 2)}),
                eps, f, chi_cap=R(eps) / 2)
            assert spec.is_overflow == gen.is_overflow
            if not spec.is_overflow:
                assert spec.value == gen.value
                checked += 1

    for eps in eps_values:
        for f in fns:
            if not f.is_nondecreasing:
                continue
            gt = ball_modulus(1, 1)
            spec = delta_gradient_flow(1, gt, eps, f)
            gen = delta_with_error_rate(gradient_flow_bundle(1, gt), eps, f)
            assert spec.is_overflow == gen.is_overflow
            if not spec.is_overflow:
                assert spec.value == gen.value
                checked += 1

    stoj_offset = 0
    for eps in [F(1), F(3, 2), F(2), F(3)]:
        for f in [CF.constant(0)]:
            gt = ball_modulus(1, 1)
            spec = delta_stojkovic(1, gt, eps, f)
            gen = delta_with_error_rate(stojkovic_bundle(1, gt), eps, f)
            assert spec.is_overflow == gen.is_overflow
            if not spec.is_overflow:
                # the specialized bound omits the abstract recursion's final +1
                assert gen.value == spec.value + 1
                checked += 1
                stoj_offset += 1

    elapsed = time.perf_counter() - start
    assert checked >= 20, f"only {checked} non-overflow agreement pairs"
    assert stoj_offset >= 2
    assert elapsed < 30.0, f"agreement checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 3-9: scenario-based
# ---------------------------------------------------------------------------


@verdict(3, "first-order soundness")
def test_criterion_3_first_order_soundness(suite_runs):
    outcomes, _, _, _, timings = suite_runs
    for name in ("first_order_contraction_1d", "first_order_contraction_2d"):
        claims = reports_by_claim(outcomes[name])
        # (a) Fejer monotonicity of ||x(t) - 0|| at all samples
        assert claims["fejer_distance_monotone"].status == "holds"
        assert claims["uniform_fejer"].status == "holds"
        # (b) both asymptotic-regularity variants for eps in {0.5, 0.1, 0.02};
        # the pinned horizon-40 trajectory covers the checkable prefix and the
        # long trajectory covers every eps with no skips
        for claim in ("asymptotic_regularity_divergence",
                      "asymptotic_regularity_witness",
                      "asymptotic_regularity_inf_form"):
            assert claims[claim].status in ("holds", "inconclusive")
        for claim in ("asymptotic_regularity_divergence_long",
                      "asymptotic_regularity_witness_long"):
            assert claims[claim].status == "holds"
            assert claims[claim].details["skipped_beyond_horizon"] == []
        # (c) metastability: finite certificates dominate the witness; the
        # identity counterfunction's certificate overflows and is reported
        meta = [r for c, r in claims.items() if c.startswith("metastability[")]
        assert len(meta) == 3
        for rep in meta:
            assert rep.status in ("holds", "inconclusive_overflow")
            assert rep.witness is not None
        certs = certs_by_theorem(outcomes[name])["delta_first_order"]
        finite = [c for c in certs if c["value"] != "overflow"]
        assert len(finite) >= 2
    runtime = timings["first_order_contraction_1d"] + timings["first_order_contraction_2d"]
    assert runtime < 60.0, f"first-order scenarios took {runtime:.1f}s"


@verdict(4, "exponential rate under linear regularity")
def test_criterion_4_exponential_rate(suite_runs):
    outcomes, _, _, _, _ = suite_runs
    for name in ("first_order_contraction_1d", "first_order_contraction_2d"):
        claims = reports_by_claim(outcomes[name])
        rep = claims["exponential_rate"]
        assert rep.status == "holds"
        certs = certs_by_theorem(outcomes[name])["fast_linear_rate"]
        assert certs[0]["value"] == pytest.approx(
            moduli.fast_linear_rate(0.25, 0.5, 2))


@verdict(5, "second-order linear oracle and Lambda metastability")
def test_criterion_5_second_order(suite_runs):
    outcomes, _, _, _, _ = suite_runs
    claims = reports_by_claim(outcomes["second_order_linear"])
    assert claims["closed_form_match"].status == "holds"
    assert claims["closed_form_match"].details["max_error"] <= 1e-6
    bounds = claims["second_order_bounds"]
    failing = bounds.details["l_variant_failing"]
    # both L variants hold, or the failing variant is surfaced by name
    assert bounds.status == "holds" or len(failing) >= 1
    lam = claims["lambda_metastability[f={'kind': 'constant', 'k': 0}]"]
    assert lam.status == "holds" and lam.witness is not None
    # quasi-Fejer with the modeled separable error terms
    assert claims["uniform_quasi_fejer"].status in ("holds", "holds_within_tolerance")


@verdict(6, "forward-backward reduction, approximate zeros, psi-rate")
def test_criterion_6_forward_backward(suite_runs):
    outcomes, _, _, _, _ = suite_runs
    claims = reports_by_claim(outcomes["forward_backward_first_order"])
    assert claims["fb_reduces_to_first_order"].status == "holds"
    zero_rep = claims["approximate_zero_bound"]
    assert zero_rep.status == "holds"
    assert zero_rep.details["n_points"] == 100
    psi = claims["b_convergence_psi_rate"]
    assert psi.status in ("holds", "holds_within_tolerance")
    assert psi.details["skipped_beyond_horizon"] == []
    assert claims["fb_b_inequality"].status == "holds"


@verdict(7, "gradient flow semigroup: Mayer, objective rate, Delta")
def test_criterion_7_gradient_flow(suite_runs):
    outcomes, _, _, _, _ = suite_runs
    claims = reports_by_claim(outcomes["gradient_flow_quadratic"])
    match = claims["exponential_formula_match"]
    assert match.status == "holds" and match.details["error"] <= 1e-6
    assert claims["mayer_inequality"].status in ("holds", "holds_within_tolerance")
    assert claims["objective_rate"].status == "holds"
    certs = certs_by_theorem(outcomes["gradient_flow_quadratic"])["delta_gradient_flow"]
    f0 = [c for c in certs if c["inputs"]["f"] == {"kind": "constant", "k": 0}][0]
    assert f0["value"] == 25  # finite for eps=1, b=1, d=1
    rep = claims["metastability[f={'kind': 'constant', 'k': 0}]"]
    assert rep.status == "holds" and rep.witness <= f0["value"]


@verdict(8, "nonexpansive-map semigroup: formula, lemma bound, overflow")
def test_criterion_8_stojkovic(suite_runs):
    outcomes, _, _, _, _ = suite_runs
    claims = reports_by_claim(outcomes["stojkovic_negation"])
    match = claims["exponential_formula_match"]
    assert match.status == "holds" and match.details["error"] <= 1e-6
    assert claims["fixed_point_bound"].status in ("holds", "holds_within_tolerance")
    assert claims["resolvent_inequality"].status == "holds"
    # certified e-enclosures: recomputation is exactly reproducible
    gt = ball_modulus(1, 1)
    once = delta_stojkovic(1, gt, 1, CF.constant(0))
    twice = delta_stojkovic(1, gt, 1, CF.constant(0))
    assert once.value == twice.value and once.value is not None
    meta = claims["metastability[f={'kind': 'constant', 'k': 0}]"]
    assert meta.status == "holds" and meta.witness <= once.value
    probe = claims["metastability_overflow_probe"]
    assert probe.status == "inconclusive_overflow"
    certs = certs_by_theorem(outcomes["stojkovic_negation"])
    assert certs["delta_stojkovic_overflow_probe"][0]["value"] == "overflow"


@verdict(9, "end-to-end determinism and suite runtime")
def test_criterion_9_determinism(suite_runs):
    import json

    outcomes, dir_one, dir_two, first_run_seconds, _ = suite_runs
    # nothing in the builtin suite may report a violation
    for name, outcome in outcomes.items():
        assert outcome.ok, f"{name} has violated checks"
    files_one = sorted(p.relative_to(dir_one) for p in dir_one.rglob("*") if p.is_file())
    files_two = sorted(p.relative_to(dir_two) for p in dir_two.rglob("*") if p.is_file())
    assert files_one == files_two and len(files_one) > 0
    for rel in files_one:
        assert (dir_one / rel).read_bytes() == (dir_two / rel).read_bytes(), \
            f"artifact differs between runs: {rel}"
    summary = json.loads((dir_one / "suite_summary.json").read_text())
    assert summary["coverage_missing"] == []
    assert first_run_seconds < 300.0, f"suite took {first_run_seconds:.0f}s"
