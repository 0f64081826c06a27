"""Certificate requests of the ``certify_verify`` workload.

A request computes one certificate through the public ``fejerflow.moduli``
calculators and verifies the certified claim against a trajectory that was
integrated during set-up.  The request stream is a fixed list of slots.  A
slot fixes the calculator, eps and the kind of counterfunction, which fix the
cost of the request; the seed picks the remaining inputs inside the slot
(radius within its class, counterfunction parameters), the orientation of the
set-up trajectories and the order of the stream.  Every seed therefore sees
other inputs at nearly the same total cost, and each distinct request has a
recorded reference (``reference.json``).

Radii come in two classes: rational (1, 3/2) and irrational (sqrt 2,
sqrt 3).  A slot marked ``slow`` is a known tower certificate that runs far
past the per-request time limit.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

TIME_LIMIT_S = 2.0
FAST_DRAWS = 3
DEFAULT_SEED = 1
HOLDOUT_SEED = 2

RATIONAL = ("1", "3/2")
IRRATIONAL = ("sqrt2", "sqrt3")
ALL_RADII = RATIONAL + IRRATIONAL

ZERO = ({"kind": "constant", "k": 0},)
CONSTANT = tuple({"kind": "constant", "k": k} for k in (1, 2, 3))
IDENTITY_PLUS = tuple({"kind": "identity_plus", "k": k} for k in (1, 2))
LINEAR = tuple({"kind": "linear", "a": 2, "b": b} for b in (1, 2))
TABLE = ({"kind": "table", "values": {"0": 1, "1": 2}, "default": 3},
         {"kind": "table", "values": {"0": 2}, "default": 3},
         {"kind": "table", "values": {"0": 1}, "default": 2})
COMPOSITION = tuple({"kind": "composition", "outer": {"kind": "linear", "a": 2, "b": 0},
                     "inner": {"kind": "identity_plus", "k": k}} for k in (1, 2))
FAMILIES = {"zero": ZERO, "constant": CONSTANT, "identity_plus": IDENTITY_PLUS,
            "linear": LINEAR, "table": TABLE, "composition": COMPOSITION,
            # the members of a family that the Stojkovic tower settles quickly
            "identity_plus_2": IDENTITY_PLUS[1:], "linear_2_1": LINEAR[:1],
            # and the ones it does not settle within minutes at eps = 1/10
            "constant_0_2": ZERO + CONSTANT[:2]}

# second-order system of the set-up trajectory: x'' + 3x' + 2x = 0 (B = Id)
SECOND_ORDER = {"c": "0", "d": "1", "lambda": "2", "gamma": "3", "theta": "7/2", "beta": "1"}
# energy E = ||x||^2 along the first-order 1-d trajectory, for aas1/aas2
AAS = {"Bnorm": "1/4", "A": "2", "p": "3/2", "r": "2"}


def _slots() -> list[dict]:
    """(calc, radius class, eps, counterfunction family, extra fixed inputs)."""
    slots = []

    def add(calc, radii, eps_list, families, slow=False, **fixed):
        for eps in eps_list:
            for family in families:
                slots.append({"calc": calc, "radii": radii, "eps": eps,
                              "family": family, "slow": slow, "fixed": fixed})

    # first-order system, certificate at eps, verified at 4 eps
    # (its cost grows with b^d, so these slots fix the radius)
    add("delta_first_order", ("1",), ("1", "1/20", "1/200"), ("constant", "table"), d=1)
    add("delta_first_order", ("3/2",), ("1/4", "1/50"), ("constant", "table"), d=1)
    add("delta_first_order", RATIONAL, ("1/4", "1/50"), ("identity_plus", "composition"), d=1)
    add("delta_first_order", ("1",), ("1", "1/4"), ("constant", "table"), d=2)
    add("delta_first_order", ("3/2",), ("1/2",), ("constant", "table"), d=2)
    add("delta_first_order", RATIONAL, ("1/2",), ("identity_plus",), d=2)
    add("delta_first_order", IRRATIONAL, ("1/10",), ("constant",), d=1)
    add("delta_first_order", ("sqrt3",), ("1/4",), ("constant",), d=2)
    add("delta_first_order", RATIONAL, ("1/80",), ("constant",), slow=True, d=2)
    # gradient flow and Stojkovic semigroups
    add("delta_gradient_flow", RATIONAL, ("1", "1/2", "1/10", "1/50", "1/200"),
        ("constant", "table", "identity_plus", "linear", "composition"))
    add("delta_gradient_flow", IRRATIONAL, ("1/10",), ("constant",))
    add("delta_stojkovic", ALL_RADII, ("1", "1/10", "1/200"), ("composition",))
    add("delta_stojkovic", ALL_RADII, ("1/10",), ("identity_plus_2", "linear_2_1"))
    add("delta_stojkovic", ALL_RADII, ("1/200",), ("identity_plus", "linear_2_1"))
    add("delta_stojkovic", ("1",), ("1/10",), ("constant_0_2",), slow=True)
    # second-order system
    add("lambda_capital", RATIONAL, ("1", "1/4", "1/10", "1/50", "1/200"),
        ("constant", "identity_plus", "linear", "composition"))
    add("delta_second_order", RATIONAL, ("1", "1/4", "1/50", "1/200"),
        ("constant", "identity_plus", "table"))
    add("delta_second_order", RATIONAL, ("1", "1/4"), ("zero",))
    # compactness modulus and the differential-inequality lemmas
    add("ball_total_boundedness", ALL_RADII, ("1", "1/10", "1/200"), (None,), d=1)
    add("ball_total_boundedness", RATIONAL + ("sqrt3",), ("1", "1/200"), (None,), d=2)
    add("ball_total_boundedness", ("sqrt2",), ("1/10",), (None,), d=2)
    add("aas1_metastability", ALL_RADII, ("1", "1/10", "1/50", "1/200"),
        ("constant", "identity_plus", "table", "linear"))
    add("aas2_metastability", ALL_RADII, ("1", "1/10", "1/50"),
        ("constant", "identity_plus", "linear"))
    return slots


SLOTS = _slots()


def alternatives(slot: dict) -> list[dict]:
    """Every request a slot can produce."""
    fams = FAMILIES[slot["family"]] if slot["family"] else (None,)
    out = []
    for radius in slot["radii"]:
        for f in fams:
            spec = {"calc": slot["calc"], "b": radius, "eps": slot["eps"], **slot["fixed"]}
            if f is not None:
                spec["f"] = f
            out.append(spec)
    return out


def request_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def generate(seed: int) -> tuple[list[dict], dict]:
    """The request stream and trajectory orientation for one seed.  Each
    slot that completes is drawn FAST_DRAWS times (without replacement where
    it has enough alternatives), each slow slot once."""
    rng = random.Random(seed)
    stream = []
    for slot in SLOTS:
        alts = alternatives(slot)
        draws = 1 if slot["slow"] else FAST_DRAWS
        picks = rng.sample(alts, draws) if len(alts) >= draws else \
            [rng.choice(alts) for _ in range(draws)]
        stream += [dict(spec, slow=slot["slow"]) for spec in picks]
    rng.shuffle(stream)
    orientation = {
        "sign": rng.choice((1.0, -1.0)),
        # coordinate swaps and sign flips of (0.6, 0.8) are exact symmetries
        "x0_2d": rng.choice([(sx * a, sy * b) for a, b in ((0.6, 0.8), (0.8, 0.6))
                             for sx in (1.0, -1.0) for sy in (1.0, -1.0)]),
    }
    return stream, orientation


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def radius(text: str):
    from fejerflow.exact import R

    if text.startswith("sqrt"):
        return R(int(text[4:])).sqrt()
    return Fraction(text)


def counterfunction(spec: dict):
    from fejerflow.counterfunctions import Counterfunction

    if spec["kind"] == "composition":
        return Counterfunction.compose(counterfunction(spec["outer"]),
                                       counterfunction(spec["inner"]))
    if spec["kind"] == "table":
        spec = dict(spec, values={int(k): v for k, v in spec["values"].items()})
    return Counterfunction.from_spec(spec)


def second_order_constants(b: Fraction):
    from fejerflow import moduli

    so = {k: Fraction(v) for k, v in SECOND_ORDER.items()}
    return moduli.second_order_constants(
        b, so["c"], so["d"], so["lambda"], so["lambda"], so["gamma"], so["gamma"],
        so["theta"], so["beta"])


# ---------------------------------------------------------------------------
# set-up trajectories
# ---------------------------------------------------------------------------

COARSE_STEP = 0.01


def integrate(orientation: dict) -> dict:
    """The trajectories every request verifies against, at a coarse step."""
    from fejerflow import flows
    from fejerflow.flows import ParameterCurve, Trajectory
    from fejerflow.operators import CocoerciveMap, NonexpansiveMap
    from fejerflow.space import euclidean

    s = orientation["sign"]
    half, one = ParameterCurve.constant(0.5), ParameterCurve.constant(1.0)
    trajs = {
        # x' = (1/2)(x/2 - x): the first-order builtins' system
        "first_order_1d": flows.integrate_first_order(
            NonexpansiveMap.scalar(0.5), half, [s], 40.0, COARSE_STEP),
        "first_order_2d": flows.integrate_first_order(
            NonexpansiveMap.scalar(0.5), half, list(orientation["x0_2d"]), 40.0, COARSE_STEP),
        # x' = -x: gradient flow of ||x||^2 / 2
        "gradient_flow": flows.integrate_first_order(
            NonexpansiveMap.scalar(0.0), one, [s], 40.0, COARSE_STEP),
        # x' = -2x: the Stojkovic semigroup of F = -Id
        "stojkovic": flows.integrate_first_order(
            NonexpansiveMap.negation(), one, [s], 20.0, COARSE_STEP),
        "second_order": flows.integrate_second_order(
            CocoerciveMap.identity(), ParameterCurve.constant(2.0),
            ParameterCurve.constant(3.0), [s], [0.0], 30.0, COARSE_STEP, theta=3.5),
    }
    base = trajs["first_order_1d"]
    energy = (base.xs ** 2).sum(axis=1)
    trajs["energy"] = Trajectory.from_samples(euclidean(1), base.ts, energy,
                                              est_err=2 * base.est_err, method="energy")
    return trajs


# ---------------------------------------------------------------------------
# one request
# ---------------------------------------------------------------------------


def _total_boundedness_status(traj, count, eps: float) -> str:
    """Among any count + 1 points of the ball two lie within eps: check it on
    the first count + 1 trajectory samples at spacing 1/4."""
    available = int(traj.horizon * 4) + 1
    if count + 1 > available:
        return "inconclusive"
    pts = np.vstack([traj.eval(0.25 * i) for i in range(count + 1)])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    return "holds" if math.sqrt(float(d2.min())) <= eps else "violated"


def execute(spec: dict, trajs: dict) -> tuple[object, str]:
    """Certificate value (JSON form) and verification status of one request."""
    from fejerflow import moduli, verify

    calc = spec["calc"]
    b = radius(spec["b"])
    eps = Fraction(spec["eps"])
    f = counterfunction(spec["f"]) if "f" in spec else None
    if calc == "delta_first_order":
        d = spec["d"]
        cert = moduli.delta_first_order(d, b, {"lower_witness": Fraction(1, 2)}, eps, f)
        report = verify.verify_metastability(trajs[f"first_order_{d}d"], 4 * float(eps),
                                             f, cert)
    elif calc in ("delta_gradient_flow", "delta_stojkovic"):
        fn = getattr(moduli, calc)
        cert = fn(b, moduli.ball_modulus(1, b), eps, f)
        traj = trajs["gradient_flow" if calc == "delta_gradient_flow" else "stojkovic"]
        report = verify.verify_metastability(traj, float(eps), f, cert)
    elif calc == "lambda_capital":
        consts = second_order_constants(b)
        cert = moduli.lambda_capital(consts, eps, f)
        traj = trajs["second_order"]
        residual = lambda t: max(float(np.linalg.norm(traj.eval_velocity(t))),
                                 float(np.linalg.norm(traj.eval(t))))
        report = verify.verify_residual_metastability(traj, residual, float(eps), f, cert)
    elif calc == "delta_second_order":
        # the theorem applies at min(eps, beta eps / 2) = eps / 2 for beta = 1
        consts = second_order_constants(b)
        cert = moduli.delta_second_order(consts, 1, eps / 2, f)
        report = verify.verify_metastability(trajs["second_order"], float(eps), f, cert)
    elif calc == "ball_total_boundedness":
        cert = moduli.ball_total_boundedness(spec["d"], b, eps)
        if cert.is_overflow:
            return cert.to_json(), "inconclusive_overflow"
        status = _total_boundedness_status(trajs[f"first_order_{spec['d']}d"],
                                           cert.value, float(eps))
        return cert.to_json(), status
    elif calc == "aas1_metastability":
        # E is nonincreasing, bounded below by 0 and starts at 1 <= c
        cert = moduli.aas1_metastability(0, b, Fraction(AAS["Bnorm"]), eps, f)
        report = verify.verify_metastability(trajs["energy"], float(eps), f, cert)
    elif calc == "aas2_metastability":
        cert = moduli.aas2_metastability(b, Fraction(AAS["A"]), Fraction(AAS["Bnorm"]),
                                         Fraction(AAS["p"]), Fraction(AAS["r"]), eps, f)
        energy = trajs["energy"]
        report = verify.verify_residual_metastability(
            energy, lambda t: float(energy.eval(t)[0]), float(eps), f, cert)
    else:
        raise ValueError(f"unknown calculator {calc!r}")
    return cert.to_json(), report.status


# ---------------------------------------------------------------------------
# independent oracle route (tests/oracles.py, mpmath intervals)
# ---------------------------------------------------------------------------


def oracle_value(oracles, spec: dict):
    """The oracle's certificate for a request, or None where it has none
    (irrational radius, or no oracle for this calculator and counterfunction)."""
    if spec["b"] not in RATIONAL:
        return None
    b = Fraction(spec["b"])
    eps = Fraction(spec["eps"])
    f = counterfunction(spec["f"]) if "f" in spec else None
    calc = spec["calc"]
    if calc == "delta_first_order":
        return oracles.delta_first_order(spec["d"], b, Fraction(1, 2), eps, f)
    if calc == "delta_gradient_flow":
        return oracles.delta_gradient_flow(b, 1, eps, f)
    if calc == "delta_stojkovic":
        return oracles.delta_stojkovic(b, 1, eps, f)
    if calc == "ball_total_boundedness":
        return oracles.ball_modulus(spec["d"], b, eps)
    if calc == "aas1_metastability":
        return oracles.aas1(Fraction(0), b, Fraction(AAS["Bnorm"]), eps, f)
    if calc == "aas2_metastability":
        return oracles.aas2(b, Fraction(AAS["A"]), Fraction(AAS["Bnorm"]), Fraction(AAS["p"]),
                            Fraction(AAS["r"]), eps, f)
    so = {k: Fraction(v) for k, v in SECOND_ORDER.items()}
    args = (b, so["c"], so["d"], so["lambda"], so["lambda"], so["gamma"], so["gamma"],
            so["theta"], so["beta"])
    if calc == "lambda_capital":
        return oracles.lambda_capital(oracles.second_order_constants_iv(*args), eps, f)
    if calc == "delta_second_order" and spec["f"] == {"kind": "constant", "k": 0}:
        return oracles.delta_second_order_f0(*args, 1, eps / 2)
    return None
