"""Exact certificate calculators.

Every operation evaluates one of the explicit rate constructions for
quasi-Fejer monotone dynamical systems: metastability bounds from
differential-inequality lemmas, the compactness-based Delta recursions, the
regularity-based convergence rates, and the specialized bounds for the
first-order, second-order, gradient-flow and nonexpansive-semigroup case
studies.  All arithmetic is exact (rational, or certified enclosures for
irrational subterms); results are :class:`ExtendedNatural` values whose
overflow sentinel surfaces tower-sized bounds instead of saturating floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .counterfunctions import Counterfunction, iterate_tilde, max_on, max_tilde_on
from .exact import (
    BudgetExceeded,
    ExtendedNatural,
    R,
    Real,
    RealLike,
    get_budget_bits,
    guard,
)

__all__ = [
    "PerturbationFn",
    "PerturbationPair",
    "LiminfBound",
    "ChiModulus",
    "ErrorRate",
    "ModulusBundle",
    "TauModulus",
    "SecondOrderConstants",
    "aas1_metastability",
    "aas2_metastability",
    "monotone_liminf_bound",
    "delta_general",
    "delta_uniform_continuity",
    "delta_with_error_rate",
    "rho_metastable_regular",
    "rho_convergence_regular",
    "fast_linear_rate",
    "ball_total_boundedness",
    "ball_modulus",
    "regularity_modulus",
    "delta_first_order",
    "second_order_constants",
    "lambda_capital",
    "second_order_liminf",
    "delta_second_order",
    "fb_uniform_monotone_rate",
    "asymptotic_regularity_rate",
    "delta_gradient_flow",
    "delta_stojkovic",
    "first_order_bundle",
    "gradient_flow_bundle",
    "stojkovic_bundle",
]

_BRUTE_CAP = 100_000


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# structured moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationFn:
    """One side of a (G, H) perturbation pair: identity, (.)^p, or c (.)^p."""

    kind: str = "identity"
    p: Fraction = Fraction(1)
    coef: Fraction = Fraction(1)

    def __post_init__(self):
        _require(self.kind in ("identity", "power", "scaled_power"),
                 f"unknown perturbation kind {self.kind!r}")
        _require(self.p > 0 and self.coef > 0, "perturbation parameters must be positive")

    def apply(self, a: RealLike) -> Real:
        a = R(a)
        if self.kind == "identity":
            return a
        value = a.powq(self.p)
        if self.kind == "scaled_power":
            value = value * R(self.coef)
        return value

    def h_modulus(self) -> Callable[[Real], Real]:
        """h with H(a) < h(eps) -> a < eps (canonical for this shape)."""
        if self.kind == "identity":
            return lambda eps: eps
        return lambda eps: R(self.coef) * R(eps).powq(self.p)

    def g_modulus(self) -> Callable[[Real], Real]:
        """g with a < g(eps) -> G(a) < eps."""
        if self.kind == "identity":
            return lambda eps: eps
        return lambda eps: (R(eps) / R(self.coef)).powq(1 / self.p)


@dataclass(frozen=True)
class PerturbationPair:
    G: PerturbationFn = PerturbationFn()
    H: PerturbationFn = PerturbationFn()

    @classmethod
    def identity(cls) -> "PerturbationPair":
        return cls()

    @classmethod
    def squares(cls, g_coef: RealLike = 1) -> "PerturbationPair":
        coef = Fraction(g_coef) if not isinstance(g_coef, Fraction) else g_coef
        g = PerturbationFn("power", Fraction(2)) if coef == 1 else \
            PerturbationFn("scaled_power", Fraction(2), coef)
        return cls(G=g, H=PerturbationFn("power", Fraction(2)))


class LiminfBound:
    """liminf-bound phi(eps, n), or unary approximate-point bound phi(eps).

    The abstract recursions need phi monotone in eps; every catalogued bound
    already is, and ``monotonized`` wraps a raw user-supplied one that is not.
    ``monotone_in_n`` lets maxima over huge index ranges collapse to the
    endpoint; every bound in the shipped theorems has this property.
    """

    def __init__(self, fn: Callable, unary: bool = False, monotone_in_n: bool = True):
        self.fn = fn
        self.unary = unary
        self.monotone_in_n = monotone_in_n

    @classmethod
    def monotonized(cls, raw: Callable[[Real, int], int],
                    monotone_in_n: bool = True) -> "LiminfBound":
        return cls(monotone_liminf_bound(raw), unary=False,
                   monotone_in_n=monotone_in_n)

    def eval(self, eps: Real, n: Optional[int] = None) -> int:
        if self.unary:
            return guard(int(self.fn(eps)))
        return guard(int(self.fn(eps, 0 if n is None else n)))

    def max_over_n(self, eps: Real, upto: int) -> int:
        if self.unary:
            return self.eval(eps)
        if self.monotone_in_n:
            return self.eval(eps, upto)
        if upto > _BRUTE_CAP:
            raise BudgetExceeded("liminf-bound maximum over too large a range")
        return max(self.eval(eps, n) for n in range(upto + 1))


class ChiModulus:
    """Uniform quasi-Fejer modulus chi(eps, n, m) in one of the shapes the
    case studies need, with an exact evaluator for

        chi^M_f(eps, N) = min over m <= N of chi(eps, m, f(m+1) + 1).
    """

    def __init__(self, kind: str, coef: RealLike = 1,
                 fn: Optional[Callable] = None):
        _require(kind in ("scaled_inverse", "exp_window", "generic"),
                 f"unknown chi kind {kind!r}")
        self.kind = kind
        self.coef = R(coef)
        self.fn = fn

    @classmethod
    def scaled_inverse(cls, c: RealLike) -> "ChiModulus":
        """chi(eps, n, m) = eps / (c m)."""
        _require(R(c).is_positive(), "scaled_inverse needs c > 0")
        return cls("scaled_inverse", coef=c)

    @classmethod
    def exp_window(cls, c: RealLike = 2) -> "ChiModulus":
        """chi(eps, n, m) = c eps / (e^{2m} - 1)."""
        return cls("exp_window", coef=c)

    @classmethod
    def generic(cls, fn: Callable[[Real, int, int], Real]) -> "ChiModulus":
        return cls("generic", fn=fn)

    def at(self, eps: Real, n: int, m: int) -> Real:
        if self.kind == "scaled_inverse":
            return eps / (self.coef * m)
        if self.kind == "exp_window":
            return self.coef * eps / (R(2 * m).exp() - 1)
        return self.fn(eps, n, m)

    def chi_f_min(self, eps: Real, upto: int, f: Counterfunction) -> Real:
        """Exact chi^M_f(eps, upto)."""
        if self.kind in ("scaled_inverse", "exp_window"):
            # both shapes decrease in m' = f(m+1)+1, so only max f matters
            worst = max_on(f, 1, upto + 1) + 1
            return self.at(eps, 0, worst)
        if upto > _BRUTE_CAP:
            raise BudgetExceeded("chi minimum over too large a range")
        return Real.minimum(*(self.at(eps, m, f(m + 1) + 1) for m in range(upto + 1)))


class ErrorRate:
    """Quantitative form of the error property e(s, t) -> 0."""

    def __init__(self, variant: str, fn: Optional[Callable] = None):
        _require(variant in ("zero", "convergence", "metastability"),
                 f"unknown error-rate variant {variant!r}")
        self.variant = variant
        self.fn = fn

    @classmethod
    def zero(cls) -> "ErrorRate":
        return cls("zero")

    @classmethod
    def convergence(cls, fn: Callable[[Real], int]) -> "ErrorRate":
        return cls("convergence", fn)

    @classmethod
    def metastability(cls, fn: Callable[[Real, Callable[[int], int]], int]) -> "ErrorRate":
        return cls("metastability", fn)


@dataclass
class ModulusBundle:
    """The moduli parameterizing the abstract convergence theorems."""

    phi: LiminfBound
    chi: Optional[ChiModulus] = None
    eta: ErrorRate = field(default_factory=ErrorRate.zero)
    g: Callable[[Real], Real] = lambda eps: eps
    h: Callable[[Real], Real] = lambda eps: eps
    gamma_tb: Optional[Callable[[Real], int]] = None
    tau: Optional[Callable[[Real], Real]] = None
    omega: Optional[Callable[[Real], Real]] = None

    @classmethod
    def from_perturbations(cls, pair: PerturbationPair, **kwargs) -> "ModulusBundle":
        return cls(g=pair.G.g_modulus(), h=pair.H.h_modulus(), **kwargs)


@dataclass(frozen=True)
class TauModulus:
    """Modulus of regularity: F(x) < tau(eps) implies dist(x, zer F) < eps."""

    kind: str
    fn: Callable[[Real], Real]

    def __call__(self, eps: RealLike) -> Real:
        return self.fn(R(eps))


# ---------------------------------------------------------------------------
# f_{phi, eps}: the counterfunction transform of the compactness theorems
# ---------------------------------------------------------------------------


class _FPhiEps:
    """f_{phi,eps}(n) = max{ m + 1 + f(m+1) : m <= phi(eps, n) } -. n."""

    def __init__(self, f: Counterfunction, phi: LiminfBound, eps: Real):
        self.f = f
        self.phi = phi
        self.eps = eps
        self._memo: dict[int, int] = {}

    def __call__(self, n: int) -> int:
        cached = self._memo.get(n)
        if cached is None:
            top = self.phi.eval(self.eps, n) if not self.phi.unary else self.phi.eval(self.eps)
            cached = max(max_tilde_on(self.f, 1, top + 1) - n, 0)
            self._memo[n] = cached
        return cached


# ---------------------------------------------------------------------------
# differential-inequality metastability bounds
# ---------------------------------------------------------------------------


def aas1_metastability(b: RealLike, c: RealLike, Bnorm: RealLike,
                       eps: RealLike, f: Counterfunction) -> ExtendedNatural:
    """Metastability bound for a locally a.c. energy bounded below by b,
    started at most at c, with L1 error mass at most Bnorm:

        omega = ceil(2 B / eps) * ceil((c + B - b) / eps),   result f~^(omega)(0).
    """
    b, c, Bnorm, eps = R(b), R(c), R(Bnorm), R(eps)
    _require(eps.is_positive(), "eps must be positive")
    _require(not (c - b).lt(0), "need c >= b")
    _require(not Bnorm.lt(0), "need Bnorm >= 0")
    try:
        omega = guard((2 * Bnorm / eps).ceil() * ((c + Bnorm - b) / eps).ceil())
        return ExtendedNatural(iterate_tilde(f, omega))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def aas2_metastability(c: RealLike, Anorm: RealLike, Bnorm: RealLike,
                       p: Union[int, Fraction], r: Union[int, Fraction, float, None],
                       eps: RealLike, f: Counterfunction) -> ExtendedNatural:
    """Metastability bound for a nonnegative L^p energy with L^r error:

        q = 1 + p (1 - 1/r)
        varpi = ceil(2^{q+1} q A^{q-1} B / (eps^q (2^q - 1)))
              * ceil(2^q (c^q + q A^{q-1} B) / (eps^q (2^q - 1)))

    lifted to f'(n) = max(f(n), ceil((3A/eps)^p)); result f'~^(varpi)(0).
    Non-integer q makes the ceiling arguments irrational; those round outward
    (upper bounds stay upper bounds).
    """
    p = Fraction(p)
    _require(p >= 1, "need p >= 1")
    if r is None or (isinstance(r, float) and math.isinf(r)):
        q = 1 + p
    else:
        r = Fraction(r)
        _require(r >= 1, "need r >= 1")
        q = 1 + p * (1 - Fraction(1) / r)
    c, Anorm, Bnorm, eps = R(c), R(Anorm), R(Bnorm), R(eps)
    _require(eps.is_positive(), "eps must be positive")
    try:
        two_q = R(2).powq(q)
        eps_q = eps.powq(q)
        a_qm1 = Anorm.powq(q - 1) if not (q - 1 == 0) else R(1)
        denom = eps_q * (two_q - 1)
        first = (2 * two_q * R(q) * a_qm1 * Bnorm) / denom
        second = (two_q * (c.powq(q) + R(q) * a_qm1 * Bnorm)) / denom
        varpi = guard(first.ceil_upper() * second.ceil_upper())
        floor_value = ((3 * Anorm / eps).powq(p)).ceil_upper()
        return ExtendedNatural(iterate_tilde(f, varpi, floor_value=floor_value))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


# ---------------------------------------------------------------------------
# the liminf-bound monotonization
# ---------------------------------------------------------------------------


def monotone_liminf_bound(phi_raw: Callable[[Real, int], int]) -> Callable[[Real, int], int]:
    """Wrap a liminf-bound so it is monotone in eps:

        phi_hat(eps, n) = max{ phi(1/(k+1), n) : k <= ceil(1/eps) }.
    """

    def phi_hat(eps: RealLike, n: int) -> int:
        top = (1 / R(eps)).ceil()
        if top > _BRUTE_CAP:
            raise BudgetExceeded("monotonization range too large")
        return max(phi_raw(R(Fraction(1, k + 1)), n) for k in range(top + 1))

    return phi_hat


# ---------------------------------------------------------------------------
# the abstract Delta recursions
# ---------------------------------------------------------------------------


def _delta_core(bundle: ModulusBundle, eps: Real, f: Counterfunction,
                chi_cap: Optional[Real], trace: Optional[dict]) -> int:
    _require(bundle.gamma_tb is not None, "bundle needs a total-boundedness modulus")
    _require(bundle.chi is not None, "bundle needs a uniform Fejer modulus")
    delta_arg = bundle.h(eps / 2) / 3
    P = guard(bundle.gamma_tb(bundle.g(delta_arg)) + 1)
    levels = [0]
    run_min: Optional[Real] = None
    for _ in range(1, P + 1):
        cand = bundle.chi.chi_f_min(delta_arg, levels[-1], f)
        run_min = cand if run_min is None else Real.minimum(run_min, cand)
        eps_hat = run_min if chi_cap is None else Real.minimum(chi_cap, run_min)
        if bundle.eta.variant == "zero":
            dj = bundle.phi.eval(eps_hat)
        elif bundle.eta.variant == "convergence":
            dj = bundle.phi.max_over_n(eps_hat, guard(bundle.eta.fn(delta_arg)))
        else:
            f_phi = _FPhiEps(f, bundle.phi, eps_hat)
            dj = bundle.phi.max_over_n(eps_hat, guard(bundle.eta.fn(delta_arg, f_phi)))
        levels.append(guard(dj))
    if trace is not None:
        trace["P"] = P
        trace["levels"] = list(levels)
    return guard(max(levels) + 1)


def delta_general(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                  chi_cap: Optional[RealLike] = None,
                  trace: Optional[dict] = None) -> ExtendedNatural:
    """Full compactness-based metastability bound (errors resolved by a rate
    of metastability)."""
    _require(bundle.eta.variant == "metastability",
             "delta_general needs a metastability-variant error rate")
    try:
        cap = None if chi_cap is None else R(chi_cap)
        return ExtendedNatural(_delta_core(bundle, R(eps), f, cap, trace))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def delta_with_error_rate(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                          chi_cap: Optional[RealLike] = None,
                          trace: Optional[dict] = None) -> ExtendedNatural:
    """Simplified bound when errors have a rate of convergence or vanish."""
    _require(bundle.eta.variant in ("zero", "convergence"),
             "delta_with_error_rate needs a convergence-variant or zero error rate")
    try:
        cap = None if chi_cap is None else R(chi_cap)
        return ExtendedNatural(_delta_core(bundle, R(eps), f, cap, trace))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def delta_uniform_continuity(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                             trace: Optional[dict] = None) -> ExtendedNatural:
    """Metastability bound that also certifies approximate solutions along
    the window, for uniformly continuous solution functions: evaluates the
    core recursion at min(eps, omega(eps/2)) with chi capped at eps/2."""
    _require(bundle.omega is not None, "bundle needs a uniform-continuity modulus")
    eps = R(eps)
    eps0 = Real.minimum(eps, bundle.omega(eps / 2))
    try:
        return ExtendedNatural(_delta_core(bundle, eps0, f, eps / 2, trace))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


# ---------------------------------------------------------------------------
# regularity-based rates
# ---------------------------------------------------------------------------


def rho_metastable_regular(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                           trace: Optional[dict] = None) -> ExtendedNatural:
    """Metastability of dist(x(t), zer F) under a modulus of regularity when
    errors only admit a rate of metastability:

        rho(eps, f) = max{ phi(tau(g(h(eps)/2)), n) :
                           n <= eta(h(eps)/2, f_{phi, h(eps)}) } + 1.
    """
    _require(bundle.tau is not None, "bundle needs a modulus of regularity")
    _require(bundle.eta.variant == "metastability",
             "rho_metastable_regular needs a metastability-variant error rate")
    eps = R(eps)
    try:
        threshold = bundle.tau(bundle.g(bundle.h(eps) / 2))
        f_phi = _FPhiEps(f, bundle.phi, threshold)
        upto = guard(bundle.eta.fn(bundle.h(eps) / 2, f_phi))
        value = guard(bundle.phi.max_over_n(threshold, upto) + 1)
        if trace is not None:
            trace["eta_bound"] = upto
        return ExtendedNatural(value)
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def rho_convergence_regular(bundle: ModulusBundle, eps: RealLike,
                            trace: Optional[dict] = None) -> ExtendedNatural:
    """Rate of convergence of dist(x(t), zer F) under a modulus of regularity:

        with error rate:  rho(eps) = phi(tau(g(h(eps)/2)), eta(h(eps)/2)) + 1
        zero error:       rho(eps) = phi(tau(g(h(eps)))) + 1
    """
    _require(bundle.tau is not None, "bundle needs a modulus of regularity")
    eps = R(eps)
    try:
        if bundle.eta.variant == "zero":
            value = guard(bundle.phi.eval(bundle.tau(bundle.g(bundle.h(eps)))) + 1)
            branch = "zero_error"
        elif bundle.eta.variant == "convergence":
            upto = guard(bundle.eta.fn(bundle.h(eps) / 2))
            value = guard(
                bundle.phi.max_over_n(bundle.tau(bundle.g(bundle.h(eps) / 2)), upto) + 1
            )
            branch = "with_error_rate"
        else:
            raise ValueError("rho_convergence_regular needs a convergence-variant "
                             "or zero error rate")
        if trace is not None:
            trace["branch"] = branch
        return ExtendedNatural(value)
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def fast_linear_rate(beta: float, k: float, p: float = 1.0) -> float:
    """Exponential contraction factor c = (1 + beta k^p)^(-1/p) in (0, 1)."""
    _require(beta > 0 and k > 0, "beta and k must be positive")
    _require(p >= 1, "p must be at least 1")
    return (1.0 + beta * k ** p) ** (-1.0 / p)


# ---------------------------------------------------------------------------
# total boundedness of balls in R^d
# ---------------------------------------------------------------------------


def _ball_tb_int(d: int, b: RealLike, eps: Real) -> int:
    _require(d >= 1, "dimension must be >= 1")
    b = R(b)
    _require(not b.lt(0), "radius must be nonnegative")
    inner = guard((1 / eps).ceil())
    base = (2 * (inner + 1) * R(d).sqrt() * b).ceil()
    if base >= 2 and d * (base.bit_length() - 1) > get_budget_bits():
        raise BudgetExceeded("total-boundedness modulus exceeds budget")
    return guard(base ** d)


def ball_total_boundedness(d: int, b: RealLike, eps: RealLike) -> ExtendedNatural:
    """Modulus of total boundedness of a closed ball of radius b in R^d:

        gamma(eps) = ceil(2 (ceil(1/eps) + 1) sqrt(d) b) ^ d.
    """
    eps = R(eps)
    _require(eps.is_positive(), "eps must be positive")
    try:
        return ExtendedNatural(_ball_tb_int(d, b, eps))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def ball_modulus(d: int, b: RealLike) -> Callable[[Real], int]:
    """Curried form usable as a bundle's gamma_tb."""
    return lambda eps: _ball_tb_int(d, b, R(eps))


# ---------------------------------------------------------------------------
# catalogued moduli of regularity
# ---------------------------------------------------------------------------


def regularity_modulus(kind: str, **params) -> TauModulus:
    """The catalogued moduli of regularity for fixed points / operator zeros /
    minimizers."""
    if kind in ("quasi_contraction", "orbital_contraction"):
        c = Fraction(params["c"])
        _require(0 <= c < 1, "contraction factor must lie in [0, 1)")
        return TauModulus(kind, lambda eps: (1 - c) * eps)
    if kind == "retraction":
        return TauModulus(kind, lambda eps: eps)
    if kind == "strongly_accretive":
        beta = Fraction(params["beta"])
        _require(beta > 0, "accretivity constant must be positive")
        return TauModulus(kind, lambda eps: beta * eps)
    if kind == "metric_subregular":
        k = Fraction(params["k"])
        _require(k > 0, "subregularity constant must be positive")
        return TauModulus(kind, lambda eps: eps / k)
    if kind == "weak_sharp":
        return TauModulus(kind, params["tau_fn"])
    if kind == "strongly_quasiconvex":
        rho = Fraction(params["rho"])
        _require(rho > 0, "quasiconvexity constant must be positive")
        return TauModulus(kind, lambda eps: Fraction(rho, 2) * eps * eps)
    raise ValueError(f"unknown regularity kind {kind!r}")


# ---------------------------------------------------------------------------
# first-order system over a nonexpansive map
# ---------------------------------------------------------------------------


def asymptotic_regularity_rate(b: RealLike, *, divergence_modulus=None,
                               lower_witness: Optional[RealLike] = None,
                               averaged_delta: RealLike = 1) -> Callable[[Real], int]:
    """Rate phi(eps) with ||T(x(t)) - x(t)|| <= eps for t >= phi(eps).

    Either from a divergence modulus eta for the integral of lambda(1-lambda)
    (phi(eps) = eta(delta b^2 / eps^2)) or from a positive lower witness for
    lambda (phi(eps) = 4 b^4 delta^2 / (lambda_ ^2 eps^2)).  ``averaged_delta``
    is 1 for the plain system and the averagedness delta for forward-backward.
    """
    _require((divergence_modulus is None) != (lower_witness is None),
             "exactly one of divergence_modulus / lower_witness required")
    b = R(b)
    delta = R(averaged_delta)
    if divergence_modulus is not None:
        return lambda eps: guard(int(divergence_modulus(delta * b * b / (R(eps) * R(eps)))))
    lam = R(lower_witness)
    _require(lam.is_positive(), "lower witness must be positive")

    def phi(eps: Real) -> int:
        if not b.is_positive():
            return 0
        return guard((4 * b.powq(4) * delta * delta / (lam * lam * R(eps) * R(eps))).ceil())

    return phi


def delta_first_order(d: int, b: RealLike, lambda_info: dict, eps: RealLike,
                      f: Counterfunction, trace: Optional[dict] = None) -> ExtendedNatural:
    """Metastability bound for the first-order system over a nonexpansive map
    in R^d.  The theorem applies this at eps/4: callers scale before calling.

        P = ceil(2 (ceil(sqrt(12)/eps) + 1) sqrt(d) b)^d + 1
        Delta(j) = phi(eps_hat_j),
        eps_hat_j = min{eps/2, (eps^2/12) / (4 b (f(m+1)+1)) :
                        m <= Delta(i), i < j}
    """
    _require(d >= 1, "dimension must be >= 1")
    eps = R(eps)
    _require(eps.is_positive(), "eps must be positive")
    phi = asymptotic_regularity_rate(b, **lambda_info)
    b = R(b)
    try:
        if not b.is_positive():
            if trace is not None:
                trace["P"] = 1
                trace["levels"] = [0, 0]
            return ExtendedNatural(1)
        inner = guard((R(12).sqrt() / eps).ceil())
        P = guard(guard((2 * (inner + 1) * R(d).sqrt() * b).ceil()) ** d + 1)
        levels = [0]
        run_min: Optional[Real] = None
        for _ in range(1, P + 1):
            worst = max_on(f, 1, levels[-1] + 1) + 1
            cand = (eps * eps / 12) / (4 * b * worst)
            run_min = cand if run_min is None else Real.minimum(run_min, cand)
            eps_hat = Real.minimum(eps / 2, run_min)
            levels.append(guard(phi(eps_hat)))
        if trace is not None:
            trace["P"] = P
            trace["levels"] = list(levels)
        return ExtendedNatural(guard(max(levels) + 1))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def first_order_bundle(d: int, b: RealLike, lambda_info: dict) -> ModulusBundle:
    """The abstract-theorem instantiation matching :func:`delta_first_order`
    (G = H = squares, chi = eps/(4 b m), zero errors, unary phi).  Evaluate
    via delta_with_error_rate with chi_cap = eps/2."""
    phi = asymptotic_regularity_rate(b, **lambda_info)
    return ModulusBundle(
        phi=LiminfBound(phi, unary=True),
        chi=ChiModulus.scaled_inverse(4 * R(b)),
        eta=ErrorRate.zero(),
        g=lambda eps: eps.sqrt(),
        h=lambda eps: eps * eps,
        gamma_tb=ball_modulus(d, b),
        omega=lambda eps: eps / 2,
    )


# ---------------------------------------------------------------------------
# second-order system over a cocoercive map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderConstants:
    """The derived boundedness constants of the second-order system.

    Two inequivalent shapes of the derivative bound L are in circulation,
    ceil((K+M) * beta gamma_lo / lam_hi) and ceil((K+M) / (beta gamma_lo /
    lam_hi)); ``l_variant`` selects which one feeds the downstream constants,
    and the verifier always reports both against the trajectory.
    """

    b: Fraction
    c: Fraction
    d: Fraction
    lam_lo: Fraction
    lam_hi: Fraction
    gam_lo: Fraction
    gam_hi: Fraction
    theta: Fraction
    beta: Fraction
    l_variant: str
    M: Fraction
    K: Real
    L_mult: int
    L_div: int
    L: int
    a0: Real
    a1: Real
    a2: Real
    A: Real
    B: Real
    C: Fraction

    def describe(self) -> dict:
        return {
            "M": float(self.M),
            "K": self.K.to_float(),
            "L_mult": self.L_mult,
            "L_div": self.L_div,
            "L": self.L,
            "l_variant": self.l_variant,
            "a0": self.a0.to_float(),
            "a1": self.a1.to_float(),
            "a2": self.a2.to_float(),
            "A": self.A.to_float(),
            "B": self.B.to_float(),
            "C": float(self.C),
        }


def second_order_constants(b, c, d, lam_lo, lam_hi, gam_lo, gam_hi, theta, beta,
                           l_variant: str = "multiply") -> SecondOrderConstants:
    """Constants M, K, L, a0..a2, A, B, C for the second-order system."""
    b, c, d = Fraction(b), Fraction(c), Fraction(d)
    lam_lo, lam_hi = Fraction(lam_lo), Fraction(lam_hi)
    gam_lo, gam_hi = Fraction(gam_lo), Fraction(gam_hi)
    theta, beta = Fraction(theta), Fraction(beta)
    _require(b >= 0 and c >= 0 and d >= 0, "b, c, d must be nonnegative")
    _require(0 < lam_lo <= lam_hi, "need 0 < lambda_lo <= lambda_hi")
    _require(0 < gam_lo <= gam_hi, "need 0 < gamma_lo <= gamma_hi")
    _require(theta > 0 and beta > 0, "theta and beta must be positive")
    _require(l_variant in ("multiply", "divide"), "l_variant is multiply|divide")

    M = b * c + Fraction(gam_hi, 2) * b * b + beta * gam_hi / lam_lo * c * c
    K = (R(b * b) + R(2) / R(gam_lo) * R(M)).sqrt()
    ratio = R(beta * gam_lo / lam_hi)
    L_mult = ((K + R(M)) * ratio).ceil()
    L_div = ((K + R(M)) / ratio).ceil()
    L = L_mult if l_variant == "multiply" else L_div
    a0 = (K * L / R(theta)).sqrt()
    a1 = (K * L * R(lam_hi) / R(beta)).sqrt()
    a2 = (a1 + R(gam_hi) * a0) / R(lam_lo)
    A = Real.maximum(a0, a2) / 2
    Bc = Real.maximum(a0 + a1, a2 + a0 / R(beta * beta)) / 2
    C = Fraction(max(c, d), 2)
    return SecondOrderConstants(
        b=b, c=c, d=d, lam_lo=lam_lo, lam_hi=lam_hi, gam_lo=gam_lo, gam_hi=gam_hi,
        theta=theta, beta=beta, l_variant=l_variant, M=M, K=K,
        L_mult=L_mult, L_div=L_div, L=L, a0=a0, a1=a1, a2=a2, A=A, B=Bc, C=C,
    )


def _varpi_second_order(consts: SecondOrderConstants, eps: Real) -> int:
    first = (16 * consts.A * consts.B / (3 * eps * eps)).ceil()
    if first == 0:
        return 0
    second = ((4 * (R(consts.C) * R(consts.C) + 2 * consts.A * consts.B))
              / (3 * eps * eps)).ceil()
    return guard(first * second)


def lambda_capital(consts: SecondOrderConstants, eps: RealLike, f) -> ExtendedNatural:
    """Metastability bound Lambda(eps, f) for ||x'(t)|| and ||B(x(t))||."""
    eps = R(eps)
    _require(eps.is_positive(), "eps must be positive")
    try:
        return ExtendedNatural(_lambda_int(consts, eps, f))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def _lambda_int(consts: SecondOrderConstants, eps: Real, f) -> int:
    varpi = _varpi_second_order(consts, eps)
    if varpi == 0:
        return 0
    floor_value = ((3 * consts.A / eps) * (3 * consts.A / eps)).ceil()
    return iterate_tilde(f, varpi, floor_value=floor_value)


def second_order_liminf(consts: SecondOrderConstants, eps: RealLike, n: int) -> int:
    """The liminf-bound phi(eps, n) = varpi(eps) * max(n, ceil((3A/eps)^2))."""
    eps = R(eps)
    varpi = _varpi_second_order(consts, eps)
    if varpi == 0:
        return 0
    floor_value = ((3 * consts.A / eps) * (3 * consts.A / eps)).ceil()
    return guard(varpi * max(n, floor_value))


def _second_order_eta(consts: SecondOrderConstants, delta: Real, f) -> int:
    arg = Real.minimum(
        delta * R(consts.gam_lo) / (6 * consts.K),
        (delta * R(consts.gam_lo) * R(consts.lam_lo)
         / (6 * R(consts.beta) * R(consts.gam_hi))).sqrt(),
    )
    return _lambda_int(consts, arg, f)


def delta_second_order(consts: SecondOrderConstants, dim: int, eps: RealLike,
                       f: Counterfunction, trace: Optional[dict] = None) -> ExtendedNatural:
    """Metastability bound for the second-order system in R^dim.  The theorem
    applies this at min(eps, beta eps / 2): callers scale before calling."""
    _require(dim >= 1, "dimension must be >= 1")
    eps = R(eps)
    _require(eps.is_positive(), "eps must be positive")
    try:
        if consts.K.exact is not None and consts.K.exact == 0:
            if trace is not None:
                trace["P"] = 1
                trace["levels"] = [0, 0]
            return ExtendedNatural(1)
        scale = (12 * R(consts.gam_hi) / R(consts.gam_lo)).sqrt()
        inner = guard((scale / eps).ceil())
        P = guard(guard((2 * (inner + 1) * R(dim).sqrt() * R(consts.b)).ceil()) ** dim + 1)
        phi = LiminfBound(lambda e, n: second_order_liminf(consts, e, n))
        levels = [0]
        run_min: Optional[Real] = None
        for _ in range(1, P + 1):
            worst = max_on(f, 1, levels[-1] + 1) + 1
            cand = (R(consts.gam_lo) * eps * eps / 12) / (worst * R(consts.lam_hi) * 8 * consts.K)
            run_min = cand if run_min is None else Real.minimum(run_min, cand)
            eps_hat = Real.minimum(eps / 2, run_min)
            f_phi = _FPhiEps(f, phi, eps_hat)
            upto = _second_order_eta(consts, eps * eps / 12, f_phi)
            levels.append(guard(phi.max_over_n(eps_hat, guard(upto))))
        if trace is not None:
            trace["P"] = P
            trace["levels"] = list(levels)
        return ExtendedNatural(guard(max(levels) + 1))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


# ---------------------------------------------------------------------------
# forward-backward under uniform monotonicity
# ---------------------------------------------------------------------------


def fb_uniform_monotone_rate(order: str, who: str, phi_fn: Callable[[Real], Real],
                             eps: RealLike, *,
                             b: Optional[RealLike] = None,
                             gamma: Optional[RealLike] = None,
                             beta: Optional[RealLike] = None,
                             flow_rate: Optional[Callable[[Real], int]] = None,
                             consts: Optional[SecondOrderConstants] = None,
                             eta_step: Optional[RealLike] = None,
                             f: Optional[Counterfunction] = None,
                             ) -> ExtendedNatural:
    """Convergence rate (first order) or metastability bound (second order)
    for the forward-backward flow when A or B is uniformly monotone with
    function phi_fn."""
    _require(order in ("first", "second"), "order is first|second")
    _require(who in ("A", "B"), "who is A|B")
    eps = R(eps)
    try:
        if order == "first":
            _require(None not in (b, gamma, beta, flow_rate),
                     "first order needs b, gamma, beta, flow_rate")
            b, gamma, beta = R(b), R(gamma), R(beta)
            psi = lambda e: flow_rate(gamma * beta * e * e / (3 * b))
            if who == "B":
                return ExtendedNatural(guard(psi(phi_fn(eps) / b)))
            half = phi_fn(eps / 2)
            first = flow_rate(Real.minimum(gamma * half / (2 * b), eps / 2))
            second = psi(half / (2 * b))
            # both the residual condition and the B-condition must hold past
            # the returned time, so the two rates combine by max
            return ExtendedNatural(guard(max(first, second)))
        _require(consts is not None and eta_step is not None and f is not None,
                 "second order needs consts, eta_step, f")
        eta_step = R(eta_step)
        K, beta = consts.K, R(consts.beta)
        if who == "B":
            arg = (phi_fn(eps) / K) * (phi_fn(eps) / K) * eta_step * beta / (3 * K)
            return ExtendedNatural(_lambda_int(consts, arg, f))
        half = phi_fn(eps / 2)
        arg = Real.minimum(
            (half / (2 * K)) * (half / (2 * K)) * eta_step * beta / (3 * K),
            eta_step * half / (2 * K),
            eps / 2,
        )
        return ExtendedNatural(_lambda_int(consts, arg, f))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


# ---------------------------------------------------------------------------
# Hadamard semigroups
# ---------------------------------------------------------------------------


def delta_gradient_flow(b: RealLike, gamma_tb: Callable[[Real], int],
                        eps: RealLike, f: Counterfunction,
                        trace: Optional[dict] = None) -> ExtendedNatural:
    """Metastability bound for the gradient-flow semigroup of a convex lsc
    function (nondecreasing f):

        P = gamma(eps / sqrt(12)) + 1,
        Delta(j+1) = ceil(24 b^2 (f(Delta(j) + 1) + 1) / eps^2),
        result Delta(P) + 1.
    """
    _require(f.is_nondecreasing, "the gradient-flow bound needs nondecreasing f")
    b, eps = R(b), R(eps)
    _require(eps.is_positive(), "eps must be positive")
    try:
        P = guard(gamma_tb(eps / R(12).sqrt()) + 1)
        level = 0
        levels = [0]
        b_sq = b * b
        for _ in range(P):
            level = guard((24 * b_sq * (f(level + 1) + 1) / (eps * eps)).ceil())
            levels.append(level)
        if trace is not None:
            trace["P"] = P
            trace["levels"] = levels
        return ExtendedNatural(guard(level + 1))
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def gradient_flow_bundle(b: RealLike, gamma_tb: Callable[[Real], int]) -> ModulusBundle:
    """Abstract instantiation matching :func:`delta_gradient_flow`
    (G = H = squares, chi = eps/2m, phi = ceil(b^2/eps), zero errors)."""
    b = R(b)

    def phi(eps: Real) -> int:
        if not b.is_positive():
            return 0
        return (b * b / eps).ceil()

    return ModulusBundle(
        phi=LiminfBound(phi, unary=True),
        chi=ChiModulus.scaled_inverse(2),
        eta=ErrorRate.zero(),
        g=lambda eps: eps.sqrt(),
        h=lambda eps: eps * eps,
        gamma_tb=gamma_tb,
    )


def _stojkovic_phi(b: Real, eps: Real) -> int:
    arg = 4 * b / eps
    return guard((arg * arg.exp()).ceil())


def delta_stojkovic(b: RealLike, gamma_tb: Callable[[Real], int],
                    eps: RealLike, f: Counterfunction,
                    trace: Optional[dict] = None) -> ExtendedNatural:
    """Metastability bound for the semigroup generated by a nonexpansive map
    via its implicit resolvent (nondecreasing f):

        phi(eps) = ceil((4b/eps) e^{4b/eps}),
        chi_f(eps, n) = 2 eps / (e^{2 (f(n+1) + 1)} - 1),
        eps_hat_1 = chi_f(eps/6, 0),  eps_hat_j = chi_f(eps/6, phi(eps_hat_{j-1})),
        result phi(eps_hat_P) for P = gamma(eps/6) + 1.

    This certificate is an exponential tower; overflow is the expected
    outcome for small eps or growing f.
    """
    _require(f.is_nondecreasing, "the semigroup bound needs nondecreasing f")
    b, eps = R(b), R(eps)
    _require(eps.is_positive(), "eps must be positive")
    if not b.is_positive():
        if trace is not None:
            trace["P"] = None
            trace["levels"] = [0]
        return ExtendedNatural(0)
    try:
        P = guard(gamma_tb(eps / 6) + 1)

        def chi_f(delta: Real, n: int) -> Real:
            m = f(n + 1) + 1
            return 2 * delta / (R(2 * m).exp() - 1)

        levels = []
        eps_hat = chi_f(eps / 6, 0)
        levels.append(_stojkovic_phi(b, eps_hat))
        for _ in range(2, P + 1):
            eps_hat = chi_f(eps / 6, levels[-1])
            levels.append(_stojkovic_phi(b, eps_hat))
        if trace is not None:
            trace["P"] = P
            trace["levels"] = levels
        return ExtendedNatural(levels[-1])
    except BudgetExceeded:
        return ExtendedNatural.overflow()


def stojkovic_bundle(b: RealLike, gamma_tb: Callable[[Real], int]) -> ModulusBundle:
    """Abstract instantiation matching :func:`delta_stojkovic` (G = H = Id).

    The specialized bound drops the abstract recursion's final "+1"; the
    generic evaluation therefore exceeds it by exactly one.
    """
    b = R(b)

    def phi(eps: Real) -> int:
        if not b.is_positive():
            return 0
        return _stojkovic_phi(b, eps)

    return ModulusBundle(
        phi=LiminfBound(phi, unary=True),
        chi=ChiModulus.exp_window(2),
        eta=ErrorRate.zero(),
        gamma_tb=gamma_tb,
    )
