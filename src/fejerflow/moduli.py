"""Exact certificate calculators.

Every operation evaluates one of the explicit rate constructions for
quasi-Fejer monotone dynamical systems: metastability bounds from
differential-inequality lemmas, the compactness-based Delta recursions, the
regularity-based convergence rates, and the specialized bounds for the
first-order, second-order, gradient-flow and nonexpansive-semigroup case
studies.  All arithmetic is exact (rational, or certified enclosures for
irrational subterms); results are :class:`ExtendedNatural` values whose
overflow sentinel surfaces tower-sized bounds instead of saturating floats.

Each calculator computes a plain int behind one boundary, ``_certificate``:
it hands the calculator its ``eps`` as a :class:`Real`, refusing eps <= 0,
and turns the int into an :class:`ExtendedNatural` and a
:class:`BudgetExceeded` into overflow whose trace is ``{"overflow": reason}``.
A calculator that records its levels takes a keyword-only ``trace`` dict,
which the boundary creates and hands back on the value; callers never pass
one.  Every radius is read through ``_radius``, which refuses b < 0.

Every Delta calculator is its theorem's :class:`ModulusBundle` evaluated by
the one recursion ``_delta_core``, a radius or a K of 0 included: phi is
then 0 and a scaled-inverse chi restricts nothing, so the levels stop at
[0, 0].  The recursion runs through one level loop, ``_levels``, in which
Delta(j) = phi(eps_hat_j) reads only the largest level so far: the running
minimum of chi^M_f over the earlier levels is chi^M_f at that largest level,
because the intervals [1, L+1] are nested.  Once a level does not raise the
largest one, every later level repeats it, so the loop stops at that fixed
point.

Every ceiling rounds outward (``Real.ceil_upper``), so an integer-valued
irrational term (b^4 = 4 for b = sqrt 2) gives a value, not an error.  Each
rounded value is a modulus whose property survives enlargement or enters a
formula nondecreasing in it, so a larger value is still a valid bound.
"""

from __future__ import annotations

import functools
import inspect
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
    "fb_psi_rate",
    "sfb_b_rate",
    "asymptotic_regularity_rate",
    "delta_gradient_flow",
    "delta_stojkovic",
    "first_order_bundle",
    "gradient_flow_bundle",
    "stojkovic_bundle",
    "second_order_bundle",
]

_BRUTE_CAP = 100_000


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_dimension(d) -> None:
    _require(isinstance(d, int) and d >= 1, f"dimension must be an integer >= 1, got {d!r}")


def _radius(b: RealLike) -> Real:
    """A ball's radius b as a Real, refused below 0.  The sign is read from
    b's own enclosure, which b caches across the bundle's several reads."""
    b = R(b)
    _require(b.exact == 0 or b.is_positive(), "radius must be nonnegative")
    return b


def _certificate(calc: Callable[..., int]) -> Callable[..., ExtendedNatural]:
    """The certificate boundary: ``calc`` gets its ``eps`` as a Real, refused
    unless positive; its int becomes an ExtendedNatural carrying the trace
    ``calc`` wrote, and a BudgetExceeded becomes overflow carrying its reason."""
    signature = inspect.signature(calc)
    writes_trace = "trace" in signature.parameters
    public = signature.replace(
        parameters=[p for name, p in signature.parameters.items() if name != "trace"],
        return_annotation=ExtendedNatural)

    @functools.wraps(calc)
    def certificate(*args, **kwargs) -> ExtendedNatural:
        call = public.bind(*args, **kwargs)
        eps = call.arguments["eps"] = R(call.arguments["eps"])
        _require(eps.is_positive(), "eps must be positive")
        trace = {}
        extra = {"trace": trace} if writes_trace else {}
        try:
            return ExtendedNatural(guard(calc(*call.args, **call.kwargs, **extra)), trace)
        except BudgetExceeded as exc:
            return ExtendedNatural.overflow(str(exc))

    certificate.__signature__ = public
    return certificate


# ---------------------------------------------------------------------------
# structured moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationFn:
    """One side of a (G, H) perturbation pair: a -> coef a^p (identity: p = coef = 1)."""

    p: Fraction = Fraction(1)
    coef: Fraction = Fraction(1)

    def __post_init__(self):
        _require(self.p > 0 and self.coef > 0, "perturbation parameters must be positive")

    def h(self, eps: RealLike) -> Real:
        """h(eps) = coef eps^p, with H(a) < h(eps) -> a < eps."""
        return R(self.coef) * R(eps).powq(self.p)

    def g(self, eps: RealLike) -> Real:
        """g(eps) = (eps / coef)^(1/p), with a < g(eps) -> G(a) < eps."""
        return (R(eps) / R(self.coef)).powq(1 / self.p)


@dataclass(frozen=True)
class PerturbationPair:
    G: PerturbationFn = PerturbationFn()
    H: PerturbationFn = PerturbationFn()

    @classmethod
    def squares(cls, g_coef: RealLike = 1) -> "PerturbationPair":
        return cls(G=PerturbationFn(Fraction(2), Fraction(g_coef)), H=PerturbationFn(Fraction(2)))


class LiminfBound:
    """liminf-bound phi(eps, n), or unary approximate-point bound phi(eps).

    The abstract recursions need phi monotone in eps and nondecreasing in n;
    every catalogued bound already is, and ``monotonized`` wraps a raw
    user-supplied one that is not monotone in eps.  So the maximum of phi(eps, n)
    over n <= N is phi(eps, N).
    """

    def __init__(self, fn: Callable, unary: bool = False):
        self.fn = fn
        self.unary = unary

    @classmethod
    def monotonized(cls, raw: Callable[[Real, int], int]) -> "LiminfBound":
        return cls(monotone_liminf_bound(raw))

    def eval(self, eps: Real, n: int = 0) -> int:
        """phi(eps, n), which is also its maximum over the indices up to n."""
        if self.unary:
            return guard(int(self.fn(eps)))
        return guard(int(self.fn(eps, n)))


class ChiModulus:
    """Uniform quasi-Fejer modulus chi(eps, n, m) in one of the two shapes the
    case studies need, with an exact evaluator for

        chi^M_f(eps, N) = min over m <= N of chi(eps, m, f(m+1) + 1).
    """

    def __init__(self, kind: str, coef: RealLike = 1):
        _require(kind in ("scaled_inverse", "exp_window"), f"unknown chi kind {kind!r}")
        self.kind = kind
        self.coef = R(coef)

    @classmethod
    def scaled_inverse(cls, c: RealLike) -> "ChiModulus":
        """chi(eps, n, m) = eps / (c m); at c = 0 (radius 0) it restricts nothing."""
        _require(not R(c).lt(0), "scaled_inverse needs c >= 0")
        return cls("scaled_inverse", coef=c)

    @classmethod
    def exp_window(cls, c: RealLike = 2) -> "ChiModulus":
        """chi(eps, n, m) = c eps / (e^{2m} - 1)."""
        return cls("exp_window", coef=c)

    def at_float(self, eps: float, m: int) -> float:
        """chi(eps, ., m) in floats, +inf where its denominator vanishes; the
        window as c eps e^{-2m} / (1 - e^{-2m}), which cannot overflow."""
        c = self.coef.to_float()
        if self.kind == "scaled_inverse":
            return eps / (c * m) if c * m else math.inf
        return c * eps * math.exp(-2 * m) / -math.expm1(-2 * m) if m else math.inf

    def chi_f_min(self, eps: Real, upto: int, f: Counterfunction) -> Optional[Real]:
        """Exact chi^M_f(eps, upto), nonincreasing in upto: both shapes
        decrease in m' = f(m+1)+1, so only max f on [1, upto+1] matters.
        None where chi restricts nothing (scaled_inverse at c = 0)."""
        if self.kind == "scaled_inverse" and self.coef.exact == 0:
            return None
        m = max_on(f, 1, upto + 1) + 1
        if self.kind == "scaled_inverse":
            return eps / (self.coef * m)
        return self.coef * eps / (R(2 * m).exp() - 1)


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
    pair: PerturbationPair = PerturbationPair()
    gamma_tb: Optional[Callable[[Real], int]] = None
    tau: Optional[Callable[[Real], Real]] = None
    omega: Optional[Callable[[Real], Real]] = None


@dataclass(frozen=True)
class TauModulus:
    """Modulus of regularity: F(x) < tau(eps) implies dist(x, zer F) < eps.
    A linear one, tau(eps) = slope eps, carries its slope."""

    kind: str
    fn: Callable[[Real], Real]
    slope: Optional[Fraction] = None

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

    def __call__(self, n: int) -> int:
        top = self.phi.eval(self.eps, n)
        return max(max_tilde_on(self.f, 1, top + 1) - n, 0)


# ---------------------------------------------------------------------------
# differential-inequality metastability bounds
# ---------------------------------------------------------------------------


@_certificate
def aas1_metastability(b: RealLike, c: RealLike, Bnorm: RealLike,
                       eps: RealLike, f: Counterfunction) -> int:
    """Metastability bound for a locally a.c. energy bounded below by b,
    started at most at c, with L1 error mass at most Bnorm:

        omega = ceil(2 B / eps) * ceil((c + B - b) / eps),   result f~^(omega)(0).
    """
    b, c, Bnorm = R(b), R(c), R(Bnorm)
    _require(not (c - b).lt(0), "need c >= b")
    _require(not Bnorm.lt(0), "need Bnorm >= 0")
    omega = guard((2 * Bnorm / eps).ceil_upper() * ((c + Bnorm - b) / eps).ceil_upper())
    return iterate_tilde(f, omega)


@_certificate
def aas2_metastability(c: RealLike, Anorm: RealLike, Bnorm: RealLike,
                       p: Union[int, Fraction], r: Union[int, Fraction, float, None],
                       eps: RealLike, f: Counterfunction) -> int:
    """Metastability bound for a nonnegative L^p energy with L^r error:

        q = 1 + p (1 - 1/r)
        varpi = ceil(2^{q+1} q A^{q-1} B / (eps^q (2^q - 1)))
              * ceil(2^q (c^q + q A^{q-1} B) / (eps^q (2^q - 1)))

    lifted to f'(n) = max(f(n), ceil((3A/eps)^p)); result f'~^(varpi)(0).
    """
    p = Fraction(p)
    _require(p >= 1, "need p >= 1")
    if r is None or (isinstance(r, float) and math.isinf(r)):
        q = 1 + p
    else:
        r = Fraction(r)
        _require(r >= 1, "need r >= 1")
        q = 1 + p * (1 - Fraction(1) / r)
    return iterate_tilde(f, *_aas2_terms(c, Anorm, Bnorm, p, q, eps))


def _aas2_terms(c: RealLike, Anorm: RealLike, Bnorm: RealLike,
                p: Union[int, Fraction], q: Union[int, Fraction], eps: Real) -> tuple[int, int]:
    """varpi and the floor ceil((3A/eps)^p) of :func:`aas2_metastability`."""
    c, Anorm, Bnorm = R(c), R(Anorm), R(Bnorm)
    two_q = R(2).powq(q)
    eps_q = eps.powq(q)
    a_qm1 = Anorm.powq(q - 1) if not (q - 1 == 0) else R(1)
    denom = eps_q * (two_q - 1)
    first = (2 * two_q * R(q) * a_qm1 * Bnorm) / denom
    second = (two_q * (c.powq(q) + R(q) * a_qm1 * Bnorm)) / denom
    varpi = guard(first.ceil_upper() * second.ceil_upper())
    return varpi, ((3 * Anorm / eps).powq(p)).ceil_upper()


# ---------------------------------------------------------------------------
# the liminf-bound monotonization
# ---------------------------------------------------------------------------


def monotone_liminf_bound(phi_raw: Callable[[Real, int], int]) -> Callable[[Real, int], int]:
    """Wrap a liminf-bound so it is monotone in eps:

        phi_hat(eps, n) = max{ phi(1/(k+1), n) : k <= ceil(1/eps) }.
    """

    def phi_hat(eps: RealLike, n: int) -> int:
        top = (1 / R(eps)).ceil_upper()
        if top > _BRUTE_CAP:
            raise BudgetExceeded("monotonization range too large")
        return max(phi_raw(R(Fraction(1, k + 1)), n) for k in range(top + 1))

    return phi_hat


# ---------------------------------------------------------------------------
# the abstract Delta recursions
# ---------------------------------------------------------------------------


def _levels(P: int, step: Callable[[int], int], trace: dict) -> int:
    """The Delta-level recursion: Delta(0) = 0 and Delta(j) = step(top) for
    j = 1..P, where top is the largest level so far; returns the final top.
    Every recursion reads only top, so once a level does not raise it every
    later level repeats it: the loop stops there."""
    levels, top = [0], 0
    for _ in range(P):
        level = guard(step(top))
        levels.append(level)
        if level <= top:
            break
        top = level
    trace["P"] = P
    trace["levels"] = levels
    return top


def _delta_core(bundle: ModulusBundle, eps: Real, f: Counterfunction,
                chi_cap: Optional[RealLike], trace: dict) -> int:
    _require(bundle.gamma_tb is not None, "bundle needs a total-boundedness modulus")
    _require(bundle.chi is not None, "bundle needs a uniform Fejer modulus")
    delta_arg = bundle.pair.H.h(eps / 2) / 3
    P = guard(bundle.gamma_tb(bundle.pair.G.g(delta_arg)) + 1)
    # the index bound of the maximum over n: fixed by the error rate, or by
    # its rate of metastability at the level's f_{phi, eps_hat}
    metastable = bundle.eta.variant == "metastability"
    upto = guard(bundle.eta.fn(delta_arg)) if bundle.eta.variant == "convergence" else 0

    def step(top: int) -> int:
        # a chi that restricts nothing (None) leaves the cap alone
        bounds = [c for c in (chi_cap, bundle.chi.chi_f_min(delta_arg, top, f)) if c is not None]
        _require(bounds, "a chi that restricts nothing needs a chi cap")
        eps_hat = Real.minimum(*bounds)
        if metastable:
            return bundle.phi.eval(eps_hat, guard(
                bundle.eta.fn(delta_arg, _FPhiEps(f, bundle.phi, eps_hat))))
        return bundle.phi.eval(eps_hat, upto)

    return _levels(P, step, trace) + 1


@_certificate
def delta_general(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                  chi_cap: Optional[RealLike] = None, *, trace: dict) -> int:
    """Full compactness-based metastability bound (errors resolved by a rate
    of metastability)."""
    _require(bundle.eta.variant == "metastability",
             "delta_general needs a metastability-variant error rate")
    return _delta_core(bundle, eps, f, chi_cap, trace)


@_certificate
def delta_with_error_rate(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                          chi_cap: Optional[RealLike] = None, *, trace: dict) -> int:
    """Simplified bound when errors have a rate of convergence or vanish."""
    _require(bundle.eta.variant in ("zero", "convergence"),
             "delta_with_error_rate needs a convergence-variant or zero error rate")
    return _delta_core(bundle, eps, f, chi_cap, trace)


@_certificate
def delta_uniform_continuity(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                             *, trace: dict) -> int:
    """Metastability bound that also certifies approximate solutions along
    the window, for uniformly continuous solution functions: evaluates the
    core recursion at min(eps, omega(eps/2)) with chi capped at eps/2."""
    _require(bundle.omega is not None, "bundle needs a uniform-continuity modulus")
    eps0 = Real.minimum(eps, bundle.omega(eps / 2))
    return _delta_core(bundle, eps0, f, eps / 2, trace)


# ---------------------------------------------------------------------------
# regularity-based rates
# ---------------------------------------------------------------------------


@_certificate
def rho_metastable_regular(bundle: ModulusBundle, eps: RealLike, f: Counterfunction,
                           *, trace: dict) -> int:
    """Metastability of dist(x(t), zer F) under a modulus of regularity when
    errors only admit a rate of metastability:

        rho(eps, f) = max{ phi(tau(g(h(eps)/2)), n) :
                           n <= eta(h(eps)/2, f_{phi, h(eps)}) } + 1.
    """
    _require(bundle.tau is not None, "bundle needs a modulus of regularity")
    _require(bundle.eta.variant == "metastability",
             "rho_metastable_regular needs a metastability-variant error rate")
    half = bundle.pair.H.h(eps) / 2
    threshold = bundle.tau(bundle.pair.G.g(half))
    f_phi = _FPhiEps(f, bundle.phi, threshold)
    upto = guard(bundle.eta.fn(half, f_phi))
    trace["eta_bound"] = upto
    return bundle.phi.eval(threshold, upto) + 1


@_certificate
def rho_convergence_regular(bundle: ModulusBundle, eps: RealLike, *, trace: dict) -> int:
    """Rate of convergence of dist(x(t), zer F) under a modulus of regularity:

        with error rate:  rho(eps) = phi(tau(g(h(eps)/2)), eta(h(eps)/2)) + 1
        zero error:       rho(eps) = phi(tau(g(h(eps)))) + 1
    """
    _require(bundle.tau is not None, "bundle needs a modulus of regularity")
    _require(bundle.eta.variant in ("zero", "convergence"),
             "rho_convergence_regular needs a convergence-variant or zero error rate")
    g, h = bundle.pair.G.g, bundle.pair.H.h
    if bundle.eta.variant == "zero":
        trace["branch"] = "zero_error"
        return bundle.phi.eval(bundle.tau(g(h(eps)))) + 1
    trace["branch"] = "with_error_rate"
    upto = guard(bundle.eta.fn(h(eps) / 2))
    return bundle.phi.eval(bundle.tau(g(h(eps) / 2)), upto) + 1


def fast_linear_rate(beta: float, k: float, p: float = 1.0) -> float:
    """Exponential contraction factor c = (1 + beta k^p)^(-1/p) in (0, 1).
    Where k^p or beta k^p passes e^700 it is evaluated through logarithms,
    as (beta^(-1/p) / k) (1 + 1 / (beta k^p))^(-1/p), so it cannot overflow."""
    _require(beta > 0 and k > 0, "beta and k must be positive")
    _require(p >= 1, "p must be at least 1")
    log_beta, log_kp = math.log(beta), p * math.log(k)
    if log_kp + max(0.0, log_beta) < 700:
        return (1.0 + beta * k ** p) ** (-1.0 / p)
    return math.exp(-log_beta / p - math.log(k) - math.log1p(math.exp(-log_beta - log_kp)) / p)


# ---------------------------------------------------------------------------
# total boundedness of balls in R^d
# ---------------------------------------------------------------------------


def _ball_tb_int(d: int, b: RealLike, eps: Real) -> int:
    _require_dimension(d)
    b = _radius(b)
    inner = guard((1 / eps).ceil_upper())
    base = (2 * (inner + 1) * R(d).sqrt() * b).ceil_upper()
    if base >= 2 and d * (base.bit_length() - 1) > get_budget_bits():
        raise BudgetExceeded("total-boundedness modulus exceeds budget")
    return guard(base ** d)


@_certificate
def ball_total_boundedness(d: int, b: RealLike, eps: RealLike) -> int:
    """Modulus of total boundedness of a closed ball of radius b in R^d:

        gamma(eps) = ceil(2 (ceil(1/eps) + 1) sqrt(d) b) ^ d.
    """
    return _ball_tb_int(d, b, eps)


def ball_modulus(d: int, b: RealLike) -> Callable[[Real], int]:
    """Curried form usable as a bundle's gamma_tb."""
    return lambda eps: _ball_tb_int(d, b, R(eps))


# ---------------------------------------------------------------------------
# catalogued moduli of regularity
# ---------------------------------------------------------------------------


# catalogued kind -> the name of its one rational parameter (None: it has none)
REGULARITY_PARAMETER = {"quasi_contraction": "c", "orbital_contraction": "c",
                        "retraction": None, "strongly_accretive": "beta",
                        "metric_subregular": "k", "strongly_quasiconvex": "rho"}


def regularity_modulus(kind: str, **params) -> TauModulus:
    """The catalogued moduli of regularity for fixed points / operator zeros /
    minimizers.  All but ``strongly_quasiconvex`` are linear."""
    _require(kind in REGULARITY_PARAMETER, f"unknown regularity kind {kind!r}")
    name = REGULARITY_PARAMETER[kind]
    _require(name is None or name in params,
             f"regularity kind {kind!r} needs parameter {name!r}")
    p = Fraction(params[name]) if name else Fraction(1)
    if name == "c":
        _require(0 <= p < 1, "contraction factor must lie in [0, 1)")
    _require(name == "c" or p > 0, f"regularity parameter {name!r} must be positive")
    if name == "rho":
        return TauModulus(kind, lambda eps: Fraction(p, 2) * eps * eps)
    slope = 1 - p if name == "c" else 1 / p if name == "k" else p
    return TauModulus(kind, lambda eps: slope * eps, slope)


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
    b = _radius(b)
    delta = R(averaged_delta)
    if divergence_modulus is not None:
        return lambda eps: guard(int(divergence_modulus(delta * b * b / (R(eps) * R(eps)))))
    lam = R(lower_witness)
    _require(lam.is_positive(), "lower witness must be positive")
    return lambda eps: guard(
        (4 * b.powq(4) * delta * delta / (lam * lam * R(eps) * R(eps))).ceil_upper())


@_certificate
def delta_first_order(d: int, b: RealLike, lambda_info: dict, eps: RealLike,
                      f: Counterfunction, *, trace: dict) -> int:
    """Metastability bound for the first-order system over a nonexpansive map
    in R^d.  The theorem applies this at eps/4: callers scale before calling.

        P = ceil(2 (ceil(sqrt(12)/eps) + 1) sqrt(d) b)^d + 1
        Delta(j) = phi(eps_hat_j),
        eps_hat_j = min{eps/2, (eps^2/12) / (4 b (f(m+1)+1)) :
                        m <= Delta(i), i < j}
    """
    return _delta_core(first_order_bundle(d, b, lambda_info), eps, f, eps / 2, trace)


def first_order_bundle(d: int, b: RealLike, lambda_info: dict) -> ModulusBundle:
    """The abstract-theorem instantiation that :func:`delta_first_order`
    evaluates with chi_cap = eps/2 (G = H = squares, chi = eps/(4 b m), zero
    errors, unary phi)."""
    b = _radius(b)
    phi = asymptotic_regularity_rate(b, **lambda_info)
    return ModulusBundle(
        phi=LiminfBound(phi, unary=True),
        chi=ChiModulus.scaled_inverse(4 * b),
        eta=ErrorRate.zero(),
        pair=PerturbationPair.squares(),
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
            "M": R(self.M).to_float(),
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
            "C": R(self.C).to_float(),
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
    L_mult = ((K + R(M)) * ratio).ceil_upper()
    L_div = ((K + R(M)) / ratio).ceil_upper()
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


@_certificate
def lambda_capital(consts: SecondOrderConstants, eps: RealLike, f) -> int:
    """Metastability bound Lambda(eps, f) for ||x'(t)|| and ||B(x(t))||: the
    L^2 lemma :func:`aas2_metastability` at (C, A, B, p = r = 2)."""
    return _lambda_int(consts, eps, f)


def _lambda_int(consts: SecondOrderConstants, eps: Real, f) -> int:
    return iterate_tilde(f, *_aas2_terms(consts.C, consts.A, consts.B, 2, 2, eps))


def second_order_liminf(consts: SecondOrderConstants, eps: RealLike, n: int) -> int:
    """The liminf-bound phi(eps, n) = varpi(eps) * max(n, ceil((3A/eps)^2))."""
    varpi, floor_value = _aas2_terms(consts.C, consts.A, consts.B, 2, 2, R(eps))
    return guard(varpi * max(n, floor_value))


def _second_order_eta(consts: SecondOrderConstants, delta: Real, f) -> int:
    if consts.K.exact == 0:
        return 0  # A = B = 0: Lambda vanishes
    arg = Real.minimum(
        delta * R(consts.gam_lo) / (6 * consts.K),
        (delta * R(consts.gam_lo) * R(consts.lam_lo)
         / (6 * R(consts.beta) * R(consts.gam_hi))).sqrt(),
    )
    return _lambda_int(consts, arg, f)


@_certificate
def delta_second_order(consts: SecondOrderConstants, dim: int, eps: RealLike,
                       f: Counterfunction, *, trace: dict) -> int:
    """Metastability bound for the second-order system in R^dim.  The theorem
    applies this at min(eps, beta eps / 2): callers scale before calling."""
    return _delta_core(second_order_bundle(consts, dim), eps, f, eps / 2, trace)


def second_order_bundle(consts: SecondOrderConstants, dim: int) -> ModulusBundle:
    """The abstract-theorem instantiation that :func:`delta_second_order`
    evaluates with chi_cap = eps/2: G = (gamma_hi/gamma_lo) (.)^2, H = (.)^2,
    chi = eps gamma_lo / (8 K lambda_hi m), phi = ``second_order_liminf`` and
    errors resolved by the rate of metastability Lambda."""
    return ModulusBundle(
        phi=LiminfBound(functools.partial(second_order_liminf, consts)),
        chi=ChiModulus.scaled_inverse(8 * consts.K * R(consts.lam_hi) / R(consts.gam_lo)),
        eta=ErrorRate.metastability(functools.partial(_second_order_eta, consts)),
        pair=PerturbationPair.squares(consts.gam_hi / consts.gam_lo),
        gamma_tb=ball_modulus(dim, consts.b),
    )


# ---------------------------------------------------------------------------
# forward-backward under uniform monotonicity
# ---------------------------------------------------------------------------


@_certificate
def fb_uniform_monotone_rate(order: str, who: str, phi_fn: Callable[[Real], Real],
                             eps: RealLike, *,
                             b: Optional[RealLike] = None,
                             gamma: Optional[RealLike] = None,
                             beta: Optional[RealLike] = None,
                             flow_rate: Optional[Callable[[Real], int]] = None,
                             consts: Optional[SecondOrderConstants] = None,
                             eta_step: Optional[RealLike] = None,
                             f: Optional[Counterfunction] = None,
                             ) -> int:
    """Convergence rate (first order) or metastability bound (second order)
    for the forward-backward flow when A or B is uniformly monotone with
    function phi_fn."""
    _require(order in ("first", "second"), "order is first|second")
    _require(who in ("A", "B"), "who is A|B")
    if order == "first":
        _require(None not in (b, gamma, beta, flow_rate),
                 "first order needs b, gamma, beta, flow_rate")
        b = _radius(b)
        if not b.is_positive():
            return 0  # x(t) = y throughout
        if who == "B":
            return fb_psi_rate(flow_rate, b, gamma, beta, phi_fn(eps) / b)
        half = phi_fn(eps / 2)
        first = flow_rate(Real.minimum(R(gamma) * half / (2 * b), eps / 2))
        second = fb_psi_rate(flow_rate, b, gamma, beta, half / (2 * b))
        # both the residual condition and the B-condition must hold past
        # the returned time, so the two rates combine by max
        return max(first, second)
    _require(consts is not None and eta_step is not None and f is not None,
             "second order needs consts, eta_step, f")
    if consts.K.exact == 0:
        return 0  # A = B = 0: Lambda vanishes
    eta_step = R(eta_step)
    K, beta = consts.K, R(consts.beta)
    if who == "B":
        arg = (phi_fn(eps) / K) * (phi_fn(eps) / K) * eta_step * beta / (3 * K)
        return _lambda_int(consts, arg, f)
    half = phi_fn(eps / 2)
    arg = Real.minimum(
        (half / (2 * K)) * (half / (2 * K)) * eta_step * beta / (3 * K),
        eta_step * half / (2 * K),
        eps / 2,
    )
    return _lambda_int(consts, arg, f)


def fb_psi_rate(flow_rate: Callable[[Real], int], b: RealLike, gamma: RealLike,
                beta: RealLike, eps: RealLike) -> int:
    """psi(eps) = flow_rate(gamma beta eps^2 / (3b)), past which the first-order
    forward-backward flow keeps ||B(x(t)) - B(y)|| <= eps; 0 at b = 0 (x = y)."""
    b = _radius(b)
    return flow_rate(R(gamma) * R(beta) * R(eps) * R(eps) / (3 * b)) if b.is_positive() else 0


@_certificate
def sfb_b_rate(consts: SecondOrderConstants, eta_step: RealLike, eps: RealLike,
               f: Counterfunction) -> int:
    """Lambda(eps^2 eta beta / (3K), f) bounds ||B(x(t)) - B(y)|| along the
    second-order forward-backward flow; 0 at K = 0, where A = B = 0."""
    if consts.K.exact == 0:
        return 0
    return _lambda_int(consts, eps * eps * R(eta_step) * R(consts.beta) / (3 * consts.K), f)


# ---------------------------------------------------------------------------
# Hadamard semigroups
# ---------------------------------------------------------------------------


@_certificate
def delta_gradient_flow(b: RealLike, gamma_tb: Callable[[Real], int],
                        eps: RealLike, f: Counterfunction, *, trace: dict) -> int:
    """Metastability bound for the gradient-flow semigroup of a convex lsc
    function (nondecreasing f):

        P = gamma(eps / sqrt(12)) + 1,
        Delta(j+1) = ceil(24 b^2 (f(Delta(j) + 1) + 1) / eps^2),
        result Delta(P) + 1.
    """
    _require(f.is_nondecreasing, "the gradient-flow bound needs nondecreasing f")
    return _delta_core(gradient_flow_bundle(b, gamma_tb), eps, f, None, trace)


def gradient_flow_bundle(b: RealLike, gamma_tb: Callable[[Real], int]) -> ModulusBundle:
    """The abstract-theorem instantiation that :func:`delta_gradient_flow`
    evaluates (G = H = squares, chi = eps/2m, phi = ceil(b^2/eps), zero
    errors)."""
    b = _radius(b)
    return ModulusBundle(
        phi=LiminfBound(lambda eps: (b * b / eps).ceil_upper(), unary=True),
        chi=ChiModulus.scaled_inverse(2),
        eta=ErrorRate.zero(),
        pair=PerturbationPair.squares(),
        gamma_tb=gamma_tb,
    )


_LN2_UPPER = Fraction(6931472, 10 ** 7)  # > ln 2 = 0.69314718...


def _stojkovic_phi(b: Real, eps: Real) -> int:
    """ceil(a e^a) for a = 4b/eps, refused before e^a is evaluated when a
    exceeds max(1, B ln 2) for a budget of B bits, since then a e^a > 2^B."""
    arg = 4 * b / eps
    if arg.bounds(64)[0] > max(1, get_budget_bits() * _LN2_UPPER):
        raise BudgetExceeded(f"phi argument 4b/eps exceeds {get_budget_bits()} ln 2, "
                             f"so phi exceeds 2^{get_budget_bits()}")
    return guard((arg * arg.exp()).ceil_upper())


@_certificate
def delta_stojkovic(b: RealLike, gamma_tb: Callable[[Real], int],
                    eps: RealLike, f: Counterfunction, *, trace: dict) -> int:
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
    # the generic recursion's final "+1" is not part of this theorem's bound
    return _delta_core(stojkovic_bundle(b, gamma_tb), eps, f, None, trace) - 1


def stojkovic_bundle(b: RealLike, gamma_tb: Callable[[Real], int]) -> ModulusBundle:
    """The abstract-theorem instantiation that :func:`delta_stojkovic`
    evaluates (G = H = Id, chi = the exponential window, zero errors).

    That bound drops the abstract recursion's final "+1": the generic
    evaluation of this bundle exceeds it by exactly one.
    """
    return ModulusBundle(
        phi=LiminfBound(functools.partial(_stojkovic_phi, _radius(b)), unary=True),
        chi=ChiModulus.exp_window(2),
        eta=ErrorRate.zero(),
        gamma_tb=gamma_tb,
    )
