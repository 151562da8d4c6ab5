"""References computed apart from trigpoly, and the checks built on them.

Nothing here calls the package: the weights come from mpmath's own
``besselj``, the bounds from their closed forms, and the float-path
rounding allowance from Higham's Horner analysis (Accuracy and
Stability of Numerical Algorithms, section 5.1).
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

U = 2.0 ** -53  # unit roundoff of binary64
COS, SIN = "cos_pi_x", "sin_pi_x"
DOMAINS = {COS: (-0.5, 0.5), SIN: (0.0, 1.0)}
T5_STRING = "(1680 - 180*pi^2 + pi^4)/(120*pi^9)"


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def gamma(n: int, u: float = U) -> float:
    return n * u / (1 - n * u)


def t_reference(j_max: int, dps: int) -> list:
    """t_j = pi^(1-j)/(2 j!) J_{j-1/2}(pi/2) for j = 1..j_max (index 0 unused)."""
    with mp.workdps(dps):
        half_pi = mp.pi / 2
        return [mpf(0)] + [
            mp.pi ** (1 - j) / (2 * mp.factorial(j)) * mp.besselj(j - mpf(1) / 2, half_pi)
            for j in range(1, j_max + 1)
        ]


def general_reference(j: int, z, dps: int):
    """T_j(z) = sqrt(pi)/(j! 2^(j+1/2)) z^(1/4-j/2) J_{j-1/2}(sqrt(z))."""
    with mp.workdps(dps):
        zv = mpf(z)
        return (
            mp.sqrt(mp.pi) / (mp.factorial(j) * mp.power(2, j + mpf(1) / 2))
            * mp.power(zv, mpf(1) / 4 - mpf(j) / 2)
            * mp.besselj(j - mpf(1) / 2, mp.sqrt(zv))
        )


def y_coefficients(t_ref: list, m: int, dps: int) -> list:
    """c_j = t_j pi^(2j) for j = 1..m."""
    with mp.workdps(dps):
        return [t_ref[j] * mp.pi ** (2 * j) for j in range(1, m + 1)]


def target(func: str, x, dps: int):
    with mp.workdps(dps):
        arg = mp.pi * mpf(x)
        return mp.cos(arg) if func == COS else mp.sin(arg)


def exact_y(func: str, x):
    """y at the float x, exactly (mpf arithmetic on dyadics is exact here)."""
    with mp.workdps(60):
        xv = mpf(x)
        return mpf(1) / 4 - xv * xv if func == COS else xv * (1 - xv)


def closed_bound(m: int, y, dps: int = 40):
    """pi^(2m+2) y^(m+1)/(2m+2)! * 1/(1-q_m), q_m = (pi^2/4)/((2m+4)(2m+3))."""
    with mp.workdps(dps):
        q = (mp.pi ** 2 / 4) / ((2 * m + 4) * (2 * m + 3))
        lead = mp.pi ** (2 * m + 2) * mpf(y) ** (m + 1) / mp.factorial(2 * m + 2)
        return lead, q, lead / (1 - q)


def least_degree(tol: float, limit: int = 200) -> int:
    """Least m whose closed-form bound at y = 1/4 is <= tol."""
    for m in range(1, limit + 1):
        if closed_bound(m, mpf(1) / 4)[2] <= tol:
            return m
    raise CheckFailed(f"no degree <= {limit} meets tol={tol}")


def horner_allowance(c_ref: list, func: str, x, u: float):
    """Bound on |computed p(y) - exact p(y)| for Horner in y with unit roundoff u.

    Covers the rounding of y (|dy| <= gamma_2 (x^2 + |y|)), of each
    coefficient (u |c_j|), and of the Horner recurrence itself
    (gamma_{2m+1} sum |c_j| |y|^j), all at the worst y within dy.
    """
    m = len(c_ref)
    with mp.workdps(30):
        xv = mpf(x)
        y = exact_y(func, x)
        dy = gamma(2, u) * (xv * xv + abs(y))
        ya = abs(y) + dy
        s = sum(c * ya ** j for j, c in enumerate(c_ref, start=1))
        d = sum(j * c * ya ** (j - 1) for j, c in enumerate(c_ref, start=1))
        return ((gamma(2 * m + 3, u) + u) * s + dy * d) * mpf("1.001")


def parse_symbolic(text: str):
    """Value of a printed form such as '(1680 - 180*pi^2 + pi^4)/(120*pi^9)'."""
    num, den = (part.strip() for part in text.split("/"))

    def pi_power(token: str) -> int:
        require(token.startswith("pi"), f"bad pi factor in {text!r}")
        return int(token[3:]) if token.startswith("pi^") else 1

    if num.startswith("(") and num.endswith(")"):
        num = num[1:-1]
    terms = []
    for term in num.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "*" in term:
            coef, pi_part = term.split("*")
            terms.append((sign * int(coef), pi_power(pi_part)))
        elif term.startswith("pi"):
            terms.append((sign, pi_power(term)))
        else:
            terms.append((sign * int(term), 0))
    den = den[1:-1] if den.startswith("(") else den
    if "*" in den:
        d_int, d_pi = den.split("*")
        den_int, den_pi = int(d_int), pi_power(d_pi)
    else:
        den_int, den_pi = 1, pi_power(den)
    return terms, den_int, den_pi


def symbolic_value(terms, den_int: int, den_pi: int, dps: int):
    """The form's value to `dps` digits, after the cancellation in its numerator.

    The denominator is D pi^(2j-1), and t_j (2j)! lies in (0, 1), so the
    digits lost are log10 of the sum of |terms| scaled by (2j)!/(D pi^(2j-1)).
    """
    j = (den_pi + 1) // 2
    with mp.workdps(30):
        size = sum(abs(c) * mp.pi ** k for c, k in terms) * mp.factorial(2 * j)
        lost = max(0, int(mp.log10(size / (den_int * mp.pi ** den_pi))))
    with mp.workdps(dps + lost + 10):
        num = sum(c * mp.pi ** k for c, k in terms)
        return num / (den_int * mp.pi ** den_pi)


def check_t_value(j: int, value, bound, digits: int, ref, where: str) -> None:
    """|value - t_j| <= trunc_bound + 10^-digits t_j, and 0 < t_j (2j)! < 1."""
    with mp.workdps(280):
        allow = bound + ref * mpf(10) ** (-digits)
        require(abs(value - ref) <= allow, f"{where}: t_{j} off the reference by "
                f"{mp.nstr(abs(value - ref), 5)} > {mp.nstr(allow, 5)}")
        scaled = value * math.factorial(2 * j)
        require(0 < scaled < 1, f"{where}: t_{j}*(2j)! = {mp.nstr(scaled, 10)} outside (0, 1)")


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 2.0 ** -1022))
