"""Independent oracle for the Student-t eta closed form.

This is the per-entry Gamma-loop evaluation the library used before its
single-pass kernel: every tail integral c(nu) H(a, nu + b_shift) is rebuilt
from scratch in reduced ``Fraction`` (or float) arithmetic and the binomial
terms are summed one by one.  It is slow, shares no code with
``mlerisk.eta``, and the tests compare the library against it entry by entry.
"""

import math
from fractions import Fraction


class EtaDivergenceError(ArithmeticError):
    """A requested moment integral diverges for the given nu."""


def _double_factorial(n: int) -> int:
    # (-1)!! == 1 by convention
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _t_ch(a: int, b_shift: int, nu):
    """c(nu) * H(a, nu + b_shift) for even a >= 0, as a rational function of nu.

    H(a, b) integrates y^a (1 + y^2/nu)^(-(b+1)/2) over R.  Writing every
    Gamma factor as an integer shift of Gamma(nu/2) or Gamma((nu+1)/2) leaves
    a plain rational expression, so exact arithmetic survives for rational nu.
    """
    one = nu / nu  # Fraction(1) or 1.0, matching nu's type
    if a % 2 == 1:
        return 0 * one
    if a < 0 or not (a < nu + b_shift):
        raise EtaDivergenceError(
            f"moment diverges: H({a}, nu+{b_shift}) requires a < b (nu={nu})"
        )
    A = a // 2
    if b_shift % 2 != 0:
        raise ValueError("internal: b - nu must be even on the table grid")
    # Gamma((b-a)/2) / Gamma(nu/2), shift D = b_shift/2 - A
    D = b_shift // 2 - A
    ratio1 = one
    if D >= 0:
        for r in range(D):
            ratio1 = ratio1 * (nu / 2 + r)
    else:
        for r in range(1, -D + 1):
            ratio1 = ratio1 / (nu / 2 - r)
    # Gamma((nu+1)/2) / Gamma((b+1)/2), shift E/2 = b_shift/2
    ratio2 = one
    for r in range(b_shift // 2):
        ratio2 = ratio2 / ((nu + 1) / 2 + r)
    return (nu**A) * Fraction(_double_factorial(2 * A - 1), 2**A) * ratio1 * ratio2


def eta_t_oracle(i: int, j: int, k: int, l: int, nu):
    """Closed form for the t(nu) error; exact when nu is rational.

    Expands (y^2 - 3 nu)^i (y^2 - nu)^j binomially, reducing each term to a
    tail integral with a Gamma-ratio value.  (The 3^(i-s) binomial factor
    comes from the third log-derivative's 3*nu root.)  Raises
    :class:`EtaDivergenceError` when any contributing term fails the
    convergence condition of that integral.
    """
    nu = Fraction(nu) if isinstance(nu, (int, Fraction)) else float(nu)
    if not nu > 0:
        raise ValueError("nu must be positive")
    total = 0 * (nu / nu)
    b_shift = 6 * i + 4 * j + 2 * k
    for s in range(i + 1):
        for t in range(j + 1):
            a = i + k + l + 2 * s + 2 * t
            ch = _t_ch(a, b_shift, nu)
            if ch == 0:
                continue
            coeff = (
                Fraction(2**i * (-1) ** (j + k + s + t) * 3 ** (i - s))
                * math.comb(i, s)
                * math.comb(j, t)
            )
            total = total + coeff * (nu + 1) ** (i + j + k) * nu ** (-(s + t + 2 * i + j + k)) * ch
    return total
