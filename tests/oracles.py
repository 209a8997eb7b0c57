"""High-precision reference values for the tests, computed in mpmath.

Each oracle works from the paper's formulas, independently of the library's
float code paths, and returns complex128 values rounded from 40 digits.
"""

import mpmath
import numpy as np

DPS = 40


def caratheodory_tau(w_coeffs, n_max):
    """tau_0 .. tau_{n_max} of tau = (1 + w)/(1 - w) for the Schwarz
    function w(z) = sum_k w_coeffs[k-1] z^k.

    With u = 1/(1 - w), u_0 = 1 and u_n = sum_{k=1}^{min(n, m)} c_k u_{n-k};
    then tau = 2u - 1, that is tau_0 = 1 and tau_n = 2 u_n.
    """
    with mpmath.workdps(DPS):
        c = [mpmath.mpc(complex(ck)) for ck in w_coeffs]
        u = [mpmath.mpc(1)]
        for n in range(1, n_max + 1):
            terms = (c[k - 1] * u[n - k] for k in range(1, min(n, len(c)) + 1))
            u.append(mpmath.fsum(terms))
        return np.array([1] + [complex(2 * v) for v in u[1:]], dtype=complex)


def generator_h(theta, lam, gamma, w_coeffs, n_max):
    """h_1 .. h_{n_max} of the class member generated from the Schwarz
    function w(z) = sum_k w_coeffs[k-1] z^k, which must have w'(0) = 0.

    The ratio target is A = alpha + beta tau with tau = (1+w)/(1-w),

        alpha = e^{-i theta} [gamma cos(theta) - i sin(theta)/(1-2 lam)],
        beta = -e^{-i theta} cos(theta) (1/(1-2 lam) + gamma),

    so G = (1-lam) A / (1 - lam A) = P(w)/Q(w) with P and Q linear in w.
    E = z H = 1 + sum h_n z^{n+1} solves z E' = (1 + G) E, that is
    Q z E' = (P + Q) E, which at z^k reads

        (k Q_0 - S_0) e_k = sum_{j=1}^{min(k, m)} (S_j - (k - j) Q_j) e_{k-j}

    with S = P + Q and m = len(w_coeffs): O(n_max * m) operations.
    """
    if w_coeffs[0] != 0:
        raise ValueError("the generator reproduces only Schwarz functions with w'(0) = 0")
    with mpmath.workdps(DPS):
        th, lm, gm = (mpmath.mpf(float(x)) for x in (theta, lam, gamma))
        phase = mpmath.expj(-th)
        inv = 1 / (1 - 2 * lm)
        alpha = phase * (gm * mpmath.cos(th) - 1j * mpmath.sin(th) * inv)
        beta = -phase * mpmath.cos(th) * (inv + gm)
        c = [mpmath.mpc(complex(ck)) for ck in w_coeffs]
        p = [(1 - lm) * (alpha + beta)] + [(1 - lm) * (beta - alpha) * ck for ck in c]
        q = [1 - lm * (alpha + beta)] + [-(1 + lm * (beta - alpha)) * ck for ck in c]
        s = [pj + qj for pj, qj in zip(p, q)]
        e = [mpmath.mpc(1)]
        for k in range(1, n_max + 2):
            acc = mpmath.mpc(0)
            for j in range(1, min(k, len(c)) + 1):
                acc += (s[j] - (k - j) * q[j]) * e[k - j]
            e.append(acc / (k * q[0] - s[0]))
        return np.array([complex(v) for v in e[2:]], dtype=complex)


def monomial_member_h(theta, gamma, c, power, n_max):
    """h_1 .. h_{n_max} of the exact lam = 0 member for w = c z^power.

    There z H = (1 - c z^power)^nu with nu = 2 (1+gamma) cos(theta)
    e^{-i theta} / power, so the coefficients are binomial.
    """
    with mpmath.workdps(DPS):
        th, gm = mpmath.mpf(float(theta)), mpmath.mpf(float(gamma))
        nu = 2 * (1 + gm) * mpmath.cos(th) * mpmath.expj(-th) / power
        cc = mpmath.mpc(complex(c))
        e = [mpmath.mpc(0)] * (n_max + 2)
        term = mpmath.mpc(1)
        for j in range(0, (n_max + 1) // power + 1):
            e[j * power] = term
            term *= -cc * (nu - j) / (j + 1)
        return np.array([complex(v) for v in e[2:]], dtype=complex)
