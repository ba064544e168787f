"""Exact residuals of a stored decomposition, in integer arithmetic.

Every binary64 number is a dyadic rational (``float.as_integer_ratio``), so
the entries of a stored decomposition document scale to Gaussian integers
over a power of two, and its residuals in the normalized Hilbert-Schmidt
norm ``||x||_2**2 = sum |x_ij|**2 / n`` are exact fractions:

* the squared reconstruction residual ``||x - sum_t c_t u_t||_2**2``;
* the squared unitarity residual ``||u_t* u_t - 1||_2**2`` of each term;
* the squared membership residual ``||E_A(u_t)||_2**2`` of each term, for a
  spec in standard position.

Only the standard library is used, so the oracle shares no arithmetic with
the package.  Conjugated specs are out of its scope: their membership
residual needs ``E_A`` through a stored ``W`` that is not exactly unitary.
Print a document's reconstruction residual, largest unitarity residual and,
in standard position, largest membership residual (square roots of the
exact values, rounded to floats)::

    python tests/exact_residuals.py DECOMPOSITION.json
"""

import json
import math
import sys
from fractions import Fraction


def _scaled(pairs):
    """``(ints, q)``: the dyadic numbers ``p/d`` of ``pairs`` as the integers
    ``p * q/d`` over their largest denominator ``q``, a power of two."""
    q = max((d for _, d in pairs), default=1)
    return [p * (q // d) for p, d in pairs], q


def _matrix(doc):
    """``(re, im, q, n)``: the flat integer parts of a ``{"re", "im"}``
    matrix over one power of two ``q``, and its dimension ``n``."""
    n = len(doc["re"])
    flat = [float(v).as_integer_ratio() for part in ("re", "im") for row in doc[part] for v in row]
    ints, q = _scaled(flat)
    return ints[:n * n], ints[n * n:], q, n


def recon_residual_sq(doc) -> Fraction:
    """``||x - sum_t c_t u_t||_2**2`` of the stored decomposition ``doc``."""
    x_re, x_im, qx, n = _matrix(doc["target"])
    terms = []
    for t in doc["terms"]:
        (a, b), qc = _scaled([float(t["coeff"][p]).as_integer_ratio() for p in ("re", "im")])
        u_re, u_im, qu, _ = _matrix(t["unitary"])
        terms.append((a, b, u_re, u_im, qc * qu))
    q = max([qx] + [t[-1] for t in terms])
    r = [v * (q // qx) for v in x_re]
    s = [v * (q // qx) for v in x_im]
    for a, b, u_re, u_im, qt in terms:
        f = q // qt
        for i in range(n * n):
            r[i] -= (a * u_re[i] - b * u_im[i]) * f
            s[i] -= (a * u_im[i] + b * u_re[i]) * f
    return Fraction(sum(v * v for v in r) + sum(v * v for v in s), q * q * n)


def unitarity_residuals_sq(doc) -> list:
    """``||u_t* u_t - 1||_2**2`` of every term of ``doc``, in term order."""
    out = []
    for t in doc["terms"]:
        re, im, q, n = _matrix(t["unitary"])
        total = 0
        for i in range(n):
            for j in range(n):
                # (u* u)_ij = sum_k conj(u_ki) u_kj, times q**2
                r = sum(re[k * n + i] * re[k * n + j] + im[k * n + i] * im[k * n + j]
                        for k in range(n)) - (q * q if i == j else 0)
                s = sum(re[k * n + i] * im[k * n + j] - im[k * n + i] * re[k * n + j]
                        for k in range(n))
                total += r * r + s * s
        out.append(Fraction(total, q**4 * n))
    return out


def _atoms(spec):
    """``(m, rows)`` for every atom ``M_k (x) 1_m`` of a standard-position
    spec document, where ``rows[a][t]`` is the carrier index
    ``a*s + offset + t`` of the factor-major layout, shifted by the block's
    start."""
    if spec.get("conjugation") is not None:
        raise ValueError("a conjugated spec is out of the exact oracle's scope")
    out, start = [], 0
    for block in spec["blocks"]:
        k, mults = block["k"], block["atom_mults"]
        s, offset = sum(mults), 0
        for m in mults:
            out.append((m, [[start + a * s + offset + t for t in range(m)] for a in range(k)]))
            offset += m
        start += k * s
    return out


def membership_residuals_sq(doc) -> list:
    """``||E_A(u_t)||_2**2`` of every term of ``doc``, in term order: each
    atom contributes ``|sum_t u[(a,t),(b,t)]|**2 / m`` over its factor
    indices ``a, b``.  Raises ``ValueError`` for a conjugated spec."""
    atoms = _atoms(doc["spec"])
    out = []
    for t in doc["terms"]:
        re, im, q, n = _matrix(t["unitary"])
        total = Fraction(0)
        for m, rows in atoms:
            sq = 0
            for ra in rows:
                for rb in rows:
                    r = sum(re[i * n + j] for i, j in zip(ra, rb))
                    s = sum(im[i * n + j] for i, j in zip(ra, rb))
                    sq += r * r + s * s
            total += Fraction(sq, m)
        out.append(total / (q * q * n))
    return out


def main(path) -> int:
    with open(path) as f:
        doc = json.load(f)
    unitarity = max(unitarity_residuals_sq(doc), default=Fraction(0))
    out = {"recon_residual": math.sqrt(recon_residual_sq(doc)),
           "max_unitarity_residual": math.sqrt(unitarity)}
    if doc["spec"].get("conjugation") is None:
        membership = max(membership_residuals_sq(doc), default=Fraction(0))
        out["max_membership_residual"] = math.sqrt(membership)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
