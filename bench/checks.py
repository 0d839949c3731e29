"""Independent checkers: each verifies one job's output by another route
than the code path that produced it, outside the timed region.

`check(job, output)` returns None when the output is right, otherwise a
one-line reason.  The oracles are plain coefficient lists, a Z[y]/(y^n - 1)
jet sum, closed forms (Apostol's cyclotomic resultants, the Fishburn
numbers), a union-find over prime-power neighbours, and `sympy`.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from fractions import Fraction
from math import comb

import sympy

from workloads import totient

_X = sympy.Symbol("x")

# Ohtsuki coefficients of the Kontsevich-Zagier series at q = 1, up to sign.
FISHBURN = (1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608, 1422074)


# -- coefficient lists, little-endian, no trailing zeros -------------------


def _strip(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _add(a, b) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return _strip(out)


def _rem(a, g) -> list:
    """Remainder of a modulo g, whose leading coefficient is +-1."""
    r = list(a)
    lead, dg = g[-1], len(g) - 1
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top] * lead
        if c:
            for j in range(dg + 1):
                r[top - dg + j] -= c * g[j]
    return _strip(r[:dg])


@functools.lru_cache(maxsize=None)
def sympy_phi(n: int) -> tuple:
    return tuple(int(c) for c in reversed(sympy.cyclotomic_poly(n, _X, polys=True).all_coeffs()))


@functools.lru_cache(maxsize=None)
def _pochhammer_sums(level: int) -> tuple[tuple, tuple]:
    """((q)_level, sum of (q)_k for k <= level), by shift-and-subtract."""
    term, total = [1], [1]
    for i in range(1, level + 1):
        term = _add(term, [0] * i + [-c for c in term])
        total = _add(total, term)
    return tuple(term), tuple(total)


# -- jets: Z[zeta_n][x]/(x^(J+1)) computed in Z[y]/(y^n - 1) ----------------


def _jet_mul(a: list, b: list, n: int) -> list:
    out = [[0] * n for _ in a]
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            bj, row = b[j], out[i + j]
            for s, x in enumerate(ai):
                if x:
                    for t, y in enumerate(bj):
                        if y:
                            row[(s + t) % n] += x * y
    return out


@functools.lru_cache(maxsize=None)
def jet_series(name: str, n: int, j_max: int) -> tuple:
    """Taylor coefficients at a primitive n-th root of unity, in the power
    basis of Z[zeta_n]: the truncated jet sum over k < n(J+1) of
    prod_{i<=k} (1 - (zeta + x)^i), each term multiplied by (zeta + x)^k
    for qinv."""
    width = j_max + 1
    zero = [[0] * n for _ in range(width)]
    term = [row[:] for row in zero]
    term[0][0] = 1
    total = [row[:] for row in term]
    zeta_plus_x = [row[:] for row in zero]
    zeta_plus_x[0][1 % n] += 1
    if width > 1:
        zeta_plus_x[1][0] += 1
    for k in range(1, n * width):
        factor = [row[:] for row in zero]
        factor[0][0] = 1
        for j in range(min(k, j_max) + 1):
            factor[j][(k - j) % n] -= comb(k, j)
        term = _jet_mul(term, factor, n)
        if name == "qinv":
            term = _jet_mul(term, zeta_plus_x, n)
        for row, add in zip(total, term):
            for s, x in enumerate(add):
                row[s] += x
    phi = sympy_phi(n)
    return tuple(tuple(_rem(_strip(row), phi)) for row in total), len(phi) - 1


def _coords(values: list, deg: int) -> tuple:
    return tuple(values) + (0,) * (deg - len(values))


def _root_coeffs_ok(name: str, n: int, coeffs) -> str | None:
    expected, deg = jet_series(name, n, len(coeffs) - 1)
    for j, (got, want) in enumerate(zip(coeffs, expected)):
        if got.order != n or tuple(got.coeffs) != _coords(want, deg):
            return f"coefficient {j} at order {n} is {got.coeffs}, jet sum gives {_coords(want, deg)}"
    return None


# -- per-workload checks --------------------------------------------------


def check_series(job, out) -> str | None:
    _, name, level, _ = job
    if out.level != level:
        return f"level {out.level}, expected {level}"
    rep = list(out.rep.coeffs)
    modulus, total = _pochhammer_sums(level)
    if len(rep) >= len(modulus):
        return f"representative of degree {len(rep) - 1} is not reduced mod (q)_{level}"
    if name == "qinv":
        if _rem(_add([0] + rep, [-1]), modulus):
            return f"q * x != 1 mod (q)_{level}"
        return None
    if rep != _rem(total, modulus):
        return f"differs from sum of (q)_k, k <= {level}, mod (q)_{level}"
    for n in range(1, min(level, 12) + 1):
        (want,), deg = jet_series("kz", n, 0)
        folded = [0] * n  # rep mod q^n - 1, then mod Phi_n
        for i, c in enumerate(rep):
            folded[i % n] += c
        if _coords(_rem(_strip(folded), sympy_phi(n)), deg) != _coords(want, deg):
            return f"value at order {n} differs from sum of (zeta)_k"
    return None


def check_roots(job, out) -> str | None:
    kind, name = job[0], job[1]
    if kind == "tau":
        m = job[2]
        if sorted(out) != list(range(1, m + 1)):
            return f"orders {sorted(out)}, expected 1..{m}"
        for n, value in out.items():
            bad = _root_coeffs_ok(name, n, [value])
            if bad:
                return bad
        return None
    n, j_max = (1, job[2]) if kind == "ohtsuki" else (job[2], job[3])
    coeffs = out.coeffs
    if out.order != n or len(coeffs) != j_max + 1:
        return f"order {out.order} with {len(coeffs)} coefficients, expected {n} and {j_max + 1}"
    bad = _root_coeffs_ok(name, n, coeffs)
    if bad:
        return bad
    if n == 1 and name == "kz":
        for j, c in enumerate(coeffs[: len(FISHBURN)]):
            if abs(c.coeffs[0]) != FISHBURN[j]:
                return f"|c_{j}| = {abs(c.coeffs[0])}, Fishburn number is {FISHBURN[j]}"
    return None


def _c_value(m: int, n: int) -> int:
    """p when max/min is a positive power of the prime p, 1 otherwise."""
    lo, hi = sorted((m, n))
    if hi % lo:
        return 1
    ratio = hi // lo
    p = next(d for d in range(2, ratio + 1) if ratio % d == 0)
    while ratio % p == 0:
        ratio //= p
    return p if ratio == 1 else 1


@functools.lru_cache(maxsize=None)
def _primes(top: int) -> list[int]:
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(top**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    return [p for p in range(top + 1) if sieve[p]]


def _components(ring: str, verts) -> list[list[int]]:
    """Union-find over the edges v -- v * p^k inside the vertex set."""
    members = set(verts)
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    top = max(members)
    primes = _primes(top)
    if ring == "Q":
        primes = []
    elif ring.startswith("Z1/"):
        m = int(ring[3:])
        primes = [p for p in primes if m % p]
    for v in members:
        for p in primes:
            w = v * p
            if w > top:
                break
            while w <= top:
                if w in members:
                    parent[find(w)] = find(v)
                w *= p
    groups: dict[int, list[int]] = {}
    for v in members:
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def _rat_rem(a, g) -> list:
    """Remainder of a rational list modulo an integer g with leading +-1,
    computed over Z after clearing denominators."""
    den = math.lcm(*(Fraction(c).denominator for c in a)) if a else 1
    return [Fraction(c, den) for c in _rem([int(c * den) for c in a], list(g))]


def _factor(m: int, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _mul(out, sympy_phi(m))
    return out


def check_algebra(job, out) -> str | None:
    kind = job[0]
    if kind == "phi":
        if tuple(out.coeffs) != sympy_phi(job[1]):
            return f"Phi_{job[1]} differs from sympy"
        return None
    if kind == "coprime":
        m, n = job[1], job[2]
        c = _c_value(m, n)
        if c == 1:
            if not hasattr(out, "u") or out.resultant not in (1, -1):
                return f"c({m},{n}) = 1 but no unit certificate"
            if _add(_mul(out.u.coeffs, sympy_phi(m)), _mul(out.v.coeffs, sympy_phi(n))) != [1]:
                return f"u*Phi_{m} + v*Phi_{n} != 1"
            return None
        want = totient(min(m, n))
        if getattr(out, "p", None) != c or out.exponent != want or out.resultant != c**want:
            return f"expected resultant {c}^{want} for ({m},{n}), got {out}"
        return None
    if kind == "components":
        want = _components(job[1], job[2])
        if out != want:
            return f"components over {job[1]} differ from the prime-power union-find"
        return None
    if kind == "congruence":
        m, p, e = job[1:]
        d = totient(p**e * m) // totient(m)
        big = sympy.Poly(sympy_phi(p**e * m)[::-1], _X, modulus=p)
        small = sympy.Poly(sympy_phi(m)[::-1], _X, modulus=p)
        want = (d, big == small**d)
        if tuple(out) != want:
            return f"congruence ({m},{p},{e}) gave {out}, expected {want}"
        return None
    lam = dict(job[1])
    factors = {m: _factor(m, e) for m, e in lam.items()}
    degree = sum(len(f) - 1 for f in factors.values())
    if kind == "crt":
        comps, g = out
        f = [Fraction(a, b) for a, b in job[2]]
        if len(g.coeffs) > degree:
            return "reconstruction is not reduced"
        for m, fm in factors.items():
            want = _rat_rem(f, fm)
            if list(comps.component(m).coeffs) != want:
                return f"component at {m} is not f mod Phi_{m}^{lam[m]}"
            if _rat_rem(g.coeffs, fm) != want:
                return f"split(reconstruct) differs at {m}"
        return None
    # Componentwise deltas: with the exact sum below they make the e_n
    # orthogonal idempotents summing to 1 (the CRT map is a ring isomorphism).
    if sorted(out) != sorted(lam):
        return f"idempotents for {sorted(out)}, expected {sorted(lam)}"
    total: list = []
    for n, e_n in out.items():
        if len(e_n.coeffs) > degree:
            return f"e_{n} is not reduced"
        total = _add(total, list(e_n.coeffs))
        for m, fm in factors.items():
            if _rat_rem(e_n.coeffs, fm) != ([1] if m == n else []):
                return f"e_{n} mod Phi_{m}^{lam[m]} is not {int(m == n)}"
    if total != [1]:
        return "idempotents do not sum to 1"
    return None


@functools.lru_cache(maxsize=None)
def _in_process(argv: tuple) -> tuple[int, bytes]:
    from cyclocomp import cli

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("HABIRO_CACHE_DIR", None)
    try:
        code = cli.run(list(argv), out, err)
    finally:
        if saved is not None:
            os.environ["HABIRO_CACHE_DIR"] = saved
    return code, out.getvalue().encode()


def check_cli(job, out) -> str | None:
    argv = job[1]
    code, stdout = out[0], out[1]
    if code != 0:
        return f"exit code {code}"
    ref_code, ref_out = _in_process(argv)
    if ref_code != 0 or stdout != ref_out:
        return "stdout differs from in-process cli.run without a cache"
    if argv[0] in ("cyclotomic", "pochhammer") and argv[-1] == "json":
        n = int(argv[1])
        if argv[0] == "cyclotomic":
            want = sympy_phi(n)
        else:
            poly = sympy.Poly(sympy.prod([1 - _X**i for i in range(1, n + 1)]), _X)
            want = tuple(int(c) for c in reversed(poly.all_coeffs()))
        if tuple(int(c) for c in json.loads(stdout)["coeffs"]) != want:
            return f"{argv[0]} {n} differs from sympy"
    return None


_CHECKERS = {"series": check_series, "roots": check_roots, "algebra": check_algebra, "cli": check_cli}


def check(workload: str, job, out) -> str | None:
    return _CHECKERS[workload](job, out)
