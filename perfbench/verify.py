"""Correctness gate behind the benchmark's failure count.

A request fails when its exit code is not 0, when its stdout differs
from the digest recorded in ``reference_digests.json``, or, under a full
check, when its JSON breaks the CLI schema, any check report has
``passed: false``, or the output breaks a closed form that does not come
from the code under test:

- Chern class of Pn: the coefficient of h^k is C(n+1, k);
- Todd class of Pn: degree-0 (top monomial) coefficient 1;
- L class of Pn: degree-0 coefficient 1 for even n, absent for odd n;
- ty class of Pn: degree-0 coefficient sum_{k=0..n} (-y)^k;
- genus of P(a) x P(b) x ...: chi_y is the product of those sums, with
  values prod (n_i + 1), 1 and prod [n_i even] at y = -1, 0, 1;
- comma of poset cospans: the object and morphism counts that
  ``workloads.comma_size`` computes independently.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, prod


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_ypoly(text: str) -> dict[int, Fraction]:
    """Parse the CLI's rendering of a polynomial in y, e.g.
    ``1 - y + 3/2*y^2``, into {exponent: coefficient}."""
    out: dict[int, Fraction] = {}
    for raw in text.replace(" - ", " + -").split(" + "):
        term = raw.strip()
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff, _, mono = term.rpartition("*") if "*" in term else ("", "", term)
        if mono.startswith("y"):
            exp = int(mono[2:]) if mono.startswith("y^") else 1
            c = Fraction(coeff) if coeff else Fraction(1)
        else:
            exp, c = 0, Fraction(mono)
        out[exp] = out.get(exp, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def alternating_sum(n: int) -> dict[int, Fraction]:
    """sum_{k=0..n} (-y)^k as {exponent: coefficient}."""
    return {k: Fraction((-1) ** k) for k in range(n + 1)}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return {e: c for e, c in out.items() if c}


def _class_terms(payload) -> dict[int, str]:
    (component,) = payload["components"]
    return {term["monomial"][0]: term["coefficient"] for term in component["terms"]}


def closed_form_errors(expect, payload) -> list[str]:
    """Violations of the closed form named by ``expect`` (see module doc)."""
    if not expect or expect[0] == "check":
        return []
    kind = expect[0]
    if kind == "chern":
        n = expect[1]
        want = {k: str(comb(n + 1, k)) for k in range(n + 1)}
        got = _class_terms(payload)
        return [] if got == want else [f"chern P{n}: coefficients differ from C(n+1, k)"]
    if kind in ("todd", "l", "ty"):
        n = expect[1]
        top = _class_terms(payload).get(n)
        if kind == "todd":
            ok = top == "1"
        elif kind == "l":
            ok = top == ("1" if n % 2 == 0 else None)
        else:
            ok = top is not None and parse_ypoly(top) == alternating_sum(n)
        return [] if ok else [f"{kind} P{n}: degree-0 coefficient {top!r} breaks the closed form"]
    if kind == "genus":
        dims = expect[1]
        want = {0: Fraction(1)}
        for n in dims:
            want = _poly_mul(want, alternating_sum(n))
        values = {
            "-1": str(prod(n + 1 for n in dims)),
            "0": "1",
            "1": str(prod(1 if n % 2 == 0 else 0 for n in dims)),
        }
        errors = []
        if parse_ypoly(payload["chi_y"]) != want:
            errors.append(f"genus {dims}: chi_y {payload['chi_y']!r} is not the product formula")
        if payload["specializations"] != values:
            errors.append(f"genus {dims}: specializations {payload['specializations']}")
        return errors
    if kind == "comma":
        objects, morphisms = expect[1], expect[2]
        got = (payload["objects"], payload["morphisms"], payload["passed"])
        if got != (objects, morphisms, True):
            return [f"comma: got {got}, expected ({objects}, {morphisms}, True)"]
        return []
    raise ValueError(f"unknown closed form {kind!r}")


def check_output(request: dict, code, stdout: str, reference: dict, validator, full: bool):
    """Reasons the request failed (empty when it passed) and the number of
    check reports in its output."""
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    want = reference.get(request["key"])
    if want is None:
        errors.append("no reference digest")
    elif digest(stdout) != want:
        errors.append("stdout differs from the reference digest")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"], 0
    reports = payload.get("reports", []) if isinstance(payload, dict) else []
    if full:
        errors += [f"schema: {e.message}" for e in validator.iter_errors(payload)][:3]
        if payload.get("command") == "check":
            if payload.get("passed") is not True or any(r.get("passed") is not True for r in reports):
                errors.append("a check report has passed: false")
        errors += closed_form_errors(request["expect"], payload)
    return errors, len(reports)
