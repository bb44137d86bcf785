"""Command-line front end.

Commands: ``classes`` (characteristic classes of a space), ``genus``
(interpolating genus with its specializations), ``check`` (seeded
identity-check suites), ``comma`` (comma category of a cospan file) and
``complete`` (group completion of a monoid presentation file).

Exit codes: 0 on success, 1 when a check or law verification fails,
2 on usage or parse errors.  JSON output is deterministic: identical
inputs and seed produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from .abelian import group_completion, parse_monoid_text
from .cat import build_comma, parse_cospan_text, verify_category, verify_functor
from .geom import homological_degree, parse_space
from .relk import distinguished
from .series import ClassSpec, chern_spec, l_spec, spec_from_text, ty_spec, todd_spec
from .transform import SUITE_NAMES, CharacteristicClass, chi_y_genus, run_suite, tau

__all__ = ["main", "run", "schema_path", "build_class_spec"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def schema_path():
    """Path of the JSON schema all command outputs validate against."""
    return resources.files("tauclass").joinpath("data/cli_schema.json")


def build_class_spec(name: str, max_degree: int) -> ClassSpec:
    """Resolve a --class argument: a built-in name or ``file:<path>``."""
    builders = {"chern": chern_spec, "todd": todd_spec, "l": l_spec, "ty": ty_spec}
    if name in builders:
        return builders[name](max_degree)
    if name.startswith("file:"):
        path = name[len("file:"):]
        with open(path, "r", encoding="utf-8") as handle:
            return spec_from_text(handle.read(), name=path.rsplit("/", 1)[-1])
    raise ValueError(
        f"unknown class {name!r}: expected chern, todd, l, ty or file:<path>"
    )


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}") from None


def cmd_classes(args) -> int:
    space = parse_space(args.space)
    # a built-in series past the largest dimension would go unused
    top = max(sum(comp) for comp in space.components)
    spec = build_class_spec(args.klass, min(args.max_degree, top))
    if args.y is not None:
        if not spec.has_y:
            raise ValueError("--y only applies to classes with Q[y] coefficients")
        spec = ClassSpec(
            f"{spec.name}[y={args.y}]", spec.series.specialize_y(_parse_rational(args.y))
        )
    value = tau(CharacteristicClass(spec), distinguished(space))

    components = []
    lines = [f"space: {space}", f"class: {spec.name} (degree cap {args.max_degree})"]
    for comp, poly in zip(space.components, value.polys):
        terms = []
        for exp, coeff in poly.items():
            terms.append(
                {
                    "monomial": list(exp),
                    "degree": homological_degree(comp, exp),
                    "coefficient": str(coeff),
                }
            )
        terms.sort(key=lambda t: (-t["degree"], t["monomial"]))
        components.append({"factors": list(comp), "terms": terms})
        label = " x ".join(f"P{n}" for n in comp) if comp else "pt"
        lines.append(f"component {label}:")
        for term in terms:
            mono = (
                "*".join(
                    f"h{i + 1}^{e}" if e > 1 else f"h{i + 1}"
                    for i, e in enumerate(term["monomial"])
                    if e
                )
                or "1"
            )
            coeff = term["coefficient"]
            if " " in coeff:
                coeff = f"({coeff})"
            lines.append(f"  degree {term['degree']:>2}: {coeff} * {mono}")
    payload = {
        "command": "classes",
        "space": str(space),
        "class": spec.name,
        "max_degree": args.max_degree,
        "y": args.y,
        "components": components,
    }
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_genus(args) -> int:
    space = parse_space(args.space)
    chi = chi_y_genus(space)
    at = {y: str(chi.evaluate(int(y))) for y in ("-1", "0", "1")}
    payload = {
        "command": "genus",
        "space": str(space),
        "chi_y": str(chi),
        "specializations": at,
    }
    lines = [
        f"space: {space}",
        f"chi_y: {chi}",
        f"  chi_(-1) (Euler characteristic) = {at['-1']}",
        f"  chi_0   (arithmetic genus)     = {at['0']}",
        f"  chi_1   (signature)            = {at['1']}",
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    reports = run_suite(args.suite, args.seed, max_dim=args.max_dim)
    failures = [r for r in reports if not r.passed]
    payload = {
        "command": "check",
        "suite": args.suite,
        "seed": args.seed,
        "max_dim": args.max_dim,
        "total": len(reports),
        "failed": len(failures),
        "passed": not failures,
        "reports": [r.to_json_dict() for r in reports],
    }
    by_name: dict[str, list] = {}
    for r in reports:
        by_name.setdefault(r.check, []).append(r)
    lines = [f"suite: {args.suite} (seed {args.seed}, max dim {args.max_dim})"]
    for name in sorted(by_name):
        group = by_name[name]
        bad = sum(1 for r in group if not r.passed)
        status = "ok" if bad == 0 else f"{bad} FAILED"
        lines.append(f"  {name:<18} {len(group):>5} checks  {status}")
    for r in failures[:10]:
        lines.append(f"  FAIL {r.check} inputs={r.inputs} diff={r.difference}")
    lines.append(f"total: {len(reports)} checks, {len(failures)} failed")
    _emit(payload, args.format, lines)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_comma(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        cospan = parse_cospan_text(handle.read())
    violations = {
        "source": verify_category(cospan.source_cat),
        "base": verify_category(cospan.base_cat),
        "target": verify_category(cospan.target_cat),
        "functor_S": verify_functor(cospan.s),
        "functor_T": verify_functor(cospan.t),
    }
    lines = []
    objects = morphisms = None
    if all(not v for v in violations.values()):
        comma = build_comma(cospan)
        violations["comma"] = verify_category(comma.cat)
        violations["pi_s"] = verify_functor(comma.pi_s)
        violations["pi_t"] = verify_functor(comma.pi_t)
        objects = comma.cat.n_objects
        morphisms = comma.cat.n_morphisms
        lines.append(f"comma category: {objects} objects, {morphisms} morphisms")
    else:
        lines.append("input cospan fails law checks; comma category not built")
    clean = all(not v for v in violations.values())
    for name in sorted(violations):
        msgs = violations[name]
        lines.append(f"  {name:<10} {'ok' if not msgs else f'{len(msgs)} violations'}")
        for msg in msgs:
            lines.append(f"    - {msg}")
    payload = {
        "command": "comma",
        "objects": objects,
        "morphisms": morphisms,
        "violations": violations,
        "passed": clean,
    }
    _emit(payload, args.format, lines)
    return EXIT_OK if clean else EXIT_CHECK_FAILED


def cmd_complete(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        monoid = parse_monoid_text(handle.read())
    group = group_completion(monoid)
    payload = {
        "command": "complete",
        "generators": monoid.n_generators,
        "relations": len(monoid.relations),
        "rank": group.rank,
        "invariant_factors": list(group.torsion),
        "group": group.describe(),
    }
    lines = [
        f"generators: {monoid.n_generators}, relations: {len(monoid.relations)}",
        f"completion: {group.describe()}",
        f"free rank {group.rank}, invariant factors {list(group.torsion)}",
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauclass",
        description="Exact characteristic-class transformations on spaces over a base.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classes", help="characteristic classes of a space")
    p.add_argument("space", help="space expression, e.g. 'P2 x P1 + pt'")
    p.add_argument("--class", dest="klass", default="chern",
                   help="chern | todd | l | ty | file:<path>")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--y", default=None, help="exact rational substituted for y")
    add_format(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("genus", help="interpolating genus and specializations")
    p.add_argument("space")
    add_format(p)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("check", help="run an identity-check suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=5)
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("comma", help="build the comma category of a cospan file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_comma)

    p = sub.add_parser("complete", help="group completion of a monoid presentation")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_complete)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        # argparse reports usage problems with its own exit code
        return EXIT_USAGE if stop.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
