"""Batch command-line front end.

Verbs:

* ``build``    construct a polar space and emit its incidence JSON
* ``run``      build, cut out a horizon, and run the requested tasks
* ``horizons`` list candidate horizon specs for a space

Form descriptors: ``sp:D:Q`` (symplectic, vector dimension D), ``q+:N:Q`` /
``q-:N:Q`` / ``q:N:Q`` (hyperbolic / elliptic / parabolic quadric in
projective dimension N) and ``herm:N:Q`` (hermitian, Q a square).  Horizons
use the mini-language of :func:`polarcomp.complement.resolve_horizon`.

All JSON output is canonical: sorted keys, two-space indent, LF endings.
Exit codes: 0 all good, 1 internal error (one line, or a traceback under
``--debug``), 2 configuration error or an ``--out`` path that cannot be
written, 3 horizon refusal, 10+N when N checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .complement import build_complement, horizon_atoms, resolve_horizon
from .errors import ConfigurationError, HorizonRefusal, LemmaFalsified
from .incidence import bits
from .polar import (
    FormSpec,
    PolarSpace,
    build_polar,
    check_polar_axioms,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    parabolic_form,
    symplectic_form,
)
from .algebra import GF
from .reconstruct import Run
from .verify import find_isomorphism, run_lemma_battery

DEFAULT_TASKS = ("axioms", "complement", "lemmas", "reconstruct", "verify")

_FORM_BUILDERS = {
    "sp": symplectic_form,
    "q": parabolic_form,
    "q+": hyperbolic_form,
    "q-": elliptic_form,
    "herm": hermitian_form,
}


def parse_form(desc: str) -> FormSpec:
    """Turn a descriptor like ``sp:6:2`` into a form."""
    parts = desc.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"form descriptor {desc!r} is not kind:dim:order")
    kind, dim_s, q_s = parts
    if kind not in _FORM_BUILDERS:
        raise ConfigurationError(f"unknown form kind {kind!r}")
    try:
        dim = int(dim_s)
        q = int(q_s)
    except ValueError:
        raise ConfigurationError(f"non-integer fields in form descriptor {desc!r}") from None
    return _FORM_BUILDERS[kind](dim, GF(q))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(payload, out: str | None) -> None:
    text = canonical_json(payload)
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def structure_payload(ps: PolarSpace, desc: str) -> dict:
    return {
        "meta": {
            "kind": ps.form.kind,
            "field_order": ps.form.field.q,
            "ambient_dim": ps.ambient_dim,
            "rank": ps.rank,
            "n_lines": len(ps.structure.lines),
        },
        "n_points": ps.structure.n_points,
        "lines": [list(line) for line in ps.structure.lines],
        "form": desc,
    }


def cmd_build(args) -> int:
    ps = build_polar(parse_form(args.form))
    _emit(structure_payload(ps, args.form), args.out)
    return 0


def _complement_payload(run: Run) -> dict:
    comp = run.complement
    st = comp.base.structure
    try:
        (n_planes, n_semiaffine), error = comp.plane_counts(), {}
    except LemmaFalsified as exc:  # one failed check, counted by the caller
        (n_planes, n_semiaffine), error = (None, None), {"plane_count_error": str(exc)}
    return {
        "horizon_points": list(bits(comp.horizon)),
        "n_proper_points": len(comp.proper_points),
        "n_proper_lines": comp.n_lines,
        "affine_lines": comp.affine_lines(),
        "deep_points": list(bits(comp.deep_points())),
        "deep_lines": [list(st.lines[li]) for li in comp.deep_lines()],
        "n_planes": n_planes,
        "n_semiaffine_planes": n_semiaffine,
        "horizon_is_hyperplane": comp.horizon_is_hyperplane,
        **error,
    }


def _run_single(
    ps: PolarSpace,
    horizon: int,
    tasks: list[str],
    outdir: str,
    *,
    timings: bool,
) -> int:
    """Run the pipeline for one configuration; returns the failed-check count."""
    os.makedirs(outdir, exist_ok=True)
    failed = 0

    if "axioms" in tasks:
        report = check_polar_axioms(ps)
        _emit(report, os.path.join(outdir, "axioms.json"))
        if not report["all_ok"]:
            failed += 1

    if set(tasks) <= {"axioms"}:
        return failed
    run = Run(build_complement(ps, horizon))

    if "complement" in tasks:
        payload = _complement_payload(run)
        failed += "plane_count_error" in payload
        _emit(payload, os.path.join(outdir, "complement.json"))

    if "lemmas" in tasks:
        checks = run_lemma_battery(run)
        n_bad = sum(1 for c in checks if c.status == "fail")
        failed += n_bad
        _emit(
            {
                "checks": [c.as_dict(include_elapsed=timings) for c in checks],
                "failed": n_bad,
            },
            os.path.join(outdir, "lemma_battery.json"),
        )

    if "reconstruct" not in tasks and "verify" not in tasks:
        return failed
    recon = run.reconstruction

    if "reconstruct" in tasks:
        try:
            cmap, map_error = run.canonical_map, None
        except LemmaFalsified as exc:
            cmap, map_error = None, str(exc)
        payload = {
            "n_points": recon.structure.n_points,
            "n_proper_points": len(run.complement.proper_points),
            "families": {
                name: [list(line) for line in lines]
                for name, lines in recon.families.items()
            },
            "canonical_map": None if cmap is None else [[k, cmap[k]] for k in sorted(cmap)],
        }
        if map_error is not None:
            payload["canonical_map_error"] = map_error
            failed += 1
        _emit(payload, os.path.join(outdir, "reconstruction.json"))

    if "verify" in tasks:
        try:
            ok, cert = run.canonical_isomorphism
        except LemmaFalsified as exc:  # no canonical map
            ok, cert = False, {"error": str(exc)}
        payload = {"canonical_isomorphism": ok}
        if not ok:
            payload["violation"] = cert
            failed += 1
        found = find_isomorphism(ps.structure, recon.structure)
        payload["independent_search"] = {
            "found": found is not None,
            "mapping": None if found is None else [[k, found[k]] for k in sorted(found)],
        }
        if found is None:
            failed += 1
        _emit(payload, os.path.join(outdir, "verification.json"))

    return failed


def _parse_tasks(text: str) -> list[str]:
    tasks = [t for t in text.split(",") if t]
    if not tasks:
        raise ConfigurationError("no tasks requested")
    bad = [t for t in tasks if t not in DEFAULT_TASKS]
    if bad:
        raise ConfigurationError(f"unknown tasks: {', '.join(bad)}")
    return tasks


def default_suite() -> list[tuple[str, str]]:
    """The shipped configurations: three spaces, three horizon shapes each.

    Horizons are a single point, a full line, and the span of a
    noncollinear point pair (resolved per space at run time).
    """
    out = []
    for desc in ("sp:6:2", "q+:5:2", "q:6:2"):
        out.append((desc, "point 0"))
        out.append((desc, "line 0"))
        out.append((desc, "span-noncollinear"))
    return out


def _sanitize(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9+-]+", "_", text).strip("_")


def cmd_run(args) -> int:
    tasks = _parse_tasks(args.tasks)
    if args.suite:
        if args.form is not None or args.horizon is not None:
            raise ConfigurationError("--suite takes no --form or --horizon")
        configs = default_suite()
    elif args.form is None or args.horizon is None:
        raise ConfigurationError("run needs --form and --horizon (or --suite)")
    else:
        configs = [(args.form, args.horizon)]
    out = args.out or ("suite-out" if args.suite else "run-out")
    spaces: dict[str, PolarSpace] = {}
    failed = 0
    for desc, horizon_spec in configs:
        if desc not in spaces:
            spaces[desc] = build_polar(parse_form(desc))
        ps = spaces[desc]
        if args.suite and horizon_spec == "span-noncollinear":
            # A built space is nondegenerate: some point is not collinear with 0.
            horizon_spec = f"span 0,{next(bits(ps.structure.full_mask & ~ps.structure.adj[0]))}"
        failed += _run_single(
            ps,
            resolve_horizon(ps, horizon_spec),
            tasks,
            os.path.join(out, _sanitize(desc), _sanitize(horizon_spec)) if args.suite else out,
            timings=args.timings,
        )
    return 0 if failed == 0 else 10 + failed


def cmd_horizons(args) -> int:
    ps = build_polar(parse_form(args.form))
    st = ps.structure
    kind = args.kind
    if kind == "perp-intersections":
        entries = [
            {"spec": f"meet perp {i} perp {j}", "size": (st.adj[i] & st.adj[j]).bit_count()}
            for i in range(st.n_points)
            for j in range(i + 1, st.n_points)
        ]
    else:  # one atom per id; argparse admits only the four atom kinds here
        atom = kind.removesuffix("s")
        entries = [
            {"spec": f"{atom} {i}", "size": m.bit_count()}
            for i, m in enumerate(horizon_atoms(ps, atom))
        ]
    _emit({"form": args.form, "kind": kind, "entries": entries}, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarcomp",
        description="Polar spaces, subspace complements, and their reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--debug", action="store_true", help="traceback on internal errors")

    p_build = sub.add_parser(
        "build", help="construct a polar space, emit incidence JSON", parents=[common]
    )
    p_build.add_argument("--form", required=True, help="form descriptor, e.g. sp:6:2")
    p_build.add_argument("--out", default=None, help="output file (default: stdout)")
    p_build.set_defaults(func=cmd_build)

    p_run = sub.add_parser("run", help="cut out a horizon and run tasks", parents=[common])
    p_run.add_argument("--form", default=None, help="form descriptor")
    p_run.add_argument("--horizon", default=None, help="horizon spec, e.g. 'point 5'")
    p_run.add_argument(
        "--tasks",
        default=",".join(DEFAULT_TASKS),
        help=f"comma list from {{{','.join(DEFAULT_TASKS)}}}",
    )
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--seed", type=int, default=0, help="has no effect: the battery checks every case"
    )
    p_run.add_argument(
        "--timings", action="store_true", help="include elapsed times in reports"
    )
    p_run.add_argument(
        "--suite", action="store_true", help="run the shipped default configurations"
    )
    p_run.set_defaults(func=cmd_run)

    p_hor = sub.add_parser("horizons", help="list candidate horizons", parents=[common])
    p_hor.add_argument("--form", required=True)
    p_hor.add_argument(
        "--kind",
        default="points",
        choices=["points", "lines", "planes", "perps", "perp-intersections"],
    )
    p_hor.add_argument("--out", default=None)
    p_hor.set_defaults(func=cmd_horizons)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HorizonRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the only files touched are the outputs
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.debug:
            import traceback  # only here: it adds to every run's import time

            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1

