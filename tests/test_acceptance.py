"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a guarantee at full advertised scope (every case, nothing
sampled) and prints a single ``[criterion NN] PASS/FAIL`` line; run with
``-s`` or ``-rA`` to see them, or rely on the per-test verdicts from ``-v``.
"""

import itertools
import time

import pytest

from polarcomp.cli import main as cli_main
from polarcomp.complement import build_complement
from polarcomp.incidence import bits, is_isomorphism, mask_of
from polarcomp.polar import check_polar_axioms
from polarcomp.reconstruct import Parallelism, Run, reconstruct
from polarcomp.verify import find_isomorphism, run_lemma_battery

from oracles import drop_proper_line, is_spiky, lines_in


def _report(num, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    assert ok, line


def _why(problems):
    return f"; first problem: {problems[0]}" if problems else ""


def parallel_pairs(comp):
    """Unordered ground-parallel pairs."""
    table = comp.parallel_table()
    return [
        (k, l)
        for k in comp.affine_lines()
        for l in bits(table[k])
        if l > k
    ]


def class_directions(comp, par):
    """The unique ground direction of every parallel class."""
    dirs = []
    for members in par.classes:
        seen = {comp.point_at_infinity(k) for k in members}
        assert len(seen) == 1, "class mixes ground directions"
        dirs.append(seen.pop())
    return dirs


def test_criterion_01_axioms(sp62, q52, q62):
    problems = []
    worst = 0.0
    for ps in (sp62, q52, q62):
        t0 = time.perf_counter()
        report = check_polar_axioms(ps)
        worst = max(worst, time.perf_counter() - t0)
        if not report["all_ok"]:
            problems.append(report)
    _report(1, not problems and worst < 10.0,
            f"three spaces, slowest {worst:.2f}s{_why(problems)}")


def test_criterion_02_perp_hyperplanes(sp62):
    st = sp62.structure
    t0 = time.perf_counter()
    bad = [a for a in range(st.n_points) if not st.is_hyperplane(st.adj[a])]
    dt = time.perf_counter() - t0
    _report(2, not bad and dt < 5.0,
            f"{st.n_points} perps in {dt:.2f}s{_why(bad)}")


def test_criterion_03_deep_points(sp62):
    st = sp62.structure
    problems = []
    t0 = time.perf_counter()
    for a in range(st.n_points):
        w = st.adj[a]
        deep = build_complement(sp62, w).deep_points()
        if deep != 1 << a or deep & ~st.radical_of(w):
            problems.append(("perp", a))
    small = [("point", p, 1 << p) for p in range(8)]
    small += [("line", li, st.line_masks[li]) for li in range(8)]
    others = [b for b in range(1, st.n_points) if st.adj[0] >> b & 1][:4]
    others += [b for b in range(1, st.n_points) if not (st.adj[0] >> b & 1)][:4]
    small += [("perp-meet", b, st.adj[0] & st.adj[b]) for b in others]
    for kind, tag, w in small:
        if st.is_hyperplane(w):
            problems.append((kind, tag, "unexpected hyperplane"))
            continue
        comp = build_complement(sp62, w)
        if comp.deep_points() or not is_spiky(st, w):
            problems.append((kind, tag))
    dt = time.perf_counter() - t0
    _report(3, not problems and dt < 30.0,
            f"{st.n_points} perps + {len(small)} small horizons in {dt:.1f}s{_why(problems)}")


def test_criterion_04_avoiding_hyperplanes(suite_configs):
    problems = []
    total = 0
    for desc, label, comp, _ in suite_configs:
        st = comp.base.structure
        for k, l in parallel_pairs(comp):
            total += 1
            try:
                h = comp.avoiding_hyperplane(k, l)
            except Exception as exc:
                problems.append((desc, label, k, l, repr(exc)))
                continue
            km = st.line_masks[comp.line_closure[k]]
            lm = st.line_masks[comp.line_closure[l]]
            if (not st.is_hyperplane(h) or comp.horizon & ~h
                    or not km & ~h or not lm & ~h):
                problems.append((desc, label, k, l, "postcondition"))
    _report(4, not problems, f"{total} parallel pairs{_why(problems)}")


def test_criterion_05_plane_chains(suite_configs):
    problems = []
    total = 0
    for desc, label, comp, _ in suite_configs:
        planes = comp.planes()
        for k, l in parallel_pairs(comp):
            total += 1
            a = comp.point_at_infinity(k)
            try:
                path = comp.plane_path(k, l)
            except Exception as exc:
                problems.append((desc, label, k, l, repr(exc)))
                continue
            masks = [mask_of(comp.plane_lines(pi)) for pi in path]
            good = (path
                    and (masks[0] >> k) & 1
                    and (masks[-1] >> l) & 1
                    and all((planes[pi] >> a) & 1 for pi in path)
                    and all(m1 & m2 for m1, m2 in zip(masks, masks[1:])))
            if not good:
                problems.append((desc, label, k, l, "side condition"))
    _report(5, not problems, f"{total} plane chains{_why(problems)}")


def test_criterion_06_parallel_tables(suite_configs):
    problems = []
    t0 = time.perf_counter()
    for desc, label, comp, _ in suite_configs:
        intrinsic = Parallelism(comp).table()
        ground = comp.parallel_table()
        diff = [k for k in range(comp.n_lines) if intrinsic[k] != ground[k]]
        if diff:
            problems.append((desc, label, diff[:4]))
    dt = time.perf_counter() - t0
    _report(6, not problems and dt < 60.0,
            f"nine configurations in {dt:.1f}s{_why(problems)}")


def test_criterion_07_affine_detection(suite_configs):
    problems = []
    for desc, label, comp, par in suite_configs:
        if set(par.class_id) != set(comp.affine_lines()):
            problems.append((desc, label))
    _report(7, not problems, f"nine configurations{_why(problems)}")


def test_criterion_08_deep_line_equivalence(suite_configs, comp_q53_lperp, par_q53):
    configs = [
        (desc, label, comp, par)
        for desc, label, comp, par in suite_configs
        if lines_in(comp.base.structure, comp.horizon)
    ]
    configs.append(("q+:5:3", "perp line 0", comp_q53_lperp, par_q53))
    problems = []
    total = 0
    for desc, label, comp, par in configs:
        st = comp.base.structure
        dirs = class_directions(comp, par)
        deep = set(comp.deep_lines())
        for c1 in range(par.n_classes):
            for c2 in range(c1 + 1, par.n_classes):
                total += 1
                li = (comp.base.line_through(dirs[c1], dirs[c2])
                      if st.adj[dirs[c1]] >> dirs[c2] & 1 else None)
                expected = li is not None and li in deep
                if (par.related[c1] >> c2 & 1) != expected:
                    problems.append((desc, label, c1, c2))
    _report(8, bool(configs) and not problems,
            f"{total} class pairs over {len(configs)} line-bearing horizons{_why(problems)}")


def test_criterion_09_ternary_collinearity(suite_configs, comp_q53_lperp, par_q53):
    configs = list(suite_configs) + [("q+:5:3", "perp line 0", comp_q53_lperp, par_q53)]
    problems = []
    total = 0
    for desc, label, comp, par in configs:
        nc = par.n_classes
        if nc < 3:
            continue
        st = comp.base.structure
        dirs = class_directions(comp, par)
        for c1, c2, c3 in itertools.combinations(range(nc), 3):
            total += 1
            line = (comp.base.line_through(dirs[c1], dirs[c2])
                    if st.adj[dirs[c1]] >> dirs[c2] & 1 else None)
            ground = line is not None and (st.line_masks[line] >> dirs[c3]) & 1
            if par.ternary_collinear(c1, c2, c3) != bool(ground):
                problems.append((desc, label, (c1, c2, c3)))
    _report(9, total > 0 and not problems, f"{total} class triples{_why(problems)}")


def test_criterion_10_reconstruction(suite_configs):
    problems = []
    worst = 0.0
    for desc, label, comp, _ in suite_configs:
        t0 = time.perf_counter()
        run = Run(comp)
        ok, cert = is_isomorphism(run.reconstruction.structure, comp.base.structure,
                                  run.canonical_map)
        worst = max(worst, time.perf_counter() - t0)
        if not ok:
            problems.append((desc, label, cert))
    searched = 0
    for desc, label, comp, par in suite_configs:
        if label != "point 0":
            continue
        recon = reconstruct(par)
        witness = find_isomorphism(recon.structure, comp.base.structure)
        if witness is None or not is_isomorphism(recon.structure, comp.base.structure, witness)[0]:
            problems.append((desc, label, "independent search failed"))
        else:
            searched += 1
    _report(10, not problems and worst < 120.0 and searched == 3,
            f"nine canonical maps (slowest {worst:.1f}s) + {searched} searched witnesses{_why(problems)}")


def test_criterion_11_mutation_sensitivity(comp_point):
    mutated = drop_proper_line(comp_point, 0)
    failing = [r for r in run_lemma_battery(Run(mutated))
               if r.status == "fail" and r.witness]
    detail = f"{len(failing)} checks fail"
    if failing:
        detail += f", e.g. {failing[0].check_id}: {failing[0].witness}"
    _report(11, bool(failing), detail)


def test_criterion_12_determinism(tmp_path):
    args = ["run", "--form", "sp:6:2", "--horizon", "point 0", "--seed", "0"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli_main([*args, "--out", str(d1)]) == 0
    assert cli_main([*args, "--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    same = names == sorted(p.name for p in d2.iterdir()) and all(
        (d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names
    )
    _report(12, bool(names) and same, f"{len(names)} files byte-identical")
