"""Command-line behavior: payloads, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import polarcomp.algebra as algebra_module
import polarcomp.cli as cli_module
import polarcomp.polar as polar_module
import polarcomp.reconstruct as reconstruct_module
import polarcomp.verify as verify_module
from polarcomp.cli import main
from polarcomp.complement import Complement, build_complement, resolve_horizon
from polarcomp.errors import HorizonRefusal, LemmaFalsified
from polarcomp.incidence import IncidenceStructure
from polarcomp.reconstruct import Parallelism, Run, canonical_map


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def load_incidence(path):
    """Read back the JSON written by ``build`` (or any {n_points, lines})."""
    data = read(path)
    return IncidenceStructure(data["n_points"], data["lines"])


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_to_stdout(capsys):
    assert run_cli("build", "--form", "sp:6:2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_points"] == 63
    assert len(data["lines"]) == 315
    assert data["meta"]["rank"] == 3
    assert data["meta"]["kind"] == "symplectic"
    assert data["form"] == "sp:6:2"


def test_build_hyperbolic_counts(tmp_path, capsys):
    out = tmp_path / "q52.json"
    assert run_cli("build", "--form", "q+:5:2", "--out", str(out)) == 0
    data = read(out)
    assert data["n_points"] == 35
    assert len(data["lines"]) == 105


def test_build_roundtrip(tmp_path, sp62):
    out = tmp_path / "sp62.json"
    assert run_cli("build", "--form", "sp:6:2", "--out", str(out)) == 0
    assert load_incidence(out) == sp62.structure


@pytest.mark.parametrize("debug", [False, True])
def test_internal_error_exits_1_with_traceback_under_debug(debug, monkeypatch, capsys):
    def failing_stage(form):
        raise RuntimeError("stage broke")

    monkeypatch.setattr(cli_module, "build_polar", failing_stage)
    assert run_cli("build", "--form", "sp:6:2", *(["--debug"] if debug else [])) == 1
    err = capsys.readouterr().err
    assert err.endswith("internal error: stage broke\n")
    if debug:
        assert err.startswith("Traceback (most recent call last):")
        assert "RuntimeError: stage broke" in err
        assert "failing_stage" in err
    else:
        assert err == "internal error: stage broke\n"


def test_build_rejects_low_rank(capsys):
    assert run_cli("build", "--form", "sp:4:2") == 2
    assert "rank 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc",
    [
        "zz:5:2", "sp:6", "sp:a:2", "sp:6:6", "q+:4:2", "herm:3:3", "sp:6:32",
        "q-:-1:2", "q:-2:2", "q-:-3:3", "q-:1:2",
    ],
)
def test_build_rejects_bad_descriptors(desc, capsys):
    assert run_cli("build", "--form", desc) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["build", "--form", "sp:6:2"], "dir"),
        (["run", "--form", "sp:6:2", "--horizon", "point 0"], "file"),
        (["run", "--form", "sp:6:2", "--horizon", "point 0"], "file/sub"),
        (["horizons", "--form", "sp:6:2"], "file/x.json"),
    ],
)
def test_unwritable_out_is_a_configuration_error(argv, out, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    assert run_cli(*argv, "--out", str(tmp_path / out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: [Errno") and err.count("\n") == 1


def test_oversized_dimension_is_rejected_before_any_matrix(capsys):
    tracemalloc.start()
    try:
        code = run_cli("build", "--form", "sp:4000:2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "outside supported range" in capsys.readouterr().err
    assert peak < 4 * 2**20  # a 4000 x 4000 matrix alone would take over 100 MB


@pytest.mark.parametrize("desc", ["sp:8:16", "herm:7:16", "herm:5:9"])
def test_oversized_space_is_refused_before_enumerating_points(desc, monkeypatch, capsys):
    """PG(7,16) has 286,331,153 points and PG(5,9) 66,430: all past the cap."""

    def enumerating(*args):
        raise AssertionError("projective points enumerated")

    monkeypatch.setattr(polar_module, "pg_points", enumerating)
    assert run_cli("build", "--form", desc) == 2
    assert f"exceeds {polar_module.MAX_PG_POINTS} points" in capsys.readouterr().err


def test_huge_field_order_is_refused_before_factoring(monkeypatch, capsys):
    """Factoring 1000000007 tested every smaller integer for primality."""

    def raising(*args):
        raise AssertionError("field order factored")

    monkeypatch.setattr(algebra_module, "range", raising, raising=False)
    start = time.perf_counter()
    assert run_cli("build", "--form", "sp:6:1000000007") == 2
    assert time.perf_counter() - start < 1
    assert "exceeds the supported maximum 16" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_full_pipeline(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--form", "sp:6:2", "--horizon", "point 5",
                   "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "axioms.json",
        "complement.json",
        "lemma_battery.json",
        "reconstruction.json",
        "verification.json",
    ]
    assert read(out / "axioms.json")["all_ok"] is True
    comp = read(out / "complement.json")
    assert comp["n_proper_points"] == 62
    assert comp["deep_points"] == []
    battery = read(out / "lemma_battery.json")
    assert battery["failed"] == 0
    assert all("elapsed_ms" not in c for c in battery["checks"])
    recon = read(out / "reconstruction.json")
    assert recon["n_points"] == 63
    cmap = recon["canonical_map"]
    assert [0, 0] in cmap  # proper points keep their base ids
    assert [62, 5] in cmap  # the single direction lands on the removed point
    ver = read(out / "verification.json")
    assert ver["canonical_isomorphism"] is True
    assert ver["independent_search"]["found"] is True


def test_run_task_subset(tmp_path):
    out = tmp_path / "sub"
    assert run_cli("run", "--form", "q+:5:2", "--horizon", "line 0",
                   "--tasks", "axioms,complement", "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["axioms.json", "complement.json"]


def test_run_empty_horizon(tmp_path):
    out = tmp_path / "empty"
    assert run_cli("run", "--form", "q+:5:2", "--horizon", "", "--out", str(out)) == 0


def test_run_refuses_hyperplane_reconstruction(tmp_path, capsys):
    out = tmp_path / "ref"
    code = run_cli("run", "--form", "sp:6:2", "--horizon", "perp 0",
                   "--tasks", "reconstruct", "--out", str(out))
    assert code == 3
    assert "hyperplane horizon: delegated case" in capsys.readouterr().err


def test_run_hyperplane_horizon_without_reconstruction(tmp_path):
    out = tmp_path / "hyp"
    code = run_cli("run", "--form", "sp:6:2", "--horizon", "perp 0",
                   "--tasks", "axioms,complement,lemmas", "--out", str(out))
    assert code == 0
    comp = read(out / "complement.json")
    assert comp["horizon_is_hyperplane"] is True
    assert comp["deep_points"] == [0]


def test_run_reports_divergent_horizon(tmp_path):
    """Perp-meet horizons at order 2 are a documented failure mode: the
    intrinsic relation misses some parallel pairs, the battery says so, and
    the exit code counts every failed check."""
    out = tmp_path / "meet"
    code = run_cli("run", "--form", "sp:6:2", "--horizon", "meet perp 0 perp 3",
                   "--out", str(out))
    assert code == 19
    battery = read(out / "lemma_battery.json")
    assert battery["failed"] == 6
    bad = {c["check_id"] for c in battery["checks"] if c["status"] == "fail"}
    assert "parallel_tables_match" in bad
    recon = read(out / "reconstruction.json")
    assert recon["canonical_map"] is None
    assert "canonical_map_error" in recon
    ver = read(out / "verification.json")
    assert ver["canonical_isomorphism"] is False
    assert ver["independent_search"]["found"] is False


def test_run_counts_failed_axioms(tmp_path, monkeypatch, q52):
    """A failed axiom report is written as it is and counts as one failed
    check, alone and beside every other task."""
    check = cli_module.check_polar_axioms
    monkeypatch.setattr(cli_module, "check_polar_axioms", lambda ps: {**check(ps), "all_ok": False})
    report = {**check(q52), "all_ok": False}
    for name, tasks in (("axioms", ["--tasks", "axioms"]), ("all", [])):
        out = tmp_path / name
        assert run_cli("run", "--form", "q+:5:2", "--horizon", "point 0",
                       *tasks, "--out", str(out)) == 11
        assert read(out / "axioms.json") == report


def test_run_counts_a_falsified_plane_count(tmp_path, monkeypatch):
    """A falsified plane count is written into complement.json and counts as
    one failed check; the later tasks still run."""
    text = "line perps count 5 plane incidences, not a multiple of 4"

    def falsified(self):
        raise LemmaFalsified(text)

    monkeypatch.setattr(Complement, "plane_counts", falsified)
    out = tmp_path / "run"
    assert run_cli("run", "--form", "sp:6:2", "--horizon", "point 0", "--out", str(out)) == 11
    assert sorted(p.name for p in out.iterdir()) == [
        "axioms.json", "complement.json", "lemma_battery.json",
        "reconstruction.json", "verification.json",
    ]
    comp = read(out / "complement.json")
    assert (comp["n_planes"], comp["n_semiaffine_planes"]) == (None, None)
    assert comp["plane_count_error"] == text
    assert read(out / "lemma_battery.json")["failed"] == 0


def test_run_usage_errors(tmp_path, capsys):
    assert run_cli("run", "--form", "sp:6:2") == 2  # no horizon
    assert run_cli("run", "--form", "sp:6:2", "--horizon", "point 0",
                   "--tasks", "axioms,frobnicate") == 2
    assert run_cli("run", "--form", "sp:6:2", "--horizon", "gibberish 4") == 2
    assert run_cli("run", "--form", "sp:6:2", "--horizon", "point 0",
                   "--tasks", "") == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [["--form", "sp:6:2"], ["--horizon", "point 0"]])
def test_run_suite_rejects_form_and_horizon(extra, tmp_path, capsys):
    # The suite runs its own configurations; a form or horizon beside it
    # would be silently ignored.
    out = tmp_path / "suite"
    assert run_cli("run", "--suite", *extra, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: --suite takes no --form or --horizon\n"
    assert not out.exists()


def test_run_refuses_span_of_everything(capsys):
    spec = "span " + ",".join(str(i) for i in range(35))
    code = run_cli("run", "--form", "q+:5:2", "--horizon", spec,
                   "--tasks", "complement")
    assert code == 3
    assert "whole point set" in capsys.readouterr().err


def _patch_every_binding(monkeypatch, original, wrapper):
    """Replace ``original`` in every package module, so calls by any import
    path reach ``wrapper``."""
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "polarcomp":
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)


def test_run_axioms_computes_the_rank_once(tmp_path, monkeypatch):
    """``check_polar_axioms`` reads the rank the build already computed."""
    calls = 0
    compute_rank = polar_module.compute_rank

    def counting(st):
        nonlocal calls
        calls += 1
        return compute_rank(st)

    _patch_every_binding(monkeypatch, compute_rank, counting)
    assert run_cli("run", "--form", "q+:5:2", "--horizon", "point 0",
                   "--tasks", "axioms", "--out", str(tmp_path / "out")) == 0
    assert calls == 1


@pytest.mark.parametrize(
    "horizon, tasks, builds",
    [
        ("point 0", "axioms,complement,lemmas,reconstruct,verify", 1),
        ("point 0", "axioms,complement", 0),
        ("perp 0", "lemmas", 0),  # a hyperplane horizon
    ],
)
def test_run_builds_parallelism_at_most_once(tmp_path, monkeypatch, horizon, tasks, builds):
    """Each derived stage is built once per run, and only when a task needs it.

    The canonical map is checked once, and ``find_isomorphism`` validates its
    mapping once: two isomorphism checks per reconstructing run.  The only
    incidence structures built are the base space and the reconstruction.
    The complement task reads its horizon geometry without the plane-line
    table; the battery's plane-chain check and the parallelism read it."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Parallelism, "__init__", counting("parallelism", Parallelism.__init__))
    monkeypatch.setattr(
        IncidenceStructure, "__init__", counting("structures", IncidenceStructure.__init__)
    )
    monkeypatch.setattr(Complement, "plane_lines", counting("plane_lines", Complement.plane_lines))
    counted = (
        reconstruct_module.reconstruct,
        reconstruct_module.canonical_map,
        verify_module.is_isomorphism,
    )
    for original in counted:
        _patch_every_binding(monkeypatch, original, counting(original.__name__, original))
    assert run_cli("run", "--form", "q+:5:2", "--horizon", horizon,
                   "--tasks", tasks, "--out", str(tmp_path / "out")) == 0
    assert (calls.pop("plane_lines", 0) > 0) == ("lemmas" in tasks)
    assert calls == Counter(
        {"parallelism": builds, "reconstruct": builds, "canonical_map": builds,
         "is_isomorphism": 2 * builds, "structures": 1 + builds}
    )


@pytest.mark.parametrize("space, horizon", [("sp62", "point 0"), ("q53", "meet perp 0 perp 3")])
def test_canonical_map_reads_only_the_parallelism(request, monkeypatch, space, horizon):
    """With every binding of ``reconstruct`` broken, ``Run.canonical_map``
    still returns the map the parallelism alone gives."""
    ps = request.getfixturevalue(space)
    horizon_mask = resolve_horizon(ps, horizon)
    expected = canonical_map(Parallelism(build_complement(ps, horizon_mask)))

    def no_reconstruction(par):
        raise AssertionError("reconstruction built")

    _patch_every_binding(monkeypatch, reconstruct_module.reconstruct, no_reconstruction)
    assert Run(build_complement(ps, horizon_mask)).canonical_map == expected


def test_hyperplane_horizon_refuses_at_the_parallelism(sp62, monkeypatch):
    """Over a hyperplane horizon the parallelism stage itself refuses,
    before any :class:`Parallelism` is built."""

    def no_parallelism(self, comp):
        raise AssertionError("parallelism built")

    monkeypatch.setattr(Parallelism, "__init__", no_parallelism)
    run = Run(build_complement(sp62, resolve_horizon(sp62, "perp 0")))
    with pytest.raises(HorizonRefusal, match="delegated"):
        run.parallelism


@pytest.mark.parametrize("form, horizon", [("q+:5:2", "point 0"), ("q-:7:2", "line 0")])
def test_complement_task_enumerates_no_plane(form, horizon, tmp_path, monkeypatch):
    """The complement task counts planes from the line perps: with the plane
    walk broken it still exits 0 and writes the same ``complement.json``."""
    argv = ["run", "--form", form, "--horizon", horizon, "--tasks", "axioms,complement"]
    assert run_cli(*argv, "--out", str(tmp_path / "walk")) == 0

    def no_walk(*args):
        raise AssertionError("singular planes enumerated")

    _patch_every_binding(monkeypatch, polar_module._plane_lines, no_walk)
    assert run_cli(*argv, "--out", str(tmp_path / "counted")) == 0
    expected = (tmp_path / "walk" / "complement.json").read_bytes()
    assert (tmp_path / "counted" / "complement.json").read_bytes() == expected


def test_run_determinism(tmp_path):
    args = ("run", "--form", "q+:5:2", "--horizon", "line 0", "--seed", "0")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(d1)) == 0
    assert run_cli(*args, "--out", str(d2)) == 0
    for p1 in sorted(d1.iterdir()):
        p2 = d2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_run_timings_flag(tmp_path):
    out = tmp_path / "timed"
    assert run_cli("run", "--form", "q+:5:2", "--horizon", "point 0",
                   "--tasks", "lemmas", "--out", str(out), "--timings") == 0
    battery = read(out / "lemma_battery.json")
    assert all("elapsed_ms" in c for c in battery["checks"])


def test_run_suite_layout(tmp_path):
    base = tmp_path / "suite"
    assert run_cli("run", "--suite", "--tasks", "axioms", "--out", str(base)) == 0
    spaces = sorted(p.name for p in base.iterdir())
    assert spaces == ["q+_5_2", "q_6_2", "sp_6_2"]
    for space in spaces:
        horizons = sorted(p.name for p in (base / space).iterdir())
        assert len(horizons) == 3
        assert "point_0" in horizons and "line_0" in horizons


# SHA-256 over the `run --suite` output tree: for each file in sorted
# relative-path order, its POSIX path, a NUL, its own SHA-256 hex digest and
# a newline.
SUITE_DIGEST = "e27f75d4b296ef74a9aeef248c8fb2e67541457184aac474195c5c2fdb4910bc"


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).hexdigest().encode() + b"\n")
    return h.hexdigest()


def test_run_suite_output_is_pinned(tmp_path):
    base = tmp_path / "suite"
    assert run_cli("run", "--suite", "--out", str(base)) == 0
    assert len([p for p in base.rglob("*") if p.is_file()]) == 45
    assert tree_digest(base) == SUITE_DIGEST


# The same digest over `run --form herm:5:4 --horizon "line 0"`: GF(4) is the
# only extension field whose rank-3 spaces fit under MAX_PG_POINTS.
HERM_LINE_DIGEST = "be4fbc1525c487d7b2e8142da47050d31a6ece46ad65f2ef912b3506ee323ed0"


def test_run_hermitian_line_output_is_pinned(tmp_path):
    out = tmp_path / "herm54"
    assert run_cli("run", "--form", "herm:5:4", "--horizon", "line 0", "--out", str(out)) == 0
    assert tree_digest(out) == HERM_LINE_DIGEST


# The same digest over order-5 runs, where forcing on every placed line keeps
# the search from dominating.
ORDER_FIVE_DIGESTS = {
    "point 0": "61c13ac5d61d23f6cee324cb8fdc86a9ef0b92f908c31f17b58f2776dec92922",
    "line 0": "92c393496889263be30101d0d3a1758a91614c74bb0d90dcc883c1c459a9d55e",
}


@pytest.mark.parametrize("horizon", ORDER_FIVE_DIGESTS)
def test_run_order_five_output_is_pinned(tmp_path, horizon):
    out = tmp_path / "q55"
    assert run_cli("run", "--form", "q+:5:5", "--horizon", horizon, "--out", str(out)) == 0
    assert read(out / "lemma_battery.json")["failed"] == 0
    ver = read(out / "verification.json")
    assert ver["canonical_isomorphism"] is True and ver["independent_search"]["found"] is True
    assert tree_digest(out) == ORDER_FIVE_DIGESTS[horizon]


def test_run_larger_space_full_pipeline(tmp_path):
    out = tmp_path / "sp63"
    assert run_cli("run", "--form", "sp:6:3", "--horizon", "point 0", "--out", str(out)) == 0
    assert read(out / "axioms.json")["all_ok"] is True
    comp = read(out / "complement.json")
    assert comp["n_planes"] == 1120
    assert comp["n_proper_points"] == 363
    assert read(out / "lemma_battery.json")["failed"] == 0
    ver = read(out / "verification.json")
    assert ver["canonical_isomorphism"] is True
    assert ver["independent_search"]["found"] is True


@pytest.mark.parametrize("form", ["q+:9:2", "sp:10:2"])
def test_run_rank_five_full_pipeline(tmp_path, form):
    """q+:9:2 (PG(9,2), 527 points) and sp:10:2 (1,023 points, 782,595
    planes, 5,355 of them on the complement's short lines) are the rank-5
    spaces under the vector-dimension cap."""
    out = tmp_path / "rank5"
    assert run_cli("run", "--form", form, "--horizon", "point 0", "--out", str(out)) == 0
    axioms = read(out / "axioms.json")
    assert axioms["all_ok"] is True and axioms["rank"] == 5
    assert read(out / "lemma_battery.json")["failed"] == 0
    ver = read(out / "verification.json")
    assert ver["canonical_isomorphism"] is True
    assert ver["independent_search"]["found"] is True


# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------


def test_horizons_points(capsys):
    assert run_cli("horizons", "--form", "q+:5:2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "points"
    assert len(data["entries"]) == 35
    assert data["entries"][0] == {"size": 1, "spec": "point 0"}


def test_horizons_perps_and_lines(capsys):
    assert run_cli("horizons", "--form", "sp:6:2", "--kind", "perps") == 0
    perps = json.loads(capsys.readouterr().out)
    assert len(perps["entries"]) == 63
    assert all(e["size"] == 31 for e in perps["entries"])
    assert run_cli("horizons", "--form", "sp:6:2", "--kind", "lines") == 0
    lines = json.loads(capsys.readouterr().out)
    assert len(lines["entries"]) == 315
    assert all(e["size"] == 3 for e in lines["entries"])


def test_horizons_planes_and_meets(tmp_path):
    out = tmp_path / "planes.json"
    assert run_cli("horizons", "--form", "sp:6:2", "--kind", "planes",
                   "--out", str(out)) == 0
    planes = read(out)
    assert len(planes["entries"]) == 135
    assert all(e["size"] == 7 for e in planes["entries"])
    out2 = tmp_path / "meets.json"
    assert run_cli("horizons", "--form", "q+:5:2", "--kind", "perp-intersections",
                   "--out", str(out2)) == 0
    meets = read(out2)
    assert len(meets["entries"]) == 35 * 34 // 2


@pytest.mark.parametrize("form, fixture", [("sp:6:2", "sp62"), ("q+:5:3", "q53")])
def test_listed_horizon_atoms_resolve_to_their_size(form, fixture, request, capsys):
    ps = request.getfixturevalue(fixture)
    st = ps.structure
    counts = {
        "points": st.n_points,
        "lines": len(st.lines),
        "planes": len(ps.singular_planes()),
        "perps": st.n_points,
    }
    for kind, count in counts.items():
        assert run_cli("horizons", "--form", form, "--kind", kind) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert len(entries) == count
        for entry in entries:
            assert resolve_horizon(ps, entry["spec"]).bit_count() == entry["size"], entry


def test_horizons_rejects_unknown_kind():
    with pytest.raises(SystemExit):
        run_cli("horizons", "--form", "sp:6:2", "--kind", "wombats")


def test_cli_import_stays_lean():
    # -S: the site preloads of a full interpreter would hide a regression.
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import polarcomp.cli; print(*sys.modules)"
    argv = [sys.executable, "-I", "-S", "-c", probe, str(SRC)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "polarcomp.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "pathlib", "contextlib"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polarcomp", "build", "--form", "q+:5:2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_points"] == 35
