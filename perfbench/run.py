"""hexsaw benchmark: cold-process CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hexsaw checkout.  Each job is one `hexsaw`
subcommand in a fresh interpreter (perfbench/job.py), one at a time, as
a user pays for it: the strip, transfer and table caches start empty in
every process.  A run repeats the workload's job list (a pass) until S
seconds have gone by and at least MIN_PASSES passes are done, and
takes for each job the median over passes.  Every report is checked
against reference values (perfbench/workloads.py); a job that exits
non-zero, reports `ok: false` or misses a reference counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (perfbench/tracer.py wraps the package's layers from
outside), prints the per-layer metrics, and checks that every traced
pass counts the same work and that each job starts with empty caches.

The last line of standard output is the result as one JSON object;
the full record, with run metadata and the spans of one traced pass, is
written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# kill a job still running this long after the run started, so the run
# ends within its 180 s budget
RUN_DEADLINE_S = 165.0

E2E_UNITS = {"wall_s": "s", "work_s": "s", "setup_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "verified_ratio": "ratio"}
# names ending in these are work counts: they must repeat exactly
COUNT_SUFFIXES = (".calls", ".walks", ".keys", ".loops", ".checks")

_clock = time.perf_counter


class RunFailure(Exception):
    """The benchmark could not run at all (no result is printed)."""


# -- one job --------------------------------------------------------------

def _child_env(root: Path) -> dict:
    """The caller's environment (BLAS settings included) with the checkout's
    source tree first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_job(root: Path, out: Path, job: wl.Job, trace: bool, deadline: float) -> dict:
    record = out / "job.json"
    report = out / "report.json"
    for path in (record, report):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "job.py"), str(record)]
    argv += ["--trace"] if trace else []
    argv += ["--", *job.argv, "--output", str(report)]
    env = _child_env(root)
    with open(out / "job.stderr", "w", encoding="utf-8") as err:
        t_spawn = _clock()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - t_spawn), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = _clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {
        "command": job.command,
        "wall_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
        "setup_s": 0.0,
        "work_s": 0.0,
        "trace": None,
    }
    try:
        rec = json.loads(record.read_text(encoding="utf-8"))
        doc = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stderr = (out / "job.stderr").read_text(encoding="utf-8")[-2000:]
        res["error"] = f"exit {proc.returncode}, no report: {stderr}"
        return res
    res["setup_s"] = rec["t_imported"] - t_spawn
    res["work_s"] = rec["t_done"] - rec["t_work"]
    res["trace"] = rec.get("trace")
    res["error"] = _verify(job, proc.returncode, doc, res["trace"])
    return res


def _verify(job: wl.Job, returncode: int, doc: dict, trace: dict | None) -> str | None:
    if returncode != 0 or doc.get("ok") is not True:
        return f"exit {returncode}, ok={doc.get('ok')}: {doc.get('results')}"
    problem = job.check(doc)
    if problem or trace is None:
        return problem
    if job.walks is not None:
        walks = trace["counts"].get("enumeration.class_histogram.walks")
        if walks != job.walks:
            return f"kernel visited {walks} walks, reference {job.walks}"
    warm = {k: v["start_size"] for k, v in trace["caches"].items() if v["start_size"]}
    if warm:
        return f"caches not empty at job start: {warm}"
    return None


def run_pass(root, out, jobs, trace, deadline, log) -> list[dict]:
    results = []
    for job in jobs:
        res = run_job(root, out, job, trace, deadline)
        if res["error"]:
            log(f"FAILED {' '.join(job.argv)}: {res['error']}")
        results.append(res)
    return results


# -- metrics ----------------------------------------------------------------

def per_job(passes, key):
    """Per job, the median of `key` over the run's verified passes (0 when
    there are none); one value per job."""
    return [statistics.median([p[i][key] for p in passes if not p[i]["error"]] or [0.0])
            for i in range(len(passes[0]))]


def end_to_end(passes: list[list[dict]], attempted: int, failed: int) -> dict:
    m = {key: sum(per_job(passes, key))
         for key in ("wall_s", "work_s", "setup_s", "cpu_s")}
    m["peak_rss_mb"] = max(per_job(passes, "peak_rss_mb"))
    m["verified_ratio"] = (attempted - failed) / attempted
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in m.items()}


def _merge_traces(results: list[dict]) -> dict:
    stats: dict = {}
    counts: dict = {}
    caches: dict = {}
    for res in results:
        tr = res.get("trace") or {"stats": {}, "counts": {}, "caches": {}}
        for name, (calls, incl, own) in tr["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += incl
            s[2] += own
        for name, k in tr["counts"].items():
            counts[name] = counts.get(name, 0) + k
        for name, info in tr["caches"].items():
            c = caches.setdefault(name, {"hits": 0, "misses": 0})
            c["hits"] += info["hits"]
            c["misses"] += info["misses"]
    return {"stats": stats, "counts": counts, "caches": caches}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: dict, work_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    stats, counts = tr["stats"], tr["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self(prefix):
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix))

    m = {}
    for op in ("mul", "add", "inverse", "pow", "sign"):
        m[f"cyclo.{op}.calls"] = (calls(f"cyclo.{op}"), "count")
    for op in ("mul", "add", "inverse", "pow"):
        m[f"cyclo.{op}.self_s"] = (own(f"cyclo.{op}"), "s")
    m["cyclo.self_s"] = (layer_self("cyclo."), "s")
    m["cyclo.share"] = (_ratio(layer_self("cyclo."), work_s), "ratio")

    walks = counts.get("enumeration.class_histogram.walks", 0)
    hist_s = incl("enumeration.class_histogram")
    saw_f = "enumeration.iter_saws.enumeration.observable_f"
    m.update({
        "enumeration.build_tables.s": (incl("enumeration.build_tables"), "s"),
        "enumeration.class_histogram.s": (hist_s, "s"),
        "enumeration.class_histogram.walks": (walks, "count"),
        "enumeration.class_histogram.walks_per_s": (_ratio(walks, hist_s), "1/s"),
        "enumeration.class_histogram.keys":
            (counts.get("enumeration.class_histogram.keys", 0), "count"),
        "enumeration.iter_saws.walks": (counts.get("enumeration.iter_saws.items", 0), "count"),
        "enumeration.iter_saws.s": (incl("enumeration.iter_saws"), "s"),
        "enumeration.observable_f.self_s": (own("enumeration.observable_f"), "s"),
        "enumeration.observable_f.key_ratio":
            (_ratio(counts.get(f"{saw_f}.keys", 0), counts.get(f"{saw_f}.items", 0)), "ratio"),
        "enumeration.evaluate_tally.s": (incl("enumeration.evaluate_tally"), "s"),
        "enumeration.evaluate_tally.keys":
            (counts.get("enumeration.evaluate_tally.keys", 0), "count"),
        "enumeration.enumerate_loops.s": (incl("enumeration.enumerate_loops"), "s"),
        "enumeration.enumerate_loops.loops":
            (counts.get("enumeration.enumerate_loops.loops", 0), "count"),
        "enumeration.half_plane_counts.s": (incl("enumeration.half_plane_counts"), "s"),
        "identity.check_local.s": (incl("identity.check_local"), "s"),
        "identity.check_global.s": (incl("identity.check_global"), "s"),
        "identity.self_s": (layer_self("identity."), "s"),
    })

    gf = tr["caches"].get("strip.strip_gf", {"hits": 0, "misses": 0})
    m.update({
        "strip.build_transfer.calls": (calls("strip.build_transfer"), "count"),
        "strip.build_transfer.s": (incl("strip.build_transfer"), "s"),
        "strip.transfer.states": (counts.get("strip.transfer.states", 0), "count"),
        "strip.transfer.transitions": (counts.get("strip.transfer.transitions", 0), "count"),
        "strip.strip_gf.calls": (calls("strip.strip_gf"), "count"),
        "strip.strip_gf.cache_hit_ratio": (_ratio(gf["hits"], gf["hits"] + gf["misses"]),
                                           "ratio"),
        "strip.strip_gf.exact.self_s": (own("strip.strip_gf.exact"), "s"),
        "strip.strip_gf.float.self_s": (own("strip.strip_gf.float"), "s"),
        "strip.solve_yT.self_s": (own("strip.solve_yT"), "s"),
        "strip.growth_mu.self_s": (own("strip.growth_mu"), "s"),
        "strip.series_counts.s": (incl("strip.series_counts"), "s"),
        "strip.check_bounds.checks": (counts.get("strip.check_bounds.checks", 0), "count"),
    })

    hp_walks = counts.get("bridges.half_plane_walks.items", 0)
    m.update({
        "bridges.half_plane_walks.walks": (hp_walks, "count"),
        "bridges.half_plane_walks.s": (incl("bridges.half_plane_walks"), "s"),
        "bridges.bridge_counts.s": (incl("bridges.bridge_counts"), "s"),
        "bridges.irreducible_ratio": (_ratio(counts.get("bridges.irreducible", 0), hp_walks),
                                      "ratio"),
        "bridges.kesten_partial.self_s": (own("bridges.kesten_partial"), "s"),
        "bridges.diamond_points.calls": (calls("bridges.diamond_points"), "count"),
        "bridges.stickbreak.calls": (calls("bridges.stickbreak"), "count"),
        "bridges.stickbreak.s": (incl("bridges.stickbreak"), "s"),
        "bridges.sample_renewal.s": (incl("bridges.sample_renewal"), "s"),
        "lattice.classify_walk.calls": (calls("lattice.classify_walk"), "count"),
        "lattice.classify_walk.s": (incl("lattice.classify_walk"), "s"),
        "domains.build.calls": (calls("domains.build"), "count"),
        "domains.build.s": (incl("domains.build"), "s"),
    })
    return m


def _counts_of(metrics: dict) -> dict:
    return {k: v for k, (v, _) in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or k.startswith("strip.transfer.")}


def per_layer(untraced: list, traced: list, jobs: list) -> tuple[dict, list[str]]:
    """Per-layer metrics and the self-test's complaints (empty when it passes)."""
    work = [sum(r["work_s"] for r in p) for p in traced]
    merged = [layer_metrics(_merge_traces(p), w) for p, w in zip(traced, work)]
    first = _counts_of(merged[0])
    problems = []
    for i, m in enumerate(merged[1:], 2):
        diff = {k: (first[k], v) for k, v in _counts_of(m).items() if v != first[k]}
        if diff:
            problems.append(f"traced passes 1 and {i} differ in (pass 1, pass {i}) counts {diff}")
    out = {}
    for name, (value, unit) in merged[0].items():
        if unit != "count":
            value = statistics.median(m[name][0] for m in merged)
        out[name] = {"value": value, "unit": unit}
    walls = per_job(untraced, "wall_s")
    for sub in wl.SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = {
            "value": sum(w for w, job in zip(walls, jobs) if job.command == sub), "unit": "s"}
    out["trace.overhead_ratio"] = {"value": sum(per_job(traced, "work_s"))
                                   / sum(per_job(untraced, "work_s")),
                                   "unit": "ratio"}
    return out, problems


# -- run metadata -------------------------------------------------------------

def metadata(root: Path, out: Path, args) -> dict:
    record = out / "probe.json"
    record.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(record), "--probe"],
                          cwd=root, env=_child_env(root), capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RunFailure(f"cannot import hexsaw from {root / 'src'}: {proc.stderr[-2000:]}")
    meta = json.loads(record.read_text(encoding="utf-8"))
    if not Path(meta["hexsaw_file"]).resolve().is_relative_to(root / "src"):
        raise RunFailure(f"hexsaw imported from {meta['hexsaw_file']}, not {root / 'src'}")
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    y1, y2, sseed = wl.draw(args.seed)
    meta.update({
        "workload": args.workload, "seed": args.seed, "Y1": y1, "Y2": y2,
        "sampler_seed": sseed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "commit": commit, "source_sha256": digest.hexdigest(),
    })
    return meta


def build(root: Path, out: Path) -> None:
    """Build the package's optional compiled kernel in place, as an install
    from source would; without Cython this compiles nothing."""
    with open(out / "build.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", str(out / "build-temp")],
            cwd=root, stdout=log, stderr=subprocess.STDOUT, timeout=800)
    if proc.returncode != 0:
        raise RunFailure(f"build failed, see {out / 'build.log'}")


# -- driver -----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "hexsaw" / "cli.py").is_file():
        print(f"error: no hexsaw source tree under {root}", file=sys.stderr)
        return 2
    out = root / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    try:
        build(root, out)
        meta = metadata(root, out, args)
    except (RunFailure, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("meta " + json.dumps(meta), flush=True)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    jobs = wl.jobs(args.workload, args.seed)
    t0 = _clock()
    deadline = t0 + RUN_DEADLINE_S
    untraced: list = []
    traced: list = []
    while True:
        untraced.append(run_pass(root, out, jobs, False, deadline, log))
        if args.trace:
            traced.append(run_pass(root, out, jobs, True, deadline, log))
        elapsed = _clock() - t0
        enough = len(traced) >= MIN_TRACED_PASSES if args.trace else len(untraced) >= MIN_PASSES
        if (enough and elapsed >= args.seconds) or _clock() >= deadline:
            break
    every = [r for p in untraced + traced for r in p]
    failed = sum(1 for r in every if r["error"])
    problems: list = []
    if args.trace:
        metrics, problems = per_layer(untraced, traced, jobs)
        for p in problems:
            log(f"SELF-TEST {p}")
    else:
        metrics = end_to_end(untraced, len(every), failed)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": failed == 0 and not problems, "attempted": len(every),
              "failed": failed, "metrics": metrics}
    samples = [[{k: v for k, v in r.items() if k != "trace"} for r in p] for p in untraced]
    full = dict(result, meta=meta, samples=samples, traced_passes=len(traced),
                self_test=problems,
                spans=[{"argv": job.argv, "spans": (r["trace"] or {}).get("spans")}
                       for job, r in zip(jobs, traced[0])] if traced else [])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
