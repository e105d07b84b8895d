"""Benchmark of the stripes laboratory: three workloads, end-to-end and
per-layer metrics.

One run (what a benchmark harness calls):

    python3 perfbench/run.py --workload symbreak2d --seed 3 --seconds 25 --trace 0

prints a few human-readable lines, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.

Every workload, end-to-end metrics by name and unit:

    python3 perfbench/run.py --workload all --seconds 25

Seconds-long smoke check of every workload at tiny size, in both modes,
against the metric names and units in BENCHMARK.json:

    python3 perfbench/run.py --workload all --smoke

Runs from the root of a source checkout and imports ``stripes`` from its
``src`` directory, never from an installed copy.  All load stays in one
process, single-threaded; records and span traces go to ``perfbench/out``.
"""
from __future__ import annotations

import os

# pin every thread pool before numpy loads; the stripes solvers also run
# with threads=1 (see README.md for the measured cost of threads=2)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "STRIPES_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
PROBE_CHUNKS = 4
# reference chunk time of the host probe, in seconds: about its time on an
# idle core of a 2.1-GHz Xeon; setup_s and solve_ref_s are times scaled to
# a host on which the probe takes exactly this long
PROBE_REF_S = 0.005
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import stripes; "
                "print(time.perf_counter() - t0)")


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "stripes" / "__init__.py").is_file():
        _fail(f"no stripes sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import stripes
    if Path(stripes.__file__).resolve().parent != SRC / "stripes":
        _fail(f"imported stripes from {stripes.__file__}, not from {SRC}")
    return stripes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_seconds() -> float:
    """Time to import stripes (with numpy and scipy) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _host_probe() -> float:
    """Speed of the host right now: mean time of a fixed numpy FFT loop,
    timed in PROBE_CHUNKS chunks of about 5 ms on an idle core.

    The host shares its cores with other tenants and changes speed by up
    to 2x over seconds to minutes; a solve and the probes run right before
    and after it slow down by the same factor, so their ratio stays put
    where the solve's own time does not (see README.md)."""
    import numpy as np
    a = np.random.default_rng(0).uniform(size=(64, 64))
    total = 0.0
    for _ in range(PROBE_CHUNKS):
        t0 = perf_counter()
        for _ in range(40):
            np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(a)).real.sum()
        total += perf_counter() - t0
    return total / PROBE_CHUNKS


def _clear_caches(modules) -> None:
    """Empty every functools cache the library holds, so set-up is cold."""
    for mod in modules:
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(args, workload, inp, classes) -> dict:
    import numpy
    import scipy
    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "threads": {"solver_threads": 1, **THREAD_ENV},
            "workload": workload.name, "seed": args.seed,
            "unit_order": classes, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "inputs": workload.describe(inp)}


def _unit_of(name: str) -> str:
    if name.endswith("_ms_per_call"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _at_ref(seconds: float, probe_before: float, probe_after: float
            ) -> float:
    """A time rescaled to the reference host speed by the host probes taken
    right before and after it."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def _pass_time(samples: dict, col: int) -> float:
    """Time of one pass over the units: the sum over the units of the
    median of each unit's solve times, 0 when a unit has none.  A sample is
    ``(wall seconds, seconds at the reference host speed)``; ``col`` picks
    one of them."""
    if not all(samples.values()):
        return 0.0
    return sum(statistics.median(rep[col] for rep in reps)
               for reps in samples.values())


def _timed(tracer, root: str, fn, inp, **attrs):
    """fn(inp) and its wall time; with a tracer, under a root span and with
    the wrappers installed for exactly that call."""
    if tracer is None:
        t0 = perf_counter()
        out = fn(inp)
        return out, perf_counter() - t0
    tracer.install()
    try:
        with tracer.span(root, **attrs):
            t0 = perf_counter()
            out = fn(inp)
            dt = perf_counter() - t0
    finally:
        tracer.uninstall()
    return out, dt


def run_one(args) -> int:
    stripes = _import_library()
    from stripes import decomposition, energy, field, flow, kernel, onedim
    sys.path.insert(0, str(HERE))
    import workloads as W
    from tracer import Tracer, layer_metrics

    if args.workload not in W.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    modules = {"kernel": kernel, "energy": energy, "field": field,
               "flow": flow, "onedim": onedim, "decomposition": decomposition}
    lib_modules = [getattr(stripes, m) for m in modules] + [stripes]
    wl = W.WORKLOADS[args.workload]
    refs = json.loads((HERE / "reference.json").read_text())
    tracer = Tracer(modules) if args.trace else None

    # -- set-up: import in a fresh interpreter plus the cold table builds,
    # each part between two host probes; samples are (wall seconds, seconds
    # at the reference host speed) --
    setup_inp = wl.inputs(args.seed % wl.classes, args.size)
    setups = []
    probes = [_host_probe()]
    for rep in range(1 if args.size == "smoke" else SETUP_REPS):
        t_import = _import_seconds()
        probes.append(_host_probe())
        _clear_caches(lib_modules)
        _, t_build = _timed(tracer, "bench.setup", wl.setup, setup_inp,
                            rep=rep)
        probes.append(_host_probe())
        setups.append((t_import + t_build,
                       _at_ref(t_import, *probes[-3:-1])
                       + _at_ref(t_build, *probes[-2:])))

    # -- solve: passes over the workload's units, each pass starting at unit
    # seed % classes, with a host probe between consecutive solves; a traced
    # run solves each unit twice, traced and untraced --
    order = [(args.seed + k) % wl.classes for k in range(wl.classes)]
    inputs = {cls: wl.inputs(cls, args.size) for cls in order}
    solves = {cls: [] for cls in order}
    traced_solves = {cls: [] for cls in order}
    checks_run = checks_failed = 0
    unconverged = runs = 0
    failures = []
    passes = 0
    start = perf_counter()
    while not failures and (passes == 0 or (
            perf_counter() - start < args.seconds and args.size != "smoke")):
        for cls in order:
            inp = inputs[cls]
            ref = W.reference_for(refs, wl, args.size, cls)
            for tr in ([tracer, None] if tracer else [None]):
                try:
                    out, dt = _timed(tr, "bench.solve", wl.solve, inp,
                                     rep=passes, cls=cls)
                except Exception:       # a failed solve is a failed output
                    traceback.print_exc()
                    checks_run += 1
                    checks_failed += 1
                    failures.append(f"class {cls}: solve raised")
                    break
                probes.append(_host_probe())
                (traced_solves if tr else solves)[cls].append(
                    (dt, _at_ref(dt, *probes[-2:])))
                for name, ok in wl.checks(inp, out, ref):
                    checks_run += 1
                    if not ok:
                        checks_failed += 1
                        failures.append(f"class {cls}: {name}")
                bad, total = wl.unconverged(out)
                unconverged += bad
                runs += total
            if failures:
                break
        passes += 1

    unconverged_frac = unconverged / runs if runs else 0.0
    solve_ref_s = _pass_time(solves, 1)
    if tracer:
        metrics = layer_metrics(tracer.spans)
        metrics["unconverged_frac"] = unconverged_frac
        metrics["check_fail_frac"] = checks_failed / checks_run
        metrics["trace.overhead_s"] = (
            _pass_time(traced_solves, 1) - solve_ref_s
            if not failures else 0.0)
    else:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "solve_ref_s": solve_ref_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    env = _environment(args, wl, setup_inp, order)
    env["host_probe_ms"] = {"min": 1e3 * min(probes),
                            "median": 1e3 * statistics.median(probes),
                            "max": 1e3 * max(probes)}
    extra = {"unconverged_frac": unconverged_frac,
             "check_fail_frac": checks_failed / checks_run,
             "passes": passes, "setup_reps": len(setups),
             "setup_wall_s": statistics.median(wall for wall, _ in setups),
             "solve_wall_s": _pass_time(solves, 0)}

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{args.size}"
    record = {"environment": env, "metrics": metrics, "summary": extra,
              "setup_samples_s": setups, "solve_samples_s": solves,
              "traced_solve_samples_s": traced_solves, "failures": failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json")

    print("environment " + json.dumps(env))
    for name, value in {**extra, **metrics}.items():
        print(f"{wl.name} {name} {value:.6g} {_unit_of(name)}")
    for f in failures:
        print(f"{wl.name} FAILED {f}")
    result = {"correct": not failures, "attempted": checks_run,
              "failed": checks_failed,
              "metrics": {k: {"value": v, "unit": _unit_of(k)}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traces = (0, 1) if args.size == "smoke" else (args.trace,)
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in traces:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.size == "smoke":
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{wl}: no result (exit {proc.returncode})\n"
                      f"{proc.stderr}")
                status = 1
                continue
            for line in lines[1:-1]:
                print(line)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                print(f"{wl}: trace {trace} metrics differ from "
                      f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}"
                      f" / units {got}")
                status = 1
            if proc.returncode or not result["correct"]:
                print(f"{wl}: output checks failed "
                      f"({result['failed']}/{result['attempted']})")
                status = 1
    print("all workloads passed" if status == 0 else "FAILED")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="symbreak2d, period1d, slicing2d or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", dest="size", action="store_const",
                    const="smoke", default="full",
                    help="tiny inputs, one pass")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
