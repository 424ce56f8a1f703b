"""phononet benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workloads are closed loops: one process runs the workload's jobs back to
back, each after the previous one returns, and repeats the pass while the
measuring time allows (at least one pass).  Every job's output is checked
after the timed pass.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over passes, at the reference host speed
of ``bench/hostspeed.py``); with ``--trace 1`` untraced
and traced passes alternate and the per-layer metrics come from the traced
ones (see ``bench/README.md``).  The line before it is a JSON object with
the details: run environment, drawn parameters, every pass, every span
name, failures, and the metrics that could not be measured with the reason.
"""

import os

# Pin the BLAS and OpenMP pools before numpy can load: speed has to come
# from algorithms, and cpu_s would hide a change that buys time with threads.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Counters the program keeps to itself; they need diagnostics inside the
# package and are not measured from here.
NOT_OBSERVABLE = {
    "cascade.integrate.accepted_steps": "step acceptance happens inside integrate",
    "cascade.integrate.rejected_steps": "step rejection happens inside integrate",
    "transfer.evolve_amplitudes.nfev": "solve_ivp statistics are not returned",
    "network.lu_factorisations": "factorisations happen inside numpy.linalg.inv",
    "network.fit_lorentzian_dip.nfev": "the least_squares result is not returned",
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=Path, default=None, metavar="WORKDIR",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package() -> float:
    """Import phononet from src/; returns the import time in seconds."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import phononet  # noqa: F401
    return time.perf_counter() - t0


def _setup_probe(args) -> int:
    """Fresh-interpreter set-up: import phononet and build the inputs."""
    import_s = _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workloads.build(args.workload, args.seed, args.setup_probe, ROOT / "configs")
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": import_s}))
    return 0


def _measure_setup(args, workdir: Path, sampler) -> tuple[list[float], list[float], list[float]]:
    """Set-up times of fresh interpreters at the reference host speed, raw,
    and the probes' import times."""
    setup, raw, imports = [], [], []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(line["ready"] - start)
        setup.append(sampler.normalised(raw[-1], start, line["ready"]))
        imports.append(line["import_s"])
    return setup, raw, imports


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
    }


def _run_jobs(workload):
    outputs, job_s = [], {}
    w0, c0 = time.perf_counter(), time.process_time()
    for job in workload.jobs:
        t0 = time.perf_counter()
        try:
            outputs.append((job.run(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        job_s[job.name] = time.perf_counter() - t0
    return time.perf_counter() - w0, time.process_time() - c0, outputs, job_s


def _check(workload, outputs) -> list[dict]:
    failures = []
    for job, (out, err) in zip(workload.jobs, outputs):
        if err is None:
            try:
                err = job.check(out)
            except Exception as exc:  # a check that raises is a failed check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append({"job": job.name, "error": err})
    workload.end_pass()
    return failures


def _layer_metrics(s: dict, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass and the reasons for missing ones."""
    self_s, incl, calls = s["self_s"], s["inclusive_s"], s["calls"]
    counts, maxima = s["counts"], s["maxima"]
    m, missing = {}, {}

    def count(metric, value, *names):
        m[metric] = value
        if not any(calls.get(n) for n in names):
            missing[metric] = f"{' / '.join(names)} not called by this workload"

    def self_time(metric, *names):
        count(metric, sum(self_s.get(n, 0.0) for n in names), *names)

    def rate(metric, value, *names):
        t = sum(incl.get(n, 0.0) for n in names)
        count(metric, value / t if t > 0 else 0.0, *names)

    rows = counts.get("cli.render.rows", 0)
    self_time("cli.render.s", "cli.render_csv", "cli.render_json")
    count("cli.render.rows", rows, "cli.render_csv", "cli.render_json")
    rate("cli.render.rows_per_s", rows, "cli.render_csv", "cli.render_json")
    for name in ("filter", "multimode", "transfer", "fidelity", "circulator", "waveguide",
                 "design", "nv"):
        self_time(f"experiments.run_{name}.s", f"experiments.run_{name}")

    for fn in ("build_drift_matrix", "internal_spectrum", "output_spectrum",
               "fit_lorentzian_dip"):
        self_time(f"network.{fn}.s", f"network.{fn}")
    points = counts.get("network.points", 0)
    count("network.points", points, "network.build_drift_matrix")
    count("network.dim_max", maxima.get("network.dim_max", 0), "network.build_drift_matrix")
    rate("network.points_per_s", points, "network.internal_spectrum", "network.output_spectrum")

    self_time("circulator.scattering_probabilities.s", "circulator.scattering_probabilities")
    cpoints = counts.get("circulator.points", 0)
    count("circulator.points", cpoints, "circulator.scattering_probabilities")
    rate("circulator.points_per_s", cpoints, "circulator.scattering_probabilities")
    self_time("circulator.solve_drives_for_target.s", "circulator.solve_drives_for_target")

    self_time("waveguide.simulate_lossy_chain.s", "waveguide.simulate_lossy_chain")
    sp = counts.get("waveguide.site_points", 0)
    count("waveguide.site_points", sp, "waveguide.simulate_lossy_chain")
    rate("waveguide.site_points_per_s", sp, "waveguide.simulate_lossy_chain")

    for fn in ("evolve_amplitudes", "effective_occupation_integral", "pulse_spectrum",
               "design_pulses_iterative"):
        self_time(f"transfer.{fn}.s", f"transfer.{fn}")
    terms = counts.get("transfer.pulse_spectrum.terms", 0)
    count("transfer.pulse_spectrum.terms", terms, "transfer.pulse_spectrum")
    rate("transfer.pulse_spectrum.terms_per_s", terms, "transfer.pulse_spectrum")

    self_time("cascade.integrate.s", "cascade.integrate")
    self_time("cascade.reduced_two_qubit_model.s", "cascade.reduced_two_qubit_model")
    self_time("cascade.rhs.s", "cascade.rhs")
    rhs_calls = calls.get("cascade.rhs", 0)
    count("cascade.rhs.calls", rhs_calls, "cascade.rhs")
    rate("cascade.rhs.calls_per_s", rhs_calls, "cascade.rhs")
    integ = incl.get("cascade.integrate", 0.0)
    m["cascade.rhs_share"] = incl.get("cascade.rhs", 0.0) / integ if integ > 0 else 0.0
    if not rhs_calls:
        missing["cascade.rhs_share"] = "cascade.rhs not called by this workload"
    count("cascade.dim", maxima.get("cascade.dim", 0), "cascade.integrate")

    self_time("nv.effective_spin_phonon.s", "nv.effective_spin_phonon")

    m["trace.coverage"] = s["root_s"] / wall
    m["trace.uncovered_s"] = wall - s["root_s"]
    return m, missing


def _measure(args, workload, tracer, sampler) -> tuple[list[dict], list[dict], int]:
    """Run passes while the measuring time allows; returns the passes,
    the failed operations and the number attempted.

    Untraced runs make at least two passes, so that one pass does not alone
    set the median of a heavy workload.  Pass times are scaled to the
    reference host speed by the kernel times ``sampler`` took during the pass.
    """
    kinds = ["plain"] if tracer is None else ["plain", "traced"]
    min_rounds = 2 if tracer is None else 1
    passes, failures, attempted = [], [], 0
    start = time.perf_counter()
    while True:
        for kind in kinds:
            t0, m0 = time.perf_counter(), time.monotonic()
            if kind == "traced":
                tracer.reset()
                with tracer.installed():
                    wall, cpu, outputs, job_s = _run_jobs(workload)
                summary = tracer.summary()
            else:
                wall, cpu, outputs, job_s = _run_jobs(workload)
                summary = None
            m1 = time.monotonic()
            fails = _check(workload, outputs)
            attempted += len(workload.jobs)
            failures += fails
            passes.append({"kind": kind,
                           "wall_s": sampler.normalised(wall, m0, m1),
                           "cpu_s": sampler.normalised(cpu, m0, m1),
                           "raw_wall_s": wall, "raw_cpu_s": cpu,
                           "failed": len(fails), "job_s": job_s,
                           "speed_samples": len(sampler.between(m0, m1)),
                           "kernel_s": sampler.kernel_s(m0, m1),
                           "summary": summary,
                           "iteration_s": time.perf_counter() - t0})
        elapsed = time.perf_counter() - start
        last = sum(p["iteration_s"] for p in passes[-len(kinds):])
        if elapsed + last > args.seconds and len(passes) >= min_rounds * len(kinds):
            break
    return passes, failures, attempted


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "phononet" / "__init__.py").is_file():
        print(f"bench: no phononet package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "configs").is_dir():
        print(f"bench: no configs directory under {ROOT}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return _setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        sys.path.insert(0, str(BENCH_DIR))
        import hostspeed

        with hostspeed.Sampler() as sampler:
            setup_s, raw_setup_s, import_probe_s = _measure_setup(args, workdir, sampler)
            import_s = _import_package()
            import tracer as tracing
            import workloads

            t0 = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, workdir, ROOT / "configs")
            build_s = time.perf_counter() - t0
            tracer = tracing.Tracer() if args.trace else None
            passes, failures, attempted = _measure(args, workload, tracer, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "params": workload.params,
        "environment": _environment(),
        "host_speed": {"pinned_cpu": sampler.cpu, "reference_s": hostspeed.REFERENCE_S,
                       "interval_s": hostspeed.INTERVAL_S},
        "setup": {"probes_s": setup_s, "raw_probes_s": raw_setup_s,
                  "import_probes_s": import_probe_s,
                  "in_process_import_s": import_s, "in_process_build_s": build_s},
        "passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes],
        "failures": failures,
        "not_observable": NOT_OBSERVABLE,
    }

    if args.trace:
        per_pass = [_layer_metrics(p["summary"], p["raw_wall_s"]) for p in traced]
        layer = {k: statistics.median([m[k] for m, _ in per_pass]) for k in per_pass[0][0]}
        layer["setup.import.s"] = statistics.median(import_probe_s)
        layer["trace.overhead_s"] = (statistics.median([p["wall_s"] for p in traced])
                                     - statistics.median([p["wall_s"] for p in plain]))
        unavailable = per_pass[0][1]
        for span, err in tracer.count_errors.items():
            unavailable[span] = f"counter not taken: {err}"
        last = traced[-1]["summary"]
        coverage_ok = layer["trace.coverage"] >= 0.5
        if not coverage_ok:
            print(f"bench: traced layers cover only {layer['trace.coverage']:.0%} of the pass",
                  file=sys.stderr)
        details["trace"] = {
            "coverage_ok": coverage_ok,
            "spans": {n: {"calls": last["calls"][n], "self_s": last["self_s"][n],
                          "inclusive_s": last["inclusive_s"][n]}
                      for n in sorted(last["calls"])},
            "unavailable": unavailable,
        }
        values = layer
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median([p["wall_s"] for p in plain]),
            "cpu_s": statistics.median([p["cpu_s"] for p in plain]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(details))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
