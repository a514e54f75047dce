"""The supchar benchmark: real CLI jobs, end-to-end metrics, and a traced run
for per-layer metrics.

    python3 bench/run.py --workload closed-t35 --seed 0 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seconds 60          # every workload
    python3 bench/run.py --capture-golden                      # rewrite golden.json

Run it from the root of a checkout.  Each job is a fresh
`python -m supchar.cli` process with a hermetic environment (no SUPCHAR_*
variables, fixed PYTHONHASHSEED, no --jobs flag).  Jobs run one at a time in a
closed loop with a single client for about --seconds (at least one job);
`--workload all` interleaves the workloads round by round.  Wall time, CPU
time and max RSS of each job come from os.wait4 in bench/launch.py.  Every
job's exit code, CHECK lines and stdout hash are checked; `failed_frac` counts
the jobs that fail.  There is no waiting metric: jobs are single-threaded and
never queue.

With --trace 1 the run alternates untraced jobs with jobs run under
bench/tracer.py, and reports per-layer metrics from the traced ones plus the
tracing overhead.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl
from workloads import WORKLOADS

LAUNCH = os.path.join(wl.HERE, "launch.py")
SETUP_RUNS = 11
RUN_LIMIT_S = 170           # every run ends well inside 180 s
LAYERS = ("fields", "cyclo", "linalg", "algebra", "superclasses",
          "supercharacters", "triangular", "cli")


class Env:
    """Paths and the hermetic job environment of one checkout."""

    def __init__(self, root: str, limit_s: float | None = RUN_LIMIT_S):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_build", "bench")
        os.makedirs(self.work, exist_ok=True)
        # jobs read and write their bytecode cache under .bench_build, as an
        # installed package would have its bytecode compiled once
        env = {k: v for k, v in os.environ.items() if not k.startswith("SUPCHAR_")
               and k not in ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE")}
        env.update(PYTHONPATH=self.src, PYTHONHASHSEED="0",
                   PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_build", "pycache"))
        self.vars = env
        self.deadline = None if limit_s is None else time.monotonic() + limit_s

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


class Job:
    """One finished process: wall and CPU seconds, peak RSS, output and checks.

    The process runs under launch.py, which measures it with os.wait4 from a
    bare interpreter so that the peak RSS is the job's own."""

    def __init__(self, env: Env, argv: list, tag: str):
        out_path, err_path = env.path(tag + ".out"), env.path(tag + ".err")
        report = env.path(tag + ".usage.json")
        if os.path.exists(report):
            os.remove(report)
        launcher = [sys.executable, "-I", "-S", LAUNCH, report, "--", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(launcher, stdout=out, stderr=err, cwd=env.root,
                                    env=env.vars, start_new_session=True)
            killer = None
            if env.deadline is not None:
                killer = threading.Timer(max(env.deadline - time.monotonic(), 1.0),
                                         _kill_group, (proc.pid,))
                killer.start()
            proc.wait()
            wall_s = time.perf_counter() - start
            if killer is not None:
                killer.cancel()
        usage = {}
        if os.path.exists(report):
            with open(report) as fh:
                usage = json.load(fh)
        self.rc = usage.get("exit_code", proc.returncode or 1)
        self.wall_s = usage.get("wall_s", wall_s)
        self.cpu_s = usage.get("cpu_s", 0.0)
        self.rss_mb = usage.get("maxrss_kb", 0) / 1024
        with open(out_path, "rb") as fh:
            self.out = fh.read()
        with open(err_path, "rb") as fh:
            self.err = fh.read()
        self.problems: list[str] = []


def _kill_group(pid: int):
    """Stop a job that overran the run, with every process it started."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    """One workload's inputs, set-up measurement and job loop."""

    def __init__(self, env: Env, workload: wl.Workload, seed: int, golden: dict):
        self.env = env
        self.w = workload
        self.seed = seed
        spec_text = wl.spec_for_seed(seed) if workload.uses_spec else None
        self.input = json.loads(spec_text)["name"] if spec_text else "fixed"
        self.args = self.job_args(env, workload, spec_text)
        self.golden = wl.lookup(golden, wl.golden_key(workload, spec_text))
        self.jobs: list[Job] = []
        self.traced: list[tuple[Job, dict]] = []
        self.setup_s: list[float] = []

    @staticmethod
    def job_args(env: Env, workload: wl.Workload, spec_text: str | None) -> list:
        """CLI arguments; a generated spec is written out and validated first."""
        if spec_text is None:
            return list(workload.args)
        spec = env.path(f"{workload.name}-{wl.sha(spec_text.encode())[:16]}.json")
        with open(spec, "w") as fh:
            fh.write(spec_text)
        wl.check_spec(spec, workload.group_order)
        return [spec if a == wl.SPEC else a for a in workload.args]

    def measure_setup(self):
        spec = [a for a in self.args if a.endswith(".json")]
        argv = [sys.executable, "-c", self.w.setup, *spec]
        Job(self.env, argv, "setup")         # compiles the bytecode cache
        for _ in range(SETUP_RUNS):
            job = Job(self.env, argv, "setup")
            if job.rc != 0:
                raise RuntimeError(f"{self.w.name}: set-up failed: {job.err.decode()}")
            self.setup_s.append(job.wall_s)

    def run_job(self):
        job = Job(self.env, cli_argv(self.args), self.w.name)
        job.problems = wl.check_job(self.w, job.rc, job.out, job.err, self.golden)
        self.jobs.append(job)

    def run_traced(self):
        trace_path = self.env.path(f"{self.w.name}-trace-{len(self.traced)}.json")
        argv = [sys.executable, os.path.join(wl.HERE, "tracer.py"), trace_path,
                str(len(self.traced)), "--", *self.args]
        job = Job(self.env, argv, self.w.name + "-traced")
        job.problems = wl.check_job(self.w, job.rc, job.out, job.err, self.golden)
        trace = {}
        if os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace = json.load(fh)
        else:
            job.problems.append("tracer wrote no trace")
        self.traced.append((job, trace))

    # -- results ---------------------------------------------------------

    def all_jobs(self) -> list[Job]:
        return self.jobs + [j for j, _ in self.traced]

    def end_to_end(self) -> dict:
        walls = [j.wall_s for j in self.jobs]
        return {
            "job_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (statistics.median(j.rss_mb for j in self.jobs), "MB"),
        }

    def per_layer(self) -> dict:
        per_job = [layer_metrics(trace, job) for job, trace in self.traced]
        out = {name: (statistics.median(m[name][0] for m in per_job), per_job[0][name][1])
               for name in per_job[0]}
        traced = statistics.median(j.wall_s for j, _ in self.traced)
        untraced = statistics.median(j.wall_s for j in self.jobs)
        out["trace.job_s"] = (traced, "s")
        out["trace.untraced_job_s"] = (untraced, "s")
        out["trace.overhead_s"] = (traced - untraced, "s")
        return out

    def report(self, trace: bool) -> dict:
        jobs = self.all_jobs()
        failed = [j for j in jobs if j.problems]
        metrics = self.per_layer() if trace else self.end_to_end()
        walls = sorted(j.wall_s for j in self.jobs)
        print(f"# {self.w.name}  seed={self.seed}  args: {' '.join(self.w.args)}  input: {self.input}")
        print(f"#   job_s samples (n={len(walls)}): "
              + " ".join(f"{t:.3f}" for t in walls)
              + f"; job_cpu_s median {statistics.median(j.cpu_s for j in self.jobs):.3f} s"
              + f"; setup_s samples (n={len(self.setup_s)})")
        for name, (value, unit) in metrics.items():
            print(f"{self.w.name:14s} {name:44s} {value:14.6g} {unit}")
        print(f"{self.w.name:14s} {'failed_frac':44s} {len(failed) / len(jobs):14.6g} "
              f"1 ({len(failed)}/{len(jobs)} jobs)")
        for j in failed:
            print(f"#   FAILED job: {'; '.join(j.problems)}")
        return {
            "correct": not failed,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def layer_metrics(trace: dict, job: Job) -> dict:
    """Per-layer metrics of one traced job, as {name: (value, unit)}."""
    calls = trace.get("calls", {})
    total = trace.get("total_s", {})
    obs = trace.get("observed", {})

    def s(fn):
        return (total.get(fn, 0.0), "s")

    def n(fn):
        return (calls.get(fn, 0), "count")

    def ratio(a, b):
        return (a / b if b else 0.0, "ratio")

    out = {
        "fields.field_make_s": s("fields.field_make"),
        "algebra.validate_s": s("algebra.validate_algebra"),
        "algebra.mul_calls": n("algebra.mul"),
        "algebra.mul_s": s("algebra.mul"),
        "algebra.invert_calls": n("algebra.invert"),
        "algebra.orbit_census_s": s("algebra.orbit_census"),
        "algebra.orbit_calls": n("algebra.orbit"),
        "algebra.orbit_members": (obs.get("orbit_members", 0), "count"),
        "algebra.space_size": (obs.get("space_size", 0), "count"),
        "algebra.orbit_members_per_space": ratio(obs.get("orbit_members", 0),
                                                 obs.get("space_size", 0)),
        "algebra.verify_closure_s": s("algebra._verify_closure"),
        "algebra.is_singular_s": s("algebra.is_singular"),
        "superclasses.partition_s": s("superclasses.superclass_partition"),
        "superclasses.partition_calls": n("superclasses.superclass_partition"),
        "superclasses.classify_s": s("superclasses.classify"),
        "superclasses.classes": (obs.get("classes", 0), "count"),
        "superclasses.conjugacy_classes_s": s("superclasses.conjugacy_classes"),
        "supercharacters.build_table_s": s("supercharacters.build_table"),
        "supercharacters.build_table_calls": n("supercharacters.build_table"),
        "supercharacters.induce_s": s("supercharacters.induce"),
        "supercharacters.stabilizer_s": s("supercharacters.stabilizer_data"),
        "supercharacters.restriction_s": s("supercharacters.restriction_check"),
        "supercharacters.n_supercharacter_calls": n("supercharacters.n_supercharacter"),
        "supercharacters.n_orbits": (obs.get("n_orbits", 0), "count"),
        "supercharacters.n_supercharacter_calls_per_orbit": ratio(
            calls.get("supercharacters.n_supercharacter", 0), obs.get("n_orbits", 0)),
        "supercharacters.axioms_s": s("supercharacters.axioms_report"),
        "supercharacters.inner_product_calls": n("supercharacters.inner_product"),
        "cyclo.mul_calls": n("cyclo.__mul__"),
        "cyclo.add_calls": n("cyclo.__add__"),
        "linalg.rref_calls": n("linalg.rref"),
        "linalg.rref_s": s("linalg.rref"),
        "triangular.closed_table_s": s("triangular.closed_table"),
        "triangular.brute_table_s": s("triangular.brute_table"),
        "triangular.compare_tables_s": s("triangular.compare_tables"),
        "cli.render_s": (total.get("cli._render_table", 0.0) + total.get("cli._write", 0.0), "s"),
        "cli.stdout_bytes": (len(job.out), "B"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (trace.get("self_s", {}).get(layer, 0.0), "s")
    return out


def run(env: Env, names: list, seed: int, seconds: float, trace: bool) -> dict:
    golden = wl.load_golden()
    smoke = smoke_checks(env, golden)
    benches = [Bench(env, WORKLOADS[name], seed, golden) for name in names]
    if not trace:
        for b in benches:
            b.measure_setup()
    # closed loop, one client: the next job starts when the previous one ends.
    # A round (one job per workload) starts only if it should end by about
    # `seconds`, so every run lasts about as long on any host.
    start = time.monotonic()
    rounds = []
    while not rounds or (time.monotonic() - start + statistics.median(rounds) / 2 < seconds
                         and time.monotonic() < env.deadline):
        round_start = time.monotonic()
        for b in benches:
            b.run_job()
            if trace:
                b.run_traced()
        rounds.append(time.monotonic() - round_start)
    results = {b.w.name: b.report(trace) for b in benches}
    for problem in smoke:
        print(f"# FAILED smoke check: {problem}")
    if smoke:
        for r in results.values():
            r["correct"] = False
    return results


def cli_argv(args) -> list:
    return [sys.executable, "-m", "supchar.cli", *args]


def bundled(env: Env):
    for name in wl.BUNDLED:
        yield name, os.path.join(env.src, "supchar", "data", name)


def smoke_checks(env: Env, golden: dict) -> list[str]:
    """Untimed `algebra --spec` runs on the bundled spec files."""
    problems = []
    for name, path in bundled(env):
        job = Job(env, cli_argv(["algebra", "--spec", path]), "smoke")
        problems += [f"{name}: {p}" for p in wl.check_job(
            None, job.rc, job.out, job.err, wl.lookup(golden, ("smoke", name)))]
    return problems


def capture_golden(env: Env):
    """Record the stdout hash of every job input the benchmark can generate."""
    import poset
    golden = {"smoke": {name: wl.sha(Job(env, cli_argv(["algebra", "--spec", path]), "smoke").out)
                        for name, path in bundled(env)}}
    for w in WORKLOADS.values():
        texts = [poset.spec_text(rel) for rel in poset.all_posets()] if w.uses_spec else [None]
        for text in texts:
            job = Job(env, cli_argv(Bench.job_args(env, w, text)), w.name)
            problems = wl.check_job(w, job.rc, job.out, job.err, wl.sha(job.out))
            if problems:
                raise SystemExit(f"{w.name}: {problems}")
            key = wl.golden_key(w, text)
            if len(key) == 1:
                golden[w.name] = wl.sha(job.out)
            else:
                golden.setdefault(w.name, {})[key[1]] = wl.sha(job.out)
            print(w.name, *key[1:], f"{job.wall_s:.2f} s", flush=True)
    with open(wl.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--capture-golden", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "supchar", "cli.py")):
        print("bench: run from the root of a supchar checkout (no src/supchar/cli.py here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.capture_golden:
        capture_golden(Env(root, limit_s=None))
        return 0
    env = Env(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = run(env, names, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
