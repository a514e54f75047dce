"""Run one `supchar` CLI job with every layer boundary traced.

    PYTHONPATH=src python3 bench/tracer.py OUT.json JOB_ID -- <supchar args>

The tracer wraps, from outside the package, each public module-level function
of the eight layer modules, a few private stage functions, and the hot methods
`AlgebraSpec.mul`, `AlgebraSpec.invert`, `CycloNumber.__mul__` and
`CycloNumber.__add__`.  Modules import by name, so every module binding of a
function is replaced, not only the one in the defining module.

A call records a span (name, start, end, parent span id, job id) for the
first SPAN_LIMIT calls of its function; later calls are only counted and
timed, so the ~10^6 `mul` calls of a job cost no memory.  Self time (a call's
duration minus the time of the traced calls it made) is summed per layer for
every call.  Spans are kept in memory and written to OUT.json when the job
ends, together with per-function totals, per-layer self times and the
observations below.
"""
from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter

LAYERS = ("fields", "cyclo", "linalg", "algebra", "superclasses",
          "supercharacters", "triangular", "cli")
# private functions that are stages of their own
PRIVATE = {"cli": ("_render_table", "_write", "_verify_checks"),
           "algebra": ("_verify_closure",)}
# hot methods: counted and timed, never given a span
METHODS = (("algebra", "AlgebraSpec", ("mul", "invert")),
           ("cyclo", "CycloNumber", ("__mul__", "__add__")))
# hot functions are likewise aggregate-only
NO_SPANS = {"linalg.rref"}
SPAN_LIMIT = 200


class Tracer:
    def __init__(self, job_id: int):
        self.job_id = job_id
        self.stack = [[0.0, 0.0, None]]     # [start, child time, span id]
        self.spans = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.observed = {"orbit_members": 0, "space_size": 0, "classes": 0,
                         "n_orbits": set()}

    def wrap(self, fn, name: str, layer: str, span_limit: int):
        stack = self.stack
        spans = self.spans
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        observe = OBSERVERS.get(name)
        calls[name] = 0
        total_s[name] = 0.0

        def traced(*args, **kwargs):
            n = calls[name] = calls[name] + 1
            sid = len(spans) if n <= span_limit else None
            if sid is not None:
                spans.append(None)
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                parent = stack[-1]
                parent[1] += dur
                self_s[layer] += dur - frame[1]
                total_s[name] += dur
                if sid is not None:
                    spans[sid] = (sid, name, frame[0], end, parent[2], self.job_id)
            if observe is not None:
                observe(self.observed, args, result)
            return result

        return traced

    def install(self):
        import supchar
        modules = {layer: importlib.import_module(f"supchar.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                limit = 0 if name in NO_SPANS else SPAN_LIMIT
                originals[obj] = self.wrap(obj, name, layer, limit)
        # rebind every module-level name that refers to a wrapped function
        for mod in [supchar, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    setattr(mod, attr, originals[obj])
        for layer, cls_name, names in METHODS:
            cls = getattr(modules[layer], cls_name)
            for attr in names:
                setattr(cls, attr, self.wrap(getattr(cls, attr), f"{layer}.{attr}", layer, 0))

    def dump(self, path: str, exit_code: int):
        obs = dict(self.observed, n_orbits=len(self.observed["n_orbits"]))
        with open(path, "w") as fh:
            json.dump({"job_id": self.job_id, "exit_code": exit_code,
                       "calls": self.calls, "total_s": self.total_s,
                       "self_s": self.self_s, "observed": obs,
                       "spans": [s for s in self.spans if s is not None]}, fh)


def _orbit(obs, args, result):
    obs["orbit_members"] += len(result.members)


def _census(obs, args, result):
    spec = args[0]
    obs["space_size"] += spec.field.q ** len(spec.radical_basis)


def _partition(obs, args, result):
    obs["classes"] = max(obs["classes"], len(result))


def _n_supercharacter(obs, args, result):
    obs["n_orbits"].add(tuple(args[1]))


OBSERVERS = {
    "algebra.orbit": _orbit,
    "algebra.orbit_census": _census,
    "superclasses.superclass_partition": _partition,
    "supercharacters.n_supercharacter": _n_supercharacter,
}


def main(argv: list[str]) -> int:
    out, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json JOB_ID -- <supchar args>")
    tracer = Tracer(int(job_id))
    tracer.install()
    from supchar import cli
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
