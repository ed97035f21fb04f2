"""Span tracing for the liesupp benchmark, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules with
a timing wrapper, and every public method of the classes they define.  A name
bound with `from .x import y` is replaced in every module that holds it, so
`classify.build_lattice`, `cli.build_lattice` and `lattice.build_lattice` all
report as `lattice.build_lattice`.  `Tracer.uninstall()` puts every original
back.  Nothing under `src/` is edited.

Span names are `<module>.<function>`, `<module>.<Class>.<method>` and
`<module>.<Class>` for a constructor.  Methods of `LieAlgebra` are named
`liealg.<method>` (so `LieAlgebra.bracket` is `liealg.bracket`), and every
per-algebra statement checker in `census.CHECKERS` is `census.checker`.

Every call updates the per-name totals: calls, total time, self time (its
duration minus the time its child spans cover) and exceptions.  Calls of the
hot primitives in `HOT` are not kept as spans; each one is added, as a count
and a total time, to its nearest recorded ancestor.  Every other call is kept
in memory as a span (id, name, start, end, parent id, op id, hot aggregates)
up to `span_limit` spans, and `write_spans` writes them out when the run ends.
"""
from __future__ import annotations

import inspect
import json
import time
from typing import Dict, List

MODULES = ("gfp", "subspace", "liealg", "lattice", "classify", "census", "formats", "cli")

# High-volume primitives, aggregated per parent span instead of recorded.
HOT = frozenset(
    {
        "subspace.rref",
        "subspace.Subspace.reduce",
        "subspace.Subspace.member",
        "subspace.Subspace.contains",
        "subspace.Subspace.span",
        "subspace.Subspace.sum",
        "subspace.Subspace.intersect",
        "subspace.Subspace.zero",
        "subspace.Subspace.full",
        "subspace.Subspace.sort_key",
        "liealg.bracket",
        "liealg.basis_vector",
    }
)

# Analyzer memo lookups and the function each one stands in front of.
ANALYZER_UNDERLYING = {
    "frattini": "lattice.frattini",
    "c_supplemented": "classify.is_c_supplemented_algebra",
    "completely_factorisable": "classify.is_completely_factorisable",
    "supersolvable": "lattice.is_supersolvable",
    "elementary": "classify.is_elementary",
    "e_algebra": "classify.is_E_algebra",
    "radical": "lattice.radical",
    "simple": "lattice.is_simple",
    "semisimple_shape": "classify.check_semisimple_shape",
    "main_decomposition": "classify.check_main_decomposition",
    "canonical": "classify.canonical_form_small",
}

# Frame layout: a list, for speed.
_NAME, _ID, _START, _CHILD, _BENEATH, _HOT, _AGG, _DIRECT = range(8)


class Tracer:
    def __init__(self, package, op_boundaries=(), span_limit: int = 500_000):
        self.package = package
        self.op_boundaries = frozenset(op_boundaries)
        self.span_limit = span_limit
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s, raised]
        self.counters: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.op_id = 0
        self._next_id = 1
        self._root = ["<root>", 0, 0.0, 0.0, 0, None, None, None]
        self._stack = [self._root]
        self._restore: List[tuple] = []
        self._after_hooks = {
            "subspace.echelon_arrays": self._echelon_rows,
            "lattice.build_lattice": self._lattice_subspaces,
        }
        self._generator_hooks = {"census.generate": self._candidates}

    # -- frames -------------------------------------------------------------

    def _count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _stat(self, name: str) -> List[float]:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        return st

    def _enter(self, name: str, hot: bool):
        stack = self._stack
        parent = stack[-1]
        if name in self.op_boundaries:
            self.op_id += 1
        if hot:
            # hot frames carry the recorded ancestor their time is added to
            agg = parent[_AGG] if parent[_AGG] is not None else parent
            frame = [name, 0, 0.0, 0.0, 0, None, agg, None]
        else:
            lookup = {} if name.startswith("classify.Analyzer.") else None
            frame = [name, self._next_id, 0.0, 0.0, 0, None, None, lookup]
            self._next_id += 1
        stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def _exit(self, frame, hot: bool, calls: int, raised: bool):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        name = frame[_NAME]
        dur = end - frame[_START]
        parent[_CHILD] += dur
        parent[_BENEATH] += frame[_BENEATH] + 1
        direct = parent[_DIRECT]
        if direct is not None:
            direct[name] = direct.get(name, 0) + 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += calls
        st[1] += dur
        st[2] += dur - frame[_CHILD]
        if raised:
            st[3] += 1
        if hot:
            agg = frame[_AGG]
            if agg[_HOT] is None:
                agg[_HOT] = {}
            slot = agg[_HOT].get(name)
            if slot is None:
                agg[_HOT][name] = [1, dur]
            else:
                slot[0] += 1
                slot[1] += dur
            return
        if name.startswith("classify.Analyzer."):
            self._lookup_done(name[len("classify.Analyzer."):], frame)
        if name == "lattice.build_lattice" and parent[_NAME] == "classify.Analyzer.lattice":
            self._count("lattice.build_lattice.under_analyzer")
        if len(self.spans) < self.span_limit:
            # a span started inside a hot primitive hangs off that primitive's
            # recorded ancestor; 0 is the root
            pid = parent[_ID] if parent[_AGG] is None else parent[_AGG][_ID]
            self.spans.append(
                (frame[_ID], name, frame[_START], end, pid, self.op_id, frame[_HOT])
            )
        else:
            self.spans_dropped += 1

    def _lookup_done(self, method: str, frame):
        underlying = ANALYZER_UNDERLYING.get(method)
        if underlying is None:
            return
        self._count("classify.Analyzer.lookups")
        direct = frame[_DIRECT]
        if method == "supersolvable":
            # the Analyzer keeps this memo inside is_supersolvable; a hit is a
            # call that returned without doing any traced work
            hit = frame[_BENEATH] <= 1
        else:
            hit = underlying not in direct
        if hit:
            self._count("classify.Analyzer.hits")

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, orig, name: str):
        if inspect.isgeneratorfunction(orig):
            return self._wrap_generator(orig, name)
        hot = name in HOT
        enter, exit_ = self._enter, self._exit
        after = self._after_hooks.get(name)

        def wrapper(*args, **kwargs):
            frame = enter(name, hot)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                exit_(frame, hot, 1, True)
                self._on_raise(name, exc)
                raise
            exit_(frame, hot, 1, False)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        wrapper.perfbench_span = name
        return wrapper

    def _wrap_generator(self, orig, name: str):
        hot = name in HOT
        tracer = self
        on_create = self._generator_hooks.get(name)

        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            tracer._stat(name)[0] += 1
            if on_create is not None:
                on_create(args, kwargs)
            return tracer._traced_iter(it, name, hot)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.perfbench_span = name
        return wrapper

    def _traced_iter(self, it, name: str, hot: bool):
        # Each resumption of the generator is one segment of the same call;
        # only the creation counted as a call.
        while True:
            frame = self._enter(name, hot)
            try:
                value = next(it)
            except StopIteration:
                self._exit(frame, hot, 0, False)
                return
            except BaseException:
                self._exit(frame, hot, 0, True)
                raise
            self._exit(frame, hot, 0, False)
            if name == "census.generate":
                self._count("census.generate.accepted")
            yield value

    def _on_raise(self, name: str, exc: BaseException):
        if name == "liealg.LieAlgebra" and type(exc).__name__ == "JacobiError":
            self._count("liealg.jacobi_rejects")

    # counts taken from a call's result or arguments
    def _echelon_rows(self, result, args):
        self._count("subspace.echelon_arrays.rows", int(result[0].shape[0]))

    def _lattice_subspaces(self, result, args):
        self._count("lattice.build_lattice.subspaces", int(result.subspace_count))

    def _candidates(self, args, kwargs):
        # candidate_count(spec), computed here so that no traced call is made
        spec = args[0] if args else kwargs["spec"]
        if spec.mode == "exhaustive":
            n_cand = sum(spec.p ** (n * n * (n - 1) // 2) for n in range(1, spec.max_dim + 1))
        else:
            n_cand = spec.count
        self._count("census.generate.candidates", n_cand)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        import importlib

        mods = {m: importlib.import_module(f"{self.package}.{m}") for m in MODULES}
        wrappers: Dict[int, object] = {}  # id(original function) -> wrapper
        for modname, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrappers[id(value)] = self._wrap_function(value, f"{modname}.{attr}")
                elif (
                    inspect.isclass(value)
                    and value.__module__ == mod.__name__
                    and not issubclass(value, BaseException)
                ):
                    self._wrap_class(modname, value)
        # rebind every module-level name bound to a wrapped function
        holders = list(mods.values()) + [importlib.import_module(self.package)]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._restore.append((holder, attr, value, "attr"))
                    setattr(holder, attr, wrappers[id(value)])
        checkers = mods["census"].CHECKERS
        for key, fn in list(checkers.items()):
            self._restore.append((checkers, key, fn, "item"))
            checkers[key] = self._wrap_function(fn, "census.checker")
        return self

    def _wrap_class(self, modname: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and cls.__name__ not in ("PrimeField", "LieAlgebra"):
                # value-object constructors are attributed to their caller
                continue
            if attr == "__init__":
                name = f"{modname}.{cls.__name__}"
            elif cls.__name__ == "LieAlgebra":
                name = f"liealg.{attr}"
            else:
                name = f"{modname}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap_function(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap_function(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap_function(raw, name)
            else:
                continue  # properties, constants, slots
            self._restore.append((cls, attr, raw, "attr"))
            setattr(cls, attr, new)

    def uninstall(self):
        for holder, key, original, kind in reversed(self._restore):
            if kind == "item":
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def begin_call(self):
        """Start a new op id for a top-level call."""
        self.op_id += 1

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return int(st[0]) if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return float(st[2]) if st else 0.0

    def module_self_s(self) -> Dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            mod = name.split(".", 1)[0]
            if mod in out:
                out[mod] += st[2]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, hot in self.spans:
                rec = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                if hot:
                    rec["hot"] = {k: {"calls": v[0], "total_s": v[1]} for k, v in hot.items()}
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def wrapped_leftovers(lib) -> List[str]:
    """Names in the traced modules still bound to a tracer wrapper."""
    left = []
    for modname in MODULES:
        mod = getattr(lib, modname)
        holders = [(modname, vars(mod))]
        holders += [
            (f"{modname}.{k}", vars(v))
            for k, v in vars(mod).items()
            if inspect.isclass(v) and v.__module__ == mod.__name__
        ]
        holders.append((f"{modname}.CHECKERS", getattr(mod, "CHECKERS", {})))
        for where, namespace in holders:
            for attr, value in namespace.items():
                fn = getattr(value, "__func__", value)
                if hasattr(fn, "perfbench_span"):
                    left.append(f"{where}.{attr}")
    return left
