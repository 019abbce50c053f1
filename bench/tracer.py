"""In-memory span tracer that wraps brokermkt's public functions from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in every
``brokermkt`` module attribute that refers to it (``model.expected_profit``
and ``cli.expected_profit`` alike), and ``uninstall`` puts the originals
back.  Nothing in the library changes.

A span records name, start, end, parent and op id, plus the time its direct
children cover; self time is the duration minus that cover.  Profile
enumeration is a generator whose work interleaves with its consumer, so it
is not a span: the time spent inside each ``next()`` and the number of
profiles yielded are charged to the span that consumed them (and count as
covered time there).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "brokermkt"

SPANS = (
    "instances.load_instance",
    "instances.generate_files",
    "model.expected_profit",
    "model.monte_carlo_profit",
    "dists.monopoly_price",
    "mechanisms.run_it",
    "mechanisms.run_bvcg",
    "mechanisms.run_1la",
    "reduction.convert",
    "reduction.virtual_costs",
    "oracle.check_dsic",
    "oracle.check_ir",
    "oracle.check_feasibility",
    "oracle.check_cost_monotone",
    "oracle.build_lp",
    "oracle.solve_lp",
    "oracle.opt_lp",
    "oracle.two_sided_opt_bounds",
    "oracle.copies_opt",
    "duality.interim_form",
    "duality.compute_terms",
    "duality.compute_r",
    "duality.median_bound_all",
)
GENERATORS = ("model.enumerate_profiles",)
OP_SPAN = "cli.main"

# lru caches read through cache_info(); a function without one counts zero.
VIRTUAL_CACHES = ("dists.buyer_virtual", "dists.seller_virtual")
ENTRY_FEE_CACHE = "mechanisms.entry_fee"


def _lp_shape(prog) -> dict:
    A = prog.A
    if hasattr(A, "nnz"):                      # scipy.sparse matrix
        nnz = int(A.nnz)
        nbytes = sum(int(getattr(A, k).nbytes) for k in ("data", "indices", "indptr")
                     if hasattr(A, k))
    else:
        nnz = int(np.count_nonzero(A))
        nbytes = int(A.nbytes)
    rows, cols = A.shape
    return {"rows": int(rows), "cols": int(cols), "nnz": nnz, "nbytes": nbytes}


def _post_build_lp(args, kwargs, result) -> dict:
    instance = args[0] if args else kwargs["instance"]
    return {**_lp_shape(result), "costs": tuple(instance.costs)}


POST = {
    "model.monte_carlo_profit": lambda a, k, r: {"trials": int(r.trials)},
    "oracle.build_lp": _post_build_lp,
    "oracle.solve_lp": lambda a, k, r: {"residual": float(r.residual)},
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def resolve(qualname: str):
    module, attr = qualname.rsplit(".", 1)
    return getattr(sys.modules[f"{PACKAGE}.{module}"], attr)


def clear_caches() -> None:
    """Empty every lru cache in the package so each pass starts cold."""
    for module in package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def cache_counts(qualnames) -> tuple[int, int]:
    hits = misses = 0
    for q in qualnames:
        info = getattr(resolve(q), "cache_info", None)
        if info is not None:
            ci = info()
            hits, misses = hits + ci.hits, misses + ci.misses
    return hits, misses


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.covered = array("d")
        self.enum_n = array("q")
        self.enum_s = array("d")
        self.extras: dict[int, dict] = {}
        self.stack = [-1]
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------
    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.covered.append(0.0)
        self.enum_n.append(0)
        self.enum_s.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self.stack.pop()
        parent = self.stack[-1]
        if parent >= 0:
            self.covered[parent] += t - self.start[idx]

    def _span(self, qualname: str, fn):
        nid = self.name_id(qualname)
        post = POST.get(qualname)

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if post is not None:
                self.extras[idx] = post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._charge(perf_counter() - t0, 0)
                    return
                self._charge(perf_counter() - t0, 1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _charge(self, dt: float, n: int) -> None:
        top = self.stack[-1]
        if top >= 0:
            self.enum_n[top] += n
            self.enum_s[top] += dt
            self.covered[top] += dt

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = package_modules()
        for qualname in SPANS + GENERATORS:
            original = resolve(qualname)
            if qualname in GENERATORS:
                wrapper = self._generator(original)
            else:
                wrapper = self._span(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            covered=np.asarray(self.covered), enum_n=np.asarray(self.enum_n),
            enum_s=np.asarray(self.enum_s),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, op_lo: int, op_hi: int, caches: dict) -> dict:
    """Per-layer figures over the spans of ops ``op_lo <= op < op_hi``.

    ``caches`` holds the pass's lru counts: {"virtual": (hits, misses),
    "entry_fee": (hits, misses)}.
    """
    name = np.asarray(tr.name)
    op = np.asarray(tr.op)
    parent = np.asarray(tr.parent)
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    self_t = dur - np.asarray(tr.covered)
    enum_n = np.asarray(tr.enum_n)
    enum_s = np.asarray(tr.enum_s)
    sel = (op >= op_lo) & (op < op_hi)
    ids = {n: i for i, n in enumerate(tr.names)}

    def is_(q):
        return sel & (name == ids.get(q, -2))

    def total(q, arr=dur):
        return float(arr[is_(q)].sum())

    def count(q):
        return int(is_(q).sum())

    def parent_is(mask, q):
        p = parent[mask]
        return int(((p >= 0) & (name[np.maximum(p, 0)] == ids.get(q, -2))).sum())

    # Spans inside a checker: propagate from parents until nothing changes
    # (one round per nesting level).
    check_ids = [ids[q] for q in ("oracle.check_dsic", "oracle.check_ir",
                                  "oracle.check_feasibility",
                                  "oracle.check_cost_monotone") if q in ids]
    under_check = np.isin(name, check_ids)
    has_parent = parent >= 0
    while True:
        grown = under_check | (has_parent & under_check[np.maximum(parent, 0)])
        if (grown == under_check).all():
            break
        under_check = grown
    runs = {m: is_(f"mechanisms.run_{m}") for m in ("it", "bvcg", "1la")}
    all_runs = runs["it"] | runs["bvcg"] | runs["1la"]
    check_profiles = int(enum_n[sel & under_check].sum())

    def extras(q):             # spans whose call returned
        return [(int(op[i]), tr.extras[i]) for i in np.flatnonzero(is_(q)) if i in tr.extras]

    lps = [lp for _, lp in extras("oracle.build_lp")]
    residuals = [sol["residual"] for _, sol in extras("oracle.solve_lp")]
    distinct_costs = {(o, lp["costs"]) for o, lp in extras("oracle.build_lp")}
    lookups = parent_is(is_("reduction.virtual_costs"), "reduction.convert")
    base_runs = parent_is(all_runs, "reduction.convert")
    vh, vm = caches["virtual"]
    eh, em = caches["entry_fee"]

    out = {
        "instances.load_s": total("instances.load_instance"),
        "dists.virtual_hit_ratio": _ratio(vh, vh + vm),
        "dists.virtual_calls": vh + vm,
        "dists.monopoly_price_calls": count("dists.monopoly_price"),
        "dists.monopoly_price_s": total("dists.monopoly_price"),
        "model.profiles_enumerated": int(enum_n[sel].sum()),
        "model.enumerate_s": float(enum_s[sel].sum()),
        "model.profit_self_s": total("model.expected_profit", self_t),
        "model.mc_s": total("model.monte_carlo_profit"),
        "model.mc_trials": sum(mc["trials"] for _, mc in extras("model.monte_carlo_profit")),
    }
    for m, mask in runs.items():
        out[f"mechanisms.runs.{m}"] = int(mask.sum())
    for m, mask in runs.items():
        out[f"mechanisms.run_s.{m}"] = float(dur[mask].sum())
    out.update({
        "mechanisms.entry_fee_hit_ratio": _ratio(eh, eh + em),
        "mechanisms.entry_fee_calls": eh + em,
        "reduction.convert_calls": count("reduction.convert"),
        "reduction.convert_self_s": total("reduction.convert", self_t),
        "reduction.memo_hit_ratio": 1.0 - _ratio(base_runs, lookups) if lookups else 0.0,
        "reduction.memo_lookups": lookups,
        "oracle.check_s.dsic": total("oracle.check_dsic"),
        "oracle.check_s.ir": total("oracle.check_ir"),
        "oracle.check_s.feasible": total("oracle.check_feasibility"),
        "oracle.check_s.cost_monotone": total("oracle.check_cost_monotone"),
        "oracle.check_runs_per_profile": _ratio(int((all_runs & under_check).sum()),
                                                check_profiles),
        "oracle.check_profiles": check_profiles,
        "oracle.lp_build_s": total("oracle.build_lp"),
        "oracle.lp_solve_s": total("oracle.solve_lp"),
        "oracle.lp_count": len(lps),
        "oracle.lp_rows": sum(lp["rows"] for lp in lps),
        "oracle.lp_cols": sum(lp["cols"] for lp in lps),
        "oracle.lp_nnz": sum(lp["nnz"] for lp in lps),
        "oracle.lp_dense_mb": max((lp["nbytes"] for lp in lps), default=0) / 2**20,
        "oracle.lp_residual_max": max(residuals, default=0.0),
        "oracle.lp_distinct_cost_ratio": _ratio(len(distinct_costs), len(lps)),
        "duality.interim_s": total("duality.interim_form"),
        "duality.terms_s": total("duality.compute_terms"),
        "duality.r_s": total("duality.compute_r"),
        "duality.median_s": total("duality.median_bound_all"),
        "duality.compute_r_calls": count("duality.compute_r"),
        "cli.self_s": total(OP_SPAN, self_t),
    })
    return out


def span_seconds(tr: Tracer, qualname: str, lo: int, hi: int) -> float:
    """Total duration of ``qualname`` spans with index in [lo, hi)."""
    nid = tr._ids.get(qualname, -2)
    total = 0.0
    for i in range(lo, hi):
        if tr.name[i] == nid:
            total += tr.end[i] - tr.start[i]
    return total
