"""Spans recorded from outside the library, at the call sites of its layers.

``install`` replaces, in each opalab module, the module-level names bound to
public functions of the layer modules by wrappers that record one span per
call: name, start, end, parent span and a few fields read off the arguments
or the result.  Calls resolve through the caller's module globals, so a
wrapper sees every call made under that name, also calls inside the defining
module (opa_solve -> gram_matrix).  The serializer's own recursive calls of
``to_jsonable`` and ``dumps`` are left unwrapped, so its millions of inner
calls cost nothing; the CLI's calls of them are spans.  scipy's ``minimize``
as bound in ``opalab.zerofree`` is the needle fit.

Spans stay in memory; the child writes them out when its batch ends, and
``aggregate`` turns them into the per-layer metrics.
"""

import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("opa", "steer", "zerofree", "series", "rudin", "blaschke", "spaces", "serialize")
CALLERS = LAYERS + ("cli", "boundary")
UNWRAPPED = {("serialize", "to_jsonable"), ("serialize", "dumps")}


class Recorder:
    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, fields, error]
        self._stack = []

    def call(self, name, fn, fields, args, kwargs):
        sid = len(self.spans)
        span = [sid, name, self._stack[-1] if self._stack else None, 0.0, 0.0, {}, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4] = time.perf_counter()
            span[6] = type(exc).__name__
            raise
        else:
            span[4] = time.perf_counter()
            if fields is not None:
                span[5] = fields(args, kwargs, result)
            return result
        finally:
            self._stack.pop()


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _exp_order(a, kw, r):
    n = _arg(a, kw, 1, "N")
    return {"order": int(n) if n is not None else len(a[0].coeffs) - 1}


# Fields read per call, keyed by span name.
FIELDS = {
    "opa.gram_matrix": lambda a, kw, r: {"bytes": 16 * (int(_arg(a, kw, 1, "n")) + 1) ** 2},
    "opa.opa_solve": lambda a, kw, r: {"order": int(_arg(a, kw, 1, "n"))},
    "steer.opa_search_m": lambda a, kw, r: {"m": int(r)},
    "zerofree.needle_fit": lambda a, kw, r: {"nit": int(r.nit), "nfev": int(r.nfev)},
    "series.exp_series": _exp_order,
    "series.evaluate": lambda a, kw, r: {"points": int(np.size(_arg(a, kw, 1, "z")))},
    "series.zero_free_on_closed_disc": lambda a, kw, r: {"grid": int(r.grid_size)},
    "rudin.hardy_rudin": lambda a, kw, r: {"h_degree": len(r.h.coeffs) - 1},
}


def _wrap(recorder, name, fn):
    fields = FIELDS.get(name)

    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, fields, args, kwargs)

    return wrapper


def install(recorder):
    """Wrap every layer function at its call sites; returns the span names bound."""
    bound = set()
    for caller in CALLERS:
        module = sys.modules["opalab." + caller]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            owner = getattr(value, "__module__", "") or ""
            layer = owner[len("opalab."):] if owner.startswith("opalab.") else None
            if layer not in LAYERS or (caller == layer and (layer, attr) in UNWRAPPED):
                continue
            name = "%s.%s" % (layer, attr)
            setattr(module, attr, _wrap(recorder, name, value))
            bound.add(name)
    zerofree = sys.modules["opalab.zerofree"]
    zerofree.minimize = _wrap(recorder, "zerofree.needle_fit", zerofree.minimize)
    bound.add("zerofree.needle_fit")
    return bound


def aggregate(spans):
    """Per-layer numbers from one batch's spans.

    ``<name>.s`` sums inclusive time, ``<name>.self_s`` the time not covered
    by child spans, ``<name>.calls`` counts calls; summed fields come out as
    ``<name>.<field>``.
    """
    children = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append(s)
    out = defaultdict(float)
    for s in spans:
        sid, name, parent, start, end, fields, _ = s
        dur = end - start
        out[name + ".s"] += dur
        out[name + ".self_s"] += dur - sum(c[4] - c[3] for c in children[sid])
        out[name + ".calls"] += 1
        for key, val in fields.items():
            if key == "grid":
                out[name + ".grid_max"] = max(out[name + ".grid_max"], val)
            else:
                out["%s.%s" % (name, {"order": "order_sum"}.get(key, key))] += val

    probes = rounds = useful = 0
    for s in spans:
        kids = children[s[0]]
        if s[1] == "steer.opa_search_m":
            probes += sum(1 for c in kids if c[1] == "opa.opa_solve")
        elif s[1] == "steer.steer":
            rounds += sum(1 for c in kids if c[1] == "zerofree.simultaneous_zero_free")
        elif s[1] == "zerofree.simultaneous_zero_free" and s[6] is None:
            useful += _last_fit_run(kids)
    out["steer.opa_search_m.probes"] = probes
    out["steer.delta_rounds"] = rounds
    out["steer.m"] = out.pop("steer.opa_search_m.m", 0.0)
    fits = out["zerofree.needle_fit.calls"]
    out["zerofree.useful_fit_frac"] = useful / fits if fits else 0.0
    top = [s for s in spans if s[2] is None]
    out["trace.top_s"] = sum(s[4] - s[3] for s in top)
    out["trace.layer_s"] = sum(c[4] - c[3] for s in top for c in children[s[0]])
    return dict(out)


def _last_fit_run(kids):
    """Length of the last run of consecutive needle fits among a call's children.

    One attempt fits its needles back to back and then assembles exp(F), so
    on a call that returned, the last run is the successful attempt.
    """
    last = run = 0
    for c in kids:
        if c[1] == "zerofree.needle_fit":
            run += 1
            last = run
        else:
            run = 0
    return last
