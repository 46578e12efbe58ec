"""Spans around llct's public functions, recorded from outside the program.

Tracer.install() replaces each traced function wherever a caller looks it
up: the defining module, every llct module that imported the name (for
example `oracle.charpoly` as well as `linalg.charpoly`), and class
attributes for methods.  Each call then records a span (name, start,
end, parent span, operation id) and adds to the name's self time (its
duration minus the part its traced children cover) and call count.
uninstall() puts the original objects back.
"""

import json
import sys
from time import perf_counter

# (module, attribute path, span name)
TARGETS = (
    ("llct.oracle", "realize", "oracle.realize"),
    ("llct.oracle", "classify", "oracle.classify"),
    ("llct.oracle", "tensor_matrix", "oracle.tensor_matrix"),
    ("llct.oracle", "MatrixWD.make", "oracle.MatrixWD.make"),
    ("llct.linalg", "charpoly", "linalg.charpoly"),
    ("llct.linalg", "rational_roots", "linalg.rational_roots"),
    ("llct.linalg", "kernel", "linalg.kernel"),
    ("llct.linalg", "subspace_dim", "linalg.subspace_dim"),
    ("llct.linalg", "poly_gcd_f", "linalg.poly_gcd_f"),
    ("llct.linalg", "poly_quot_f", "linalg.poly_quot_f"),
    ("llct.linalg", "monomial_roots_fe", "linalg.monomial_roots_fe"),
    ("llct.exact", "Coef.__mul__", "exact.Coef.mul"),
    ("llct.exact", "Coef.__add__", "exact.Coef.add"),
    ("llct.exact", "TruncSeriesT.mul_poly", "exact.TruncSeriesT.mul_poly"),
    ("llct.exact", "PolyT.from_roots", "exact.PolyT.from_roots"),
    ("llct.zeta", "homogeneous_table", "zeta.homogeneous_table"),
    ("llct.zeta", "schur_from_table", "zeta.schur_from_table"),
    ("llct.zeta", "zeta_gl_n_gl1", "zeta.zeta_gl_n_gl1"),
    ("llct.zeta", "zeta_gl_n_gl_n", "zeta.zeta_gl_n_gl_n"),
    ("llct.factors", "l_inverse", "factors.l_inverse"),
    ("llct.factors", "gamma", "factors.gamma"),
    ("llct.factors", "epsilon", "factors.epsilon"),
    ("llct.factors", "sign_constancy_check", "factors.sign_constancy_check"),
    ("llct.wd", "tensor", "wd.tensor"),
    ("llct.wd", "family_jordan_generic", "wd.family_jordan_generic"),
    ("llct.wd", "family_jordan_at", "wd.family_jordan_at"),
    ("llct.partitions", "jordan_type_matrix", "partitions.jordan_type_matrix"),
    ("llct.dsl", "parse_wd", "dsl.parse_wd"),
    ("llct.points", "extended_point_of", "points.extended_point_of"),
    ("llct.segments", "llc_gen", "segments.llc_gen"),
    ("llct.cli", "main", "cli.main"),
)

# Spans kept for the trace file; self times and counts cover every call.
MAX_SPANS = 100_000

OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP] + [name for _m, _a, name in TARGETS]
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.next_id = 0
        self.op_id = -1
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _enter(self):
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, idx, frame, t0, t1):
        self.stack.pop()
        d = t1 - t0
        self.self_s[idx] += d - frame[1]
        self.calls[idx] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += d
        if len(self.spans) < MAX_SPANS:
            self.spans.append((idx, t0, t1, parent[0] if parent else -1,
                               self.op_id))
        else:
            self.dropped += 1

    def op(self, op_id, fn):
        """Run one operation under a root span."""
        self.op_id = op_id
        frame = self._enter()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._exit(0, frame, t0, perf_counter())

    def _wrap(self, fn, idx):
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, frame, t0, perf_counter())
        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        llct_modules = [m for name, m in list(sys.modules.items())
                        if name == "llct" or name.startswith("llct.")]
        for idx, (modname, path, _name) in enumerate(TARGETS, start=1):
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            traced = self._wrap(fn, idx)
            if outer:
                # class attribute: every alias in the class (e.g. __rmul__)
                for key, val in list(vars(owner).items()):
                    if val is raw:
                        new = staticmethod(traced) if isinstance(raw, staticmethod) else traced
                        self._patches.append((owner, key, val))
                        setattr(owner, key, new)
                continue
            for mod in llct_modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, val))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches = []

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            if idx == 0:
                continue
            out[f"{name}.ms"] = self.self_s[idx] * 1000.0
            out[f"{name}.calls"] = self.calls[idx]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans,
                       "dropped": self.dropped}, fh)
