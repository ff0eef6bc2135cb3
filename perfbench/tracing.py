"""Per-layer tracing of one `metacont run`, from outside the package.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record a span (name, parent span, start, end).  A function is replaced
at every name that binds it in a loaded `metacont` module, so a caller that
imported it by name (`from .diffops import leray_project`) is traced as well
as one that looks it up on its module.  Transforms are counted at the
`scipy.fft` entry points that `metacont.fields` calls, rfft included.
`ScalarField` constructions are counted, not timed.  Spans stay in memory;
`summary()` turns them into the per-layer metrics once the run is over.

A layer's self time is its span's duration minus the time covered by the
spans it directly caused.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import scipy.fft

FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn",
           "ihfft", "ihfft2", "ihfftn")
INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn",
           "hfft", "hfft2", "hfftn")

# (span name, defining module, function name); the RHS functions are those
# of the systems the workloads step
LAYER_FUNCTIONS = (
    ("fields.write_snapshot", "metacont.fields", "write_snapshot"),
    ("diffops.leray_project", "metacont.diffops", "leray_project"),
    ("dynamics.step", "metacont.dynamics", "step"),
    ("dynamics.rhs", "metacont.dynamics", "rhs_fi_incompressible"),
    ("dynamics.rhs", "metacont.dynamics", "rhs_compressible"),
    ("emlaws.fi_report", "metacont.emlaws", "fi_report"),
    ("emlaws.write_reports", "metacont.emlaws", "write_reports_ndjson"),
    ("emlaws.write_reports", "metacont.emlaws", "write_reports_csv"),
    ("scenarios.generate", "metacont.scenarios", "generate"),
    ("scenarios.measure_wave", "metacont.scenarios", "measure_wave"),
    ("cli.run", "metacont.cli", "run"),
)

_FORWARD_SPAN = "fields.transform_forward"
_INVERSE_SPAN = "fields.transform_inverse"
_TRANSFORMS = (_FORWARD_SPAN, _INVERSE_SPAN)


class Tracer:
    """Spans and counts of one traced run; install, run, uninstall, summary."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end]
        self.stack: list[int] = []
        self.transform_bytes = 0         # computed: input plus output nbytes
        self.scalar_fields = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_bytes(self, args, result):
        self.transform_bytes += args[0].nbytes + result.nbytes

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Rebind `original` to `new` in scipy.fft and every metacont module."""
        modules = [scipy.fft] + [m for n, m in sorted(sys.modules.items())
                                 if n == "metacont" or n.startswith("metacont.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self) -> None:
        for names, span in ((FORWARD, _FORWARD_SPAN), (INVERSE, _INVERSE_SPAN)):
            for fname in names:
                fn = getattr(scipy.fft, fname, None)
                if fn is not None:
                    self._replace_everywhere(
                        fn, self._span(span, fn, self._count_bytes))
        for span, module_name, fname in LAYER_FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), fname, None)
            if fn is not None:
                self._replace_everywhere(fn, self._span(span, fn))

        scalar_field = sys.modules["metacont.fields"].ScalarField
        init = scalar_field.__init__

        def counted_init(obj, *args, **kwargs):
            self.scalar_fields += 1
            init(obj, *args, **kwargs)

        self._replace(scalar_field, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- metrics -----------------------------------------------------------

    def summary(self, out_dir) -> dict:
        """Per-layer metrics plus the exact counts they derive from.

        Transform and ScalarField counts are whole-run totals (law reports
        and the wave measurement included) divided by the number of steps;
        RHS and Leray counts include only calls made inside a step.
        """
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        step_of = [-1] * n       # enclosing dynamics.step span, or -1
        report_of = [-1] * n     # enclosing emlaws.fi_report span, or -1
        for i, (name, parent, start, end) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                step_of[i], report_of[i] = step_of[parent], report_of[parent]
            if name == "dynamics.step":
                step_of[i] = i
            elif name == "emlaws.fi_report":
                report_of[i] = i

        def durations(name, inside_step=False):
            return [s[3] - s[2] for i, s in enumerate(spans) if s[0] == name
                    and (not inside_step or step_of[i] >= 0)]

        def median_ms(values):
            return 1e3 * statistics.median(values) if values else 0.0

        run = durations("cli.run")
        if len(run) != 1:
            raise RuntimeError(f"expected one cli.run span, got {len(run)}")
        run_s = run[0]
        run_index = next(i for i, s in enumerate(spans) if s[0] == "cli.run")
        steps = durations("dynamics.step")
        n_steps = len(steps)
        transforms = [s[3] - s[2] for s in spans if s[0] in _TRANSFORMS]
        rhs_in_steps = [i for i, s in enumerate(spans)
                        if s[0] == "dynamics.rhs" and step_of[i] >= 0]
        rhs_self = sum(spans[i][3] - spans[i][2] - child_time[i] for i in rhs_in_steps)
        reports = durations("emlaws.fi_report")
        files = [p for p in Path(out_dir).rglob("*") if p.is_file()]

        counts = {
            "steps": n_steps,
            "transforms_forward": sum(s[0] == _FORWARD_SPAN for s in spans),
            "transforms_inverse": sum(s[0] == _INVERSE_SPAN for s in spans),
            "transform_bytes": self.transform_bytes,
            "scalar_fields": self.scalar_fields,
            "rhs_in_steps": len(rhs_in_steps),
            "leray_in_steps": len(durations("diffops.leray_project", True)),
            "fi_reports": len(reports),
            "fi_report_transforms": sum(
                s[0] in _TRANSFORMS and report_of[i] >= 0
                for i, s in enumerate(spans)),
            "artifact_files": len(files),
            "artifact_bytes": sum(p.stat().st_size for p in files),
        }
        per_step = max(n_steps, 1)
        cuts = (statistics.quantiles(steps, n=20, method="inclusive")
                if len(steps) >= 2 else [0.0] * 19)   # 5%, 10%, ..., 95%
        metrics = {
            "fields.transforms_per_step": (
                (counts["transforms_forward"] + counts["transforms_inverse"])
                / per_step, "count"),
            "fields.transforms_forward_per_step": (
                counts["transforms_forward"] / per_step, "count"),
            "fields.transforms_inverse_per_step": (
                counts["transforms_inverse"] / per_step, "count"),
            "fields.transform_us": (1e3 * median_ms(transforms), "us"),
            "fields.transform_share": (sum(transforms) / run_s, "fraction"),
            "fields.transform_mb_per_step": (
                counts["transform_bytes"] / 1e6 / per_step, "MB_computed"),
            "fields.scalar_fields_per_step": (
                counts["scalar_fields"] / per_step, "count"),
            "fields.write_snapshot_ms": (
                median_ms(durations("fields.write_snapshot")), "ms"),
            "cli.artifact_files": (counts["artifact_files"], "count"),
            "cli.artifact_mb": (counts["artifact_bytes"] / 1e6, "MB"),
            "cli.run_self_ms": (
                1e3 * (run_s - child_time[run_index]), "ms"),
            "diffops.leray_project_per_step": (
                counts["leray_in_steps"] / per_step, "count"),
            "diffops.leray_project_ms": (
                median_ms(durations("diffops.leray_project")), "ms"),
            "dynamics.step_ms_p50": (median_ms(steps), "ms"),
            "dynamics.step_ms_p95": (1e3 * cuts[18], "ms"),
            "dynamics.rhs_ms": (median_ms(durations("dynamics.rhs", True)), "ms"),
            "dynamics.rhs_per_step": (counts["rhs_in_steps"] / per_step, "count"),
            "dynamics.rhs_self_share": (rhs_self / run_s, "fraction"),
            "emlaws.fi_report_ms": (median_ms(reports), "ms"),
            "emlaws.fi_report_transforms": (
                counts["fi_report_transforms"] / max(len(reports), 1), "count"),
            "emlaws.write_reports_ms": (
                1e3 * sum(durations("emlaws.write_reports")), "ms"),
            "scenarios.generate_ms": (
                1e3 * sum(durations("scenarios.generate")), "ms"),
            "scenarios.measure_wave_ms": (
                1e3 * sum(durations("scenarios.measure_wave")), "ms"),
        }
        return {"run_s": run_s, "counts": counts, "metrics": metrics}
