"""Span tracing of one sweep, from outside the program.

The tracer replaces public functions of the locus modules with timing
wrappers, at the names through which the sweep looks them up (for example
`pipeline.estimate_aoa`, which `pipeline` imported from `aoa`). A wrapper
records its call's duration and adds it to the span that was open when the
call began, so each span's self time is its duration minus its child spans.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

import oracles

# One call in this many of each oracle-checked function is recorded.
ORACLE_EVERY = 40


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.missing = []
        self._stack = []
        self._undo = []
        self._hits = {}

    def wrap(self, owner, attr, name, after=None):
        """Time every call of owner.attr as span `name`.

        name may be a function of the call's arguments. after(args, kwargs,
        result) runs once the span is closed. A missing attribute is noted,
        not an error: the program may no longer have that name.
        """
        label = f"{owner.__name__.removeprefix('locus.')}.{attr}"
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label)
            return
        own = attr in vars(owner)
        stack, total, self_time, calls = self._stack, self.total, self.self_time, self.calls
        clock = time.perf_counter
        hits = self._hits.setdefault(label, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits[0] += 1
            key = name(args) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                total[key] += dt
                self_time[key] += dt - frame[0]
                calls[key] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn if own else None))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)
        self._undo.clear()

    def sampler(self, key, fn):
        """An `after` hook that keeps every ORACLE_EVERY-th call's bound arguments."""
        sig = inspect.signature(fn)
        seen = [0]

        def after(args, kwargs, out):
            seen[0] += 1
            if seen[0] % ORACLE_EVERY == 1:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.samples[key].append((_copy_args(bound.arguments), out))

        return after

    def install(self, locus):
        """Wrap the sweep's layer boundaries in the given locus package."""
        pipeline, neural, aoa = locus.pipeline, locus.neural, locus.aoa
        for attr in ("run_experiment", "split", "evaluate_mae", "write_report_files"):
            self.wrap(pipeline, attr, f"pipeline.{attr}")
        self.wrap(pipeline, "generate_dataset", "pipeline.generate_dataset", after=self._count_draws)
        for attr in ("trilat_baseline_mae_mm", "hybrid_baseline_mae_mm"):
            self.wrap(pipeline, attr, "pipeline.baselines")
        for attr, key in (("trilaterate", "trilat.trilaterate"),
                          ("hybrid_position", "hybrid.hybrid_position"),
                          ("estimate_aoa", "aoa.estimate_aoa")):
            fn = getattr(pipeline, attr, None)
            self.wrap(pipeline, attr, key, after=self.sampler(key, fn) if fn is not None else None)
        self.wrap(pipeline, "simulate_snapshots", "channel.simulate_snapshots")
        self.wrap(aoa, "eigendecompose", "aoa.eigendecompose")
        self.wrap(aoa, "spatial_spectrum", "aoa.spatial_spectrum")
        self.wrap(neural, "train", lambda args: f"neural.train.{getattr(args[0], 'family', '?')}",
                  after=self._count_steps)
        self.wrap(neural, "kmeans", "neural.kmeans")
        self.wrap(neural, "fit_rbf_output", "neural.fit_rbf_output")
        for cls_name, family in (("MlpModel", "mlp"), ("RbfModel", "rbf"), ("CnnModel", "cnn")):
            cls = getattr(neural, cls_name, None)
            if cls is None:
                self.missing.append(f"neural.{cls_name}")
                continue
            if family != "rbf":
                self.wrap(cls, "loss_and_gradients", f"neural.loss_and_gradients.{family}")
            self.wrap(cls, "forward_batch", "neural.forward_batch")

    def _count_draws(self, args, kwargs, ds):
        self.counts["pipeline.accepted"] += int(ds.n)
        self.counts["pipeline.draws"] += int(ds.n) + int(ds.rejects)

    def _count_steps(self, args, kwargs, result):
        self.counts[f"neural.steps.{getattr(args[0], 'family', '?')}"] += int(len(result.loss_history))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced sweep (see the README's table)."""
        t, s, c, n = self.total, self.self_time, self.calls, self.counts

        def per(total, count, scale=1e6):
            return scale * total / count if count else 0.0

        steps = {f: n[f"neural.steps.{f}"] for f in ("mlp", "cnn")}
        out = {}
        for f in ("mlp", "cnn"):
            out[f"neural.step_us.{f}"] = per(t[f"neural.train.{f}"], steps[f])
            out[f"neural.grad_us.{f}"] = per(t[f"neural.loss_and_gradients.{f}"], c[f"neural.loss_and_gradients.{f}"])
        out["neural.sgd_overhead_us"] = per(s["neural.train.mlp"] + s["neural.train.cnn"], sum(steps.values()))
        out["neural.train.steps"] = sum(steps.values())
        out["neural.kmeans.s"] = t["neural.kmeans"]
        out["neural.kmeans.calls"] = c["neural.kmeans"]
        out["neural.fit_rbf_output.s"] = t["neural.fit_rbf_output"]
        out["neural.forward_batch.s"] = t["neural.forward_batch"]
        est = c["aoa.estimate_aoa"]
        out["aoa.estimate_aoa.calls"] = est
        out["aoa.estimate_aoa.us"] = per(t["aoa.estimate_aoa"], est)
        out["aoa.eigendecompose.us"] = per(t["aoa.eigendecompose"], c["aoa.eigendecompose"])
        out["aoa.spatial_spectrum.us"] = per(t["aoa.spatial_spectrum"], c["aoa.spatial_spectrum"])
        out["aoa.peak_pick.us"] = per(s["aoa.estimate_aoa"], est)
        out["channel.simulate_snapshots.calls"] = c["channel.simulate_snapshots"]
        out["channel.simulate_snapshots.us"] = per(t["channel.simulate_snapshots"], c["channel.simulate_snapshots"])
        out["pipeline.generate_dataset.s"] = t["pipeline.generate_dataset"]
        out["pipeline.generate_dataset.self_s"] = s["pipeline.generate_dataset"]
        out["pipeline.draws"] = n["pipeline.draws"]
        out["pipeline.accepted_per_draw"] = per(n["pipeline.accepted"], n["pipeline.draws"], 1.0)
        out["pipeline.split.s"] = t["pipeline.split"]
        out["pipeline.baselines.s"] = t["pipeline.baselines"]
        out["pipeline.evaluate_mae.s"] = t["pipeline.evaluate_mae"]
        out["pipeline.write_report_files.s"] = t["pipeline.write_report_files"]
        out["pipeline.run_experiment.self_s"] = s["pipeline.run_experiment"]
        for key in ("trilat.trilaterate", "hybrid.hybrid_position"):
            out[f"{key}.calls"] = c[key]
            out[f"{key}.us"] = per(t[key], c[key])
        return out

    def unobserved(self) -> list[str]:
        """Wrapped names the sweep never called, plus names the program no longer has."""
        return sorted(set(self.missing) | {label for label, hits in self._hits.items() if not hits[0]})

    def check_oracles(self, locus) -> dict:
        """Compare every sampled call against its oracle; returns counts and worst errors."""
        res = {"aoa.checked": 0, "aoa.failed": 0, "aoa.worst_deg": 0.0,
               "position.checked": 0, "position.failed": 0, "position.worst_m": 0.0}
        for a, out in self.samples["aoa.estimate_aoa"]:
            x, k, step = a["x"], int(a["k"]), float(a["grid_step_deg"])
            ref = oracles.music_angles(x.data, x.array.spacing_wavelengths, k, step)
            err = max(abs(u - v) for u, v in zip(sorted(out), ref)) if len(out) == len(ref) else float("inf")
            res["aoa.checked"] += 1
            res["aoa.worst_deg"] = max(res["aoa.worst_deg"], err)
            if not err <= step + 1e-9:
                res["aoa.failed"] += 1
        for key in ("trilat.trilaterate", "hybrid.hybrid_position"):
            for a, out in self.samples[key]:
                env = a["env"]
                anchors = [(env.anchor(i).position.x, env.anchor(i).position.y) for i in (1, 2, 3)]
                if key == "trilat.trilaterate":
                    params = a["params"]
                    params3 = [params] * 3 if isinstance(params, locus.channel.PathLossParams) else list(params)
                    ref = oracles.trilateration(anchors, params3, a["rssi"])
                else:
                    frames = [env.anchor(i).frame for i in (1, 2, 3)]
                    ref = oracles.hybrid_fix(anchors, frames, a["d"].d, a["thetas_deg"])
                err = max(abs(out.p.x - ref[0]), abs(out.p.y - ref[1]))
                res["position.checked"] += 1
                res["position.worst_m"] = max(res["position.worst_m"], err)
                if not err <= oracles.POSITION_TOL_M:
                    res["position.failed"] += 1
        return res


def _copy_args(arguments):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in arguments.items()}
