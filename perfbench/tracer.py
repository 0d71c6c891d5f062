"""Per-layer tracer for one round trip, installed from outside the program.

It wraps the public functions that ``ifpt.cli`` calls into each module,
where they are looked up, and records spans on a stack.  A layer's self
time is its spans' durations minus the part covered by traced children,
so within a phase the self times of all layers sum to the phase's wall
time.  Counters are recorded at the same boundaries.

Binding rules (each one breaks silently if done the obvious way):

* modules come from ``sys.modules``: the package attribute
  ``ifpt.calibrate`` is the *function* ``calibrate``, not the module;
* names imported with ``from .x import f`` are patched in the importing
  module (``ifpt.cli.forward_fpt``, ``ifpt.verify.step_increments``, ...);
* ``StreamKeys.uniform_rows`` is a generator: each yielded row is timed,
  not the generator's creation.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # "layer.metric" -> seconds, this phase
        self.counts = defaultdict(int)
        self._stack = []  # [start, seconds covered by children] per open span
        self._jump_rows_used = None  # per jump row: particles that read it

    # -- spans --------------------------------------------------------------

    def _enter(self):
        self._stack.append([clock(), 0.0])

    def _exit(self, metric):
        start, covered = self._stack.pop()
        duration = clock() - start
        self.self_s[metric] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def timed(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(metric)

        return wrapper

    def run_phase(self, phase, fn, *args):
        """Runs fn as the root span of a phase; returns (result, metrics)."""
        self.self_s.clear()
        self.counts.clear()
        self._enter()
        try:
            result = fn(*args)
        finally:
            wall = self._exit("cli.self_s")
        out = {**self.self_s, **self.counts, "cli.wall_s": wall}
        # the phase's own layer (calibrate, verify) needs no phase suffix
        return result, {k if k.startswith(phase + ".") else f"{k}.{phase}": v for k, v in out.items()}

    # -- installation -------------------------------------------------------

    def install(self):
        cli = sys.modules["ifpt.cli"]
        io = sys.modules["ifpt.io"]
        calibrate_mod = sys.modules["ifpt.calibrate"]
        verify_mod = sys.modules["ifpt.verify"]
        targets = sys.modules["ifpt.targets"]
        rng = sys.modules["ifpt.rng"]

        cli.load_config = self.timed("config.load_s", cli.load_config)
        cli.calibrate = self.timed("calibrate.self_s", cli.calibrate)
        cli.forward_fpt = self.timed("verify.self_s", cli.forward_fpt)
        cli.ks_statistic = self.timed("verify.ks_s", cli.ks_statistic)
        for mod in (calibrate_mod, verify_mod):
            mod.step_increments = self._step(mod.step_increments)
        init_cls = calibrate_mod.InitialDistribution
        init_cls.sample = self.timed("rng.init_s", init_cls.sample)

        for obj in vars(targets).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, targets.TargetDistribution)
                and obj is not targets.TargetDistribution
                and "survival" in vars(obj)
            ):
                obj.survival = self.timed("targets.survival_s", obj.survival)

        io.read_boundary_csv = self.timed("io.read_s", io.read_boundary_csv)
        for name in ("write_estimate_csv", "write_json", "write_fpt_sample"):
            setattr(io, name, self._write(getattr(io, name)))

        keys = rng.StreamKeys
        keys.normals = self._draw(keys.normals)
        keys.uniforms = self._draw(keys.uniforms)
        keys.normal_block = self._draw(keys.normal_block, rows=lambda rows, slot=0: rows)
        keys.poisson_full = self._poisson(keys.poisson_full)
        keys.uniform_rows = self._uniform_rows(keys.uniform_rows)

    def _step(self, fn):
        timed = self.timed("processes.step_self_s", fn)

        @functools.wraps(fn)
        def wrapper(model, positions, *args, **kwargs):
            self.counts["processes.particle_steps"] += len(positions)
            return timed(model, positions, *args, **kwargs)

        return wrapper

    def _write(self, fn):
        timed = self.timed("io.write_s", fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = timed(path, *args, **kwargs)
            self.counts["io.bytes_written"] += os.path.getsize(path)
            return result

        return wrapper

    def _count_draw(self, generated, used):
        self.counts["rng.generated"] += generated
        self.counts["rng.used"] += int(used)

    def _draw(self, fn, rows=None):
        """Times a full-width draw indexed by keys.ids; rows(*args) rows per call."""
        timed = self.timed("rng.draw_s", fn)

        @functools.wraps(fn)
        def wrapper(keys, *args, **kwargs):
            result = timed(keys, *args, **kwargs)
            n = rows(*args, **kwargs) if rows else 1
            self._count_draw(n * keys.n_total, n * len(keys.ids))
            return result

        return wrapper

    def _poisson(self, fn):
        timed = self.timed("rng.draw_s", fn)

        @functools.wraps(fn)
        def wrapper(keys, *args, **kwargs):
            counts = timed(keys, *args, **kwargs)
            # the caller reads counts[ids]; row j of the jump-size stream is
            # then read at the ids whose count exceeds j
            alive = counts[keys.ids]
            self._count_draw(keys.n_total, len(alive))
            hist = np.bincount(alive)
            self._jump_rows_used = len(alive) - np.cumsum(hist)
            return counts

        return wrapper

    def _uniform_rows(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(keys, *args, **kwargs):
            rows = fn(keys, *args, **kwargs)
            j = 0
            while True:
                tracer._enter()
                try:
                    row = next(rows)
                finally:
                    tracer._exit("rng.draw_s")
                used = tracer._jump_rows_used
                tracer._count_draw(len(row), used[j] if j < len(used) else 0)
                tracer.counts["rng.jump_rows"] += 1
                j += 1
                yield row

        return wrapper

