"""Per-module tracing of the simulator from outside the program.

The tracer replaces public functions and methods of the ``hrtsim``
modules with wrappers that record one span per call: name, start, end,
parent span and run id.  Module-level functions are replaced at every
binding that holds them, so ``from .mem import translate`` in ``sim``,
``ros`` and ``hrt`` is traced too.  Counters are read at the same
boundaries, from return values and public attributes only.  Spans stay
in memory until the run ends; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans and boundary counters of one traced run at a time."""

    def __init__(self, hrtsim):
        self.span_names: list[str] = []
        self.name_ix = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.run_ids = array("I")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset(0)
        self._plan(hrtsim)

    def reset(self, run_id: int) -> None:
        """Drop the previous run's spans and counters; start run `run_id`."""
        for arr in (self.name_ix, self.starts, self.ends, self.parents, self.run_ids):
            del arr[:]
        self._stack.clear()
        self.run_id = run_id
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.waits: list[int] = []
        self.systems: list = []
        self.actions = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _wrapper(self, fn, name: str, after):
        ix = len(self.span_names)
        self.span_names.append(name)
        name_ix, starts, ends, parents, run_ids = (
            self.name_ix, self.starts, self.ends, self.parents, self.run_ids
        )
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ix.append(ix)
            parents.append(stack[-1] if stack else -1)
            run_ids.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _function(self, module, attr: str, name: str, after=None) -> None:
        """Plan to replace a module-level function at every hrtsim binding of it."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, after)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] == "hrtsim" and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original, traced))

    def _method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original, self._wrapper(original, name, after)))

    def _plan(self, hrtsim) -> None:
        def parsed(args, program):
            self.actions += sum(len(b.actions) for b in program.bodies.values())

        def translated(args, result):
            # translate returns a physical address on success, a FaultInfo otherwise.
            if not isinstance(result, int):
                self.counts["mem.translate.faults"] += 1

        def stepped(args, progressed):
            if progressed:
                self.counts["sim.step.useful"] += 1

        def partner_stepped(args, progressed):
            if progressed:
                self.counts["ros.partner_step.useful"] += 1

        def forwarded(args, _):
            depth = len(args[0].outstanding)
            self.maxima["channel.outstanding"] = max(self.maxima["channel.outstanding"], depth)

        def completed(args, _):
            ev = args[1]
            self.waits.append(ev.complete_cycle - ev.request_cycle)

        def regions_changed(args, _):
            live = len(args[0].proc.vm_regions)
            self.maxima["ros.live_regions"] = max(self.maxima["ros.live_regions"], live)

        def set_up(args, _):
            self.systems.append(args[0].system)

        mem, sim = hrtsim.mem, hrtsim.sim
        self._function(hrtsim.workload, "parse_workload", "workload.parse", parsed)
        self._function(mem, "translate", "mem.translate", translated)
        self._function(mem, "map_page", "mem.map_page")
        self._function(mem, "unmap_page", "mem.unmap_page")
        self._function(mem, "identity_map_higher_half", "mem.identity_map")
        self._function(mem, "merge_lower_half", "mem.merge_lower_half")
        self._function(hrtsim.toolchain, "parse_fat_binary", "toolchain.parse_fat_binary")
        self._function(sim, "run", "sim.run")
        self._function(sim, "compare", "sim.compare")

        channel = hrtsim.channel.EventChannel
        self._method(channel, "forward_event", "channel.forward_event", forwarded)
        self._method(channel, "complete_event", "channel.complete_event", completed)
        self._method(channel, "hypercall", "channel.hypercall")
        self._method(channel, "sync_invoke", "channel.sync_invoke")

        hrt = hrtsim.hrt.HrtKernel
        self._method(hrt, "install_image", "hrt.install_image")
        self._method(hrt, "boot", "hrt.boot")
        self._method(hrt, "handle_page_fault", "hrt.handle_page_fault")
        self._method(hrt, "resolve_symbol", "hrt.resolve_symbol")

        ros = hrtsim.ros.RosKernel
        self._method(ros, "partner_step", "ros.partner_step", partner_stepped)
        self._method(ros, "serve_forwarded", "ros.serve_forwarded")
        self._method(ros, "demand_fault", "ros.demand_fault")
        self._method(ros, "touch", "ros.touch")
        self._method(ros, "sys_mmap", "ros.sys_mmap", regions_changed)
        self._method(ros, "sys_munmap", "ros.sys_munmap", regions_changed)

        simulator = sim.Simulator
        self._method(simulator, "setup", "sim.setup", set_up)
        self._method(simulator, "execute", "sim.execute")
        self._method(simulator, "step", "sim.step", stepped)
        self._method(simulator, "report", "sim.report")

    # -- results --------------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive seconds, and self seconds, where
        self time is a span's duration minus the part its children cover."""
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for i, ix in enumerate(self.name_ix):
            name = self.span_names[ix]
            duration = ends[i] - starts[i]
            calls[name] += 1
            inclusive[name] += duration
            own[name] += duration - covered[i]
        return calls, inclusive, own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current run; every ratio has its base
        count beside it."""
        calls, inclusive, own = self.span_totals()
        counts = self.counts
        machines = [s.machine for s in self.systems]
        caches = [s.hrt.symbol_cache for s in self.systems if s.hrt.symbol_cache is not None]
        hits = sum(c.hits for c in caches)
        lookups = hits + sum(c.misses for c in caches)
        waits = sorted(self.waits)
        return {
            "workload.parse_s": inclusive["workload.parse"],
            "workload.actions": self.actions,
            "mem.translate.calls": calls["mem.translate"],
            "mem.translate.self_s": own["mem.translate"],
            "mem.translate.fault_ratio": _ratio(counts["mem.translate.faults"], calls["mem.translate"]),
            "mem.map_page.calls": calls["mem.map_page"],
            "mem.map_page.self_s": own["mem.map_page"],
            "mem.unmap_page.calls": calls["mem.unmap_page"],
            "mem.identity_map_s": inclusive["mem.identity_map"],
            "mem.merge_lower_half.calls": calls["mem.merge_lower_half"],
            "mem.frames_used.ros": sum(_used(m.ros_frame_alloc) for m in machines),
            "mem.frames_used.hrt": sum(_used(m.hrt_frame_alloc) for m in machines),
            "channel.forward_event.calls": calls["channel.forward_event"],
            "channel.complete_event.calls": calls["channel.complete_event"],
            "channel.complete_event.self_s": own["channel.complete_event"],
            "channel.hypercall.calls": calls["channel.hypercall"],
            "channel.hypercall.self_s": own["channel.hypercall"],
            "channel.sync_invoke.calls": calls["channel.sync_invoke"],
            "channel.outstanding.max": self.maxima["channel.outstanding"],
            "channel.wait_cycles.p50": _percentile(waits, 0.50),
            "channel.wait_cycles.p99": _percentile(waits, 0.99),
            "hrt.boot_s": inclusive["hrt.boot"],
            "hrt.install_image_s": inclusive["hrt.install_image"],
            "hrt.handle_page_fault.calls": calls["hrt.handle_page_fault"],
            "hrt.handle_page_fault.self_s": own["hrt.handle_page_fault"],
            "hrt.remerges": sum(s.hrt.remerge_count for s in self.systems),
            "hrt.resolve_symbol.calls": calls["hrt.resolve_symbol"],
            "ros.partner_step.calls": calls["ros.partner_step"],
            "ros.partner_step.useful_ratio": _ratio(
                counts["ros.partner_step.useful"], calls["ros.partner_step"]
            ),
            "ros.partner_step.self_s": own["ros.partner_step"],
            "ros.serve_forwarded.calls": calls["ros.serve_forwarded"],
            "ros.serve_forwarded.self_s": own["ros.serve_forwarded"],
            "ros.demand_fault.calls": calls["ros.demand_fault"],
            "ros.demand_fault.self_s": own["ros.demand_fault"],
            "ros.touch.calls": calls["ros.touch"],
            "ros.live_regions.max": self.maxima["ros.live_regions"],
            "toolchain.parse_fat_binary_s": inclusive["toolchain.parse_fat_binary"],
            "toolchain.symbol_cache.hit_ratio": _ratio(hits, lookups),
            "toolchain.symbol_cache.lookups": lookups,
            "sim.step.calls": calls["sim.step"],
            "sim.step.useful_ratio": _ratio(counts["sim.step.useful"], calls["sim.step"]),
            "sim.step.self_s": own["sim.step"],
            "sim.report_s": inclusive["sim.report"],
            "sim.compare_tabulate_s": own["sim.compare"],
            "trace.setup_s": inclusive["sim.setup"],
        }

    def write_spans(self, path) -> None:
        """One line per span, times in seconds from the run's first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            out.write("run_id\tspan\tname\tstart_s\tend_s\tparent\n")
            for i, ix in enumerate(self.name_ix):
                out.write(
                    f"{self.run_ids[i]}\t{i}\t{self.span_names[ix]}\t"
                    f"{self.starts[i] - origin:.9f}\t{self.ends[i] - origin:.9f}\t"
                    f"{self.parents[i]}\n"
                )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _used(alloc) -> int:
    return alloc.end - alloc.start - alloc.frames_left


def _percentile(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of a sorted list; 0 when it is empty."""
    if not ordered:
        return 0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
