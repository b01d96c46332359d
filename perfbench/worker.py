"""Measuring process: loads the edge-list files written at set-up, then runs
one workload's library calls and CLI children in a closed loop, one call at a
time on one thread, until the time is up. Prints one JSON object.

Every timing is CPU time (user + system): this process's for library calls,
the child's for a CLI run, which includes interpreter start and import. The
program is single-threaded and CPU-bound, so on an idle machine CPU time is
its wall time; on a shared virtual machine, wall time also holds the time
the host gives the CPU to others (steal), which made repeated wall timings
of one call spread by half their median where CPU timings spread by 5 %.

Untraced passes give the end-to-end numbers. With --trace 1 the passes
alternate untraced and traced; traced passes add the census calls and an
in-process CLI run next to each child, and give the per-layer numbers.
Outputs are checked outside every timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter, process_time as clock

HERE = os.path.dirname(os.path.abspath(__file__))

import checker  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_PASSES = 3  # untraced passes in an untraced run
MIN_EACH = 2  # untraced and traced passes in a traced run
# As timeit does, an untraced sample of a call shorter than MIN_SAMPLE_S
# times that many calls in a row (at most MAX_NUMBER) and takes the mean, so
# that sub-millisecond calls are not sampled at the noise of a single one.
MIN_SAMPLE_S = 0.005
MAX_NUMBER = 50
# an untraced pass starts each CLI child this many times: a child's time is
# mostly interpreter start, which spreads more than a library call
CLI_REPEATS = 3
# the calibration loop runs after a case's last replica, and after any call
# that ends at least this long after the last loop (see run_pass)
CAL_EVERY_S = 0.05
CHORDAL_FAMILIES = {"chordal8", "chordal4", "tinychordal", "star", "path", "complete"}


class Run:
    def __init__(self, args, ck) -> None:
        self.args = args
        self.ck = ck
        self.workdir = args.workdir
        with open(os.path.join(self.workdir, "inputs.json"), encoding="utf-8") as fh:
            self.inputs = json.load(fh)
        # originals, bound before any tracing, for set-up and checks
        self.orig = {fn: getattr(ck[fn.split(".")[0]], fn.split(".")[1]) for fn in spec.FUNCTIONS}
        self.orig["serialize.generators_json"] = ck["serialize"].generators_json
        self.tracer = Tracer()
        self.structure = ck["labeling"].structure_by_token
        self.not_chordal = ck["errors"].NotChordalError
        self.cases = spec.WORKLOADS[args.workload]["cases"]
        self.cli_cases = list(spec.WORKLOADS[args.workload]["cli"])
        self.census, self.census_cli = spec.census(args.workload) if args.trace else ([], [])
        self.memo: dict = {}
        self.case_args_memo: dict = {}
        self.number: dict[str, int] = {}
        self.first: dict = {}
        self.check_s = 0.0
        # case id -> whether any of its calls failed; a case counts once,
        # however many passes the time allows
        self.case_failed: dict[str, bool] = {}
        self.unexpected: set[str] = set()
        self.known: set[str] = set()
        self.samples: dict[str, list[float]] = {}
        self.pass_kind: list[str] = []
        self.lib_sum: list[float] = []
        self.lib_scaled: list[float] = []
        self.cli_sum: list[float] = []
        self.fails: dict[tuple[int, str], int] = {}
        self.cli_cpu: dict[tuple[int, str], float] = {}
        self.cli_overhead: dict[tuple[int, str], float] = {}
        self.digests: dict[str, str] = {}
        self.calibration: list[float] = []
        self.pass_cal: list[float] = []
        pins = {}
        if args.seed == spec.DEFAULT_SEED and not args.pin:
            with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
                pins = json.load(fh).get("outputs", {})
        self.pins = pins

    # -- inputs

    def path(self, key: str) -> str:
        return os.path.join(self.workdir, self.inputs[key]["file"])

    def graph(self, key: str):
        return self.derived("graph", key)

    def adj(self, key: str) -> checker.Adj:
        # parsed again for every check, not kept: checker memory would
        # otherwise set the measuring process's peak RSS
        with open(self.path(key), encoding="utf-8") as fh:
            return checker.parse_edge_list(fh.read())

    def derived(self, what: str, key: str):
        """Inputs computed from other results, once, outside every timed
        region and with the original functions."""
        if (what, key) in self.memo:
            return self.memo[what, key]
        o = self.orig
        if what == "graph":
            r = o["graph.load_graph"](self.path(key))
        else:
            g = self.graph(key)
            mcs = self.structure("mcs")
            if what == "fast_mcs":
                r = o["cliquetree.fast_clique_tree"](g, "mcs")
            elif what == "mls_mcs":
                r = o["search.mls"](g, mcs)[0]
            elif what == "dcl_mlsm_lexbfs":
                r = o["decomposition.dcl_mlsm_clique_tree"](g, self.structure("lexbfs"))
            elif what == "dcl_atom_mcs":
                r = o["decomposition.dcl_atom_tree"](g, mcs)
            elif what == "moplex_mlsm_mcs":
                r = o["search.moplex_mlsm"](g, mcs)[0]
            elif what == "json":
                if "connected" in key:
                    r = o["serialize.atom_tree_json"](g, self.derived("dcl_atom_mcs", key))
                else:
                    r = o["serialize.clique_tree_json"](g, self.derived("fast_mcs", key))
            elif what == "peo_file":
                r = os.path.join(self.workdir, f"{key}.peo")
                with open(r, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(self.derived("fast_mcs", key).ordering.names(g)) + "\n")
            else:
                raise ValueError(what)
        self.memo[what, key] = r
        return r

    def case_args(self, case: spec.Case) -> tuple:
        fn, key = case.fn, case.graph
        if fn == "graph.load_graph":
            return (self.path(key),)
        g = self.graph(key)
        if fn == "cliquetree.fast_clique_tree":
            return (g, case.token)
        if fn == "cliquetree.clique_tree_from_peo":
            return (g, self.derived("fast_mcs", key).ordering)
        if fn == "search.triangulation_from_ordering":
            return (g, self.derived("mls_mcs", key))
        if fn == "decomposition.atom_tree_from_clique_tree":
            r = self.derived("dcl_mlsm_lexbfs", key)
            return (g, r.triangulation.graph, r.clique_tree)
        if fn == "serialize.clique_tree_json":
            return (g, self.derived("fast_mcs", key))
        if fn == "serialize.atom_tree_json":
            return (g, self.derived("dcl_atom_mcs", key))
        if fn == "serialize.triangulation_json":
            return (g, self.derived("moplex_mlsm_mcs", key))
        if fn == "serialize.dumps":
            return (self.derived("json", key),)
        return (g, self.structure(case.token))

    def cli_argv(self, cc: spec.CliCase) -> list[str]:
        flags = [self.derived("peo_file", cc.graph) if f == "{peo}" else f for f in cc.flags]
        return [cc.sub, self.path(cc.graph), *flags]

    # -- checks

    def digest_text(self, case: spec.Case, r) -> str:
        o, fn = self.orig, case.fn
        g = None if fn in ("graph.load_graph", "serialize.dumps") else self.graph(case.graph)
        dumps = o["serialize.dumps"]
        if fn == "graph.load_graph":
            return "".join(f"{a} {b}\n" for a, b in sorted(
                tuple(sorted((r.names[u], r.names[v]))) for u in range(r.n) for v in r.adj[u] if u < v))
        if isinstance(r, str):
            return r
        if isinstance(r, dict):
            return json.dumps(r, sort_keys=True)
        if fn in ("search.mls", "search.moplex_mls"):
            return " ".join(r[0].names(g))
        if fn in ("search.mlsm", "search.moplex_mlsm"):
            return dumps(o["serialize.triangulation_json"](g, r[0]))
        if fn == "search.triangulation_from_ordering":
            return dumps(o["serialize.triangulation_json"](g, r))
        if fn == "cliquetree.complement_mls_generators":
            return dumps(o["serialize.generators_json"](g, r))
        if fn == "decomposition.dcl_mlsm_clique_tree":
            return dumps(o["serialize.triangulation_json"](g, r.triangulation, r.clique_tree))
        if fn.startswith("decomposition."):
            return dumps(o["serialize.atom_tree_json"](g, r))
        return dumps(o["serialize.clique_tree_json"](g, r))

    def violations(self, case: spec.Case, r) -> list[str]:
        fn, key = case.fn, case.graph
        adj = self.adj(key)
        if fn == "graph.load_graph":
            got = {r.names[v]: {r.names[u] for u in r.adj[v]} for v in range(r.n)}
            return [] if got == adj else ["loaded graph differs from the edge list"]
        if fn == "serialize.dumps":
            return [] if json.loads(r) == self.derived("json", key) else ["dumps does not round-trip"]
        g = self.graph(key)
        names = g.names

        def vs(s):
            return frozenset(names[v] for v in s)

        def order(o):
            return [names[v] for v in o.seq]

        def tree(t, host):
            return checker.check_clique_tree(
                host, [vs(K) for K in t.cliques], t.tree_edges, [vs(S) for S in t.separators], order(t.ordering))

        def fill(tri):
            return [(names[a], names[b]) for a, b in tri.fill_edges]

        def atoms(t):
            return checker.check_atom_tree(adj, [vs(A) for A in t.atoms], t.tree_edges,
                                           [vs(S) for S in t.clique_separators],
                                           order(t.triangulation.ordering), fill(t.triangulation))

        if fn in ("cliquetree.fast_clique_tree", "cliquetree.mls_clique_tree",
                  "cliquetree.dcl_mls_clique_tree", "cliquetree.clique_tree_from_peo"):
            bad = tree(r, adj)
            if not bad and fn == "cliquetree.fast_clique_tree" and case.n <= 240:
                # the fast path must equal the generic label-test builder
                ref = self.orig["cliquetree.dcl_mls_clique_tree"](g, self.structure(case.token))
                bad = [] if ref == r else ["fast path differs from dcl_mls_clique_tree"]
            return bad
        if fn == "cliquetree.complement_mls_clique_tree":
            return tree(r, checker.complement(adj))
        if fn == "cliquetree.complement_mls_generators":
            return checker.check_generators(checker.complement(adj), order(r.ordering),
                                            [names[v] for v in r.gen_cliques],
                                            [names[v] for v in r.gen_separators])
        if fn in ("search.mls", "search.moplex_mls"):
            if case.family.split("~")[0] in CHORDAL_FAMILIES:
                return checker.peo_violations(adj, order(r[0]))
            return checker.permutation_violations(adj, order(r[0]))
        if fn in ("search.mlsm", "search.moplex_mlsm"):
            return checker.check_triangulation(adj, order(r[0].ordering), fill(r[0]))
        if fn == "search.triangulation_from_ordering":
            return checker.check_triangulation(adj, order(r.ordering), fill(r))
        if fn == "decomposition.dcl_mlsm_clique_tree":
            return (checker.check_triangulation(adj, order(r.ordering), fill(r.triangulation))
                    or tree(r.clique_tree, checker.filled(adj, fill(r.triangulation))))
        if fn in ("decomposition.dcl_atom_tree", "decomposition.atom_tree_from_clique_tree"):
            return atoms(r)
        # renderers: the rendered sets are the result's sets
        _g, result = self.case_args(case)
        if fn == "serialize.clique_tree_json":
            want = [sorted(names[v] for v in K) for K in result.cliques]
            return [] if r["cliques"] == want else ["rendered cliques differ from the result"]
        if fn == "serialize.atom_tree_json":
            want = [sorted(names[v] for v in A) for A in result.atoms]
            return [] if r["atoms"] == want else ["rendered atoms differ from the result"]
        want = [sorted((names[a], names[b])) for a, b in result.fill_edges]
        ok = r["fill_edges"] == want and r["ordering"] == order(result.ordering)
        return [] if ok else ["rendered triangulation differs from the result"]

    def first_verdict(self, case: spec.Case, r, exc) -> list[str]:
        if case.expect == spec.NOT_CHORDAL:
            if isinstance(exc, self.not_chordal):
                return []
            if exc is not None:
                return [f"raised {type(exc).__name__} instead of {case.expect}: {exc}"]
            bad = self.violations(case, r)
            return [f"returned a result instead of raising {case.expect}"
                    + (f" (checker: {bad[0]})" if bad else " (checker found nothing)")]
        if exc is not None:
            return [f"raised {type(exc).__name__}: {exc}"]
        bad = self.violations(case, r)
        text = self.digest_text(case, r)
        self.digests[case.id] = sha256(text)
        pinned = self.pins.get(case.id)
        if not bad and pinned is not None and pinned != self.digests[case.id]:
            bad = ["output differs from its pinned SHA-256"]
        return bad

    def judge(self, case, r, exc, pass_no: int, base_id: str) -> None:
        t0 = clock()
        if case.id not in self.first:
            bad = self.first_verdict(case, r, exc)
            self.first[case.id] = (bad, type(exc) if exc is not None else r)
            for why in bad:
                print(f"check failed: {case.id}: {why}", file=sys.stderr)
        bad, ref = self.first[case.id]
        same = type(exc) is ref if exc is not None else r == ref
        if not same:
            print(f"check failed: {case.id}: differs from its first run", file=sys.stderr)
        self.count(bool(bad) or not same, base_id, case.known_defect, (pass_no, case.fn))
        self.check_s += clock() - t0

    def count(self, failed: bool, cid: str, known: str, key) -> None:
        self.case_failed[cid] = self.case_failed.get(cid, False) or failed
        if failed:
            self.fails[key] = self.fails.get(key, 0) + 1
            (self.known if known else self.unexpected).add(cid)

    def cli_expected(self, cc: spec.CliCase) -> str:
        o, g = self.orig, self.graph(cc.graph)
        s = self.structure(cc.flags[cc.flags.index("--structure") + 1]) if "--structure" in cc.flags else None
        if cc.sub == "cliquetree":
            if "{peo}" in cc.flags:
                t = o["cliquetree.clique_tree_from_peo"](g, self.derived("fast_mcs", cc.graph).ordering)
            else:
                t = o["cliquetree.mls_clique_tree"](g, s)
            out = o["serialize.clique_tree_json"](g, t)
        elif cc.sub == "atoms":
            out = o["serialize.atom_tree_json"](g, o["decomposition.dcl_atom_tree"](g, s))
        elif "--tree" in cc.flags:
            r = o["decomposition.dcl_mlsm_clique_tree"](g, s)
            out = o["serialize.triangulation_json"](g, r.triangulation, r.clique_tree)
        else:
            out = o["serialize.triangulation_json"](g, o["search.moplex_mlsm"](g, s)[0])
        return o["serialize.dumps"](out)

    def judge_cli(self, cc: spec.CliCase, proc, out_path: str, pass_no: int) -> None:
        t0 = clock()
        if cc.expect == spec.NOT_CHORDAL:
            bad = [] if proc.returncode == 1 and "error: NotChordal" in proc.stderr else [
                f"exit {proc.returncode} instead of a NotChordal error: {proc.stderr.strip()[:200]}"]
        elif proc.returncode != 0:
            bad = [f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"]
        else:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            if cc.id not in self.first:
                self.digests[cc.id] = sha256(text)
                pinned = self.pins.get(cc.id)
                self.first[cc.id] = (self.cli_expected(cc), pinned is None or pinned == self.digests[cc.id])
            want, pin_ok = self.first[cc.id]
            bad = []
            if text != want:
                bad = ["output bytes differ from serialize of the library result"]
            elif not pin_ok:
                bad = ["output differs from its pinned SHA-256"]
        for why in bad:
            print(f"check failed: {cc.id}: {why}", file=sys.stderr)
        self.count(bool(bad), cc.id, "", (pass_no, f"cli.{cc.sub}"))
        self.check_s += clock() - t0

    # -- passes

    def call(self, case: spec.Case, args: tuple):
        mod, name = case.fn.split(".")
        return getattr(self.ck[mod], name)(*args)  # looked up late: tracing patches apply

    def args_for(self, case: spec.Case) -> tuple:
        if case.id not in self.case_args_memo:
            self.case_args_memo[case.id] = self.case_args(case)
        return self.case_args_memo[case.id]

    def run_pass(self, pass_no: int, kind: str) -> None:
        """kind: U untraced, T traced, W warm-up (traced in a traced run,
        checked like any pass, its times discarded)."""
        tr = self.tracer
        tr.pass_no = pass_no
        traced = kind == "T" or (kind == "W" and bool(self.args.trace))
        if traced:
            tr.install(spec.FUNCTIONS)
        lib_total = cli_total = 0.0
        # the machine's speed before the first timed call, then after a
        # case's last replica and after any call that ends CAL_EVERY_S or
        # more after the last loop; sample (id, time, k) was timed between
        # cal[k] and cal[k + 1]. The warm-up's times are not used.
        calibrate = kind != "W"
        cal = [stats.calibration_loop()] if calibrate else []
        cal_at = clock()
        samples: list[tuple[str, float, int]] = []
        lib_parts: list[tuple[float, int]] = []
        try:
            for base in self.cases + (self.census if traced else []):
                workload_case = base in self.cases
                keys = spec.replicas(base.graph)
                for key in keys:
                    case = dataclasses.replace(base, graph=key)
                    args = self.args_for(case)
                    tr.case = case.id
                    number = self.number.get(case.id, 1) if kind == "U" else 1
                    outcomes = []
                    sid = tr._open("case") if traced else -1
                    t0 = clock()
                    for _ in range(number):
                        try:
                            outcomes.append((self.call(case, args), None))
                        except Exception as e:  # judged below: an expected or an unexpected error
                            outcomes.append((None, e))
                    dt = (clock() - t0) / number
                    if traced:
                        tr._close(sid)
                    if kind == "W":
                        self.number[case.id] = max(1, min(MAX_NUMBER, round(MIN_SAMPLE_S / max(dt, 1e-6))))
                    if kind == "U" or (kind == "T" and not workload_case):
                        samples.append((case.id, dt, len(cal) - 1))
                    if workload_case:
                        lib_total += dt / len(keys)
                        lib_parts.append((dt / len(keys), len(cal) - 1))
                    for r, exc in outcomes:
                        self.judge(case, r, exc, pass_no, base.id)
                    del outcomes
                    gc.collect()
                    if calibrate and (key == keys[-1] or clock() - cal_at >= CAL_EVERY_S):
                        cal.append(stats.calibration_loop())
                        cal_at = clock()
            for base in self.cli_cases + (self.census_cli if traced else []):
                repeats = CLI_REPEATS if kind == "U" else 1
                for _ in range(repeats):
                    cpu = self.run_cli(base, pass_no, traced)
                    if base in self.cli_cases:
                        cli_total += cpu / repeats
                        if kind == "U":
                            samples.append((base.id, cpu, len(cal) - 1))
                    if calibrate:
                        cal.append(stats.calibration_loop())
        finally:
            if traced:
                tr.uninstall()
        # each sample is scaled by the calibration times on either side of
        # it: the machine's speed changes within seconds, and a near
        # calibration follows it better than the pass's or the run's median
        def scaled(dt: float, k: int) -> float:
            return dt * stats.REFERENCE_S * 2 / (cal[k] + cal[k + 1])

        for cid, dt, k in samples:
            self.samples.setdefault(cid, []).append(scaled(dt, k))
        self.lib_scaled.append(sum(scaled(dt, k) for dt, k in lib_parts) if calibrate else lib_total)
        self.calibration += cal
        self.pass_kind.append(kind)
        self.pass_cal.append(stats.median(cal) if cal else 0.0)
        self.lib_sum.append(lib_total)
        self.cli_sum.append(cli_total)

    def run_cli(self, cc: spec.CliCase, pass_no: int, traced: bool) -> float:
        argv = self.cli_argv(cc)
        out = os.path.join(self.workdir, "cli-out.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.args.root, "src"))
        t0 = children_cpu()
        proc = subprocess.run([sys.executable, "-m", "chordalkit", *argv, "--out", out],
                              env=env, capture_output=True, text=True, timeout=120)
        cpu = children_cpu() - t0
        if traced:
            # the same command in process: what the child spent outside
            # load_graph, the product and the renderers is its overhead
            self.tracer.case = "shadow:" + cc.id
            shadow = os.path.join(self.workdir, "cli-shadow.json")
            with self.tracer.span("cli.main") as mid, contextlib.redirect_stderr(io.StringIO()):
                self.ck["cli"].main([*argv, "--out", shadow])
            key = (pass_no, cc.sub)
            self.cli_cpu[key] = self.cli_cpu.get(key, 0.0) + cpu
            self.cli_overhead[key] = self.cli_overhead.get(key, 0.0) + cpu - self.tracer.child_time(mid)
        self.judge_cli(cc, proc, out, pass_no)
        return cpu

    def measure(self) -> float:
        t_setup = clock()
        for key in spec.graphs_of(self.args.workload):
            self.graph(key)
        for c in self.cases + self.census:
            for key in spec.replicas(c.graph):
                self.args_for(dataclasses.replace(c, graph=key))
        for cc in self.cli_cases + self.census_cli:
            self.cli_argv(cc)
        # warm-up: every function once on the smallest census input, one child
        for fn in spec.FUNCTIONS:
            graphs, token = spec.CENSUS_INPUT[fn]
            warm = spec.Case(fn, graphs[0], token)
            self.call(warm, self.case_args(warm))
        subprocess.run([sys.executable, "-m", "chordalkit", "--help"], capture_output=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=os.path.join(self.args.root, "src")))
        # as in timeit: no cyclic collection inside a timed call; it runs
        # between calls instead, so its cost does not land on a random case
        gc.collect()
        gc.freeze()
        gc.disable()
        setup_s = clock() - t_setup

        start = perf_counter()
        deadline = start + self.args.seconds
        # the first pass fills caches and the allocator and runs the full
        # output checks; its times are not used
        self.run_pass(0, "W")
        gc.freeze()  # the first results, kept for comparison, stay out of later collections
        last = {"U": 0.0, "T": 0.0}
        pass_no = 1
        while True:
            n_u, n_t = self.pass_kind.count("U"), self.pass_kind.count("T")
            if self.args.trace:
                kind = "T" if n_t < n_u else "U"
                done = n_u >= MIN_EACH and n_t >= MIN_EACH
            else:
                kind, done = "U", n_u >= MIN_PASSES
            if done and perf_counter() + last[kind] > deadline:
                break
            t0 = perf_counter()
            self.run_pass(pass_no, kind)
            last[kind] = perf_counter() - t0
            print(f"pass {pass_no} {kind}: {last[kind]:.2f} s", file=sys.stderr)
            pass_no += 1
        return setup_s

    # -- results

    def case_time(self, case: spec.Case) -> float:
        """Time of a case: the mean over its input's replicas of each
        replica's median over the passes (samples are already scaled to the
        reference speed)."""
        keys = spec.replicas(case.graph)
        return sum(stats.median(self.samples[dataclasses.replace(case, graph=k).id]) for k in keys) / len(keys)

    def series_exponents(self, cases) -> dict[str, float]:
        out = {}
        for name, cs in spec.series_sizes(cases).items():
            sizes = [stats.median([self.inputs[k]["n"] + self.inputs[k]["m"] for k in spec.replicas(c.graph)])
                     for c in cs]
            out[name] = stats.loglog_slope(sizes, [self.case_time(c) for c in cs])
        return out

    def scale(self) -> float:
        return stats.REFERENCE_S / stats.median(self.calibration)

    def end_to_end(self, setup_s: float) -> tuple[dict, dict]:
        """Untraced samples only, scaled to the reference speed. Sums are
        over per-case medians, which a burst of noise during one pass moves
        less than a pass sum."""
        med = [self.case_time(c) for c in self.cases]
        exps = self.series_exponents(self.cases)
        return {
            "setup_s": setup_s * self.scale(),
            "lib_s": sum(med),
            "case_geomean_s": stats.geomean(med),
            "cli_s": sum(stats.median(self.samples[c.id]) for c in self.cli_cases),
            "scaling_exponent_max": max(exps.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, exps

    def per_layer(self) -> tuple[dict, dict]:
        t = [i for i, k in enumerate(self.pass_kind) if k == "T"]
        u = [i for i, k in enumerate(self.pass_kind) if k == "U"]
        self_t = self.tracer.self_times(skip_case=lambda case: case.startswith("shadow:"))
        exps = self.series_exponents(self.cases + self.census)
        k = self.scale()
        out = {}
        for fn in spec.FUNCTIONS:
            out[f"{fn}.s"] = stats.median([sum(self_t.get((p, fn), [])) for p in t]) * k
            out[f"{fn}.calls"] = stats.median([len(self_t.get((p, fn), [])) for p in t])
            out[f"{fn}.failed"] = stats.median([self.fails.get((p, fn), 0) for p in t])
            out[f"{fn}.exponent"] = max(v for s, v in exps.items() if s.startswith(fn + "."))
        for sub in spec.CLI_SUBCOMMANDS:
            out[f"cli.{sub}.s"] = stats.median([self.cli_cpu[p, sub] for p in t]) * k
            out[f"cli.{sub}.overhead_s"] = stats.median([self.cli_overhead[p, sub] for p in t]) * k
        out["check.s"] = self.check_s * k
        out["trace.overhead_frac"] = (stats.median([self.lib_scaled[i] for i in t])
                                      / stats.median([self.lib_scaled[i] for i in u]) - 1.0)
        return out, exps


def children_cpu() -> float:
    """CPU seconds (user + system) of every child waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    # one CPU for this process, its CLI children and the calibration loop,
    # so the loop measures the speed of the CPU the calls run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(args.root, "src"))
    import importlib

    ck = {m: importlib.import_module(f"chordalkit.{m}") for m in
          ("graph", "search", "cliquetree", "decomposition", "serialize", "cli", "labeling", "errors")}
    run = Run(args, ck)
    setup_s = run.measure()
    e2e, exps = run.end_to_end(setup_s)
    result = {
        "attempted": len(run.case_failed),
        "failed": sum(run.case_failed.values()),
        "unexpected": sorted(run.unexpected),
        "known_defects": sorted(run.known),
        "passes": "".join(run.pass_kind),
        "calibration_s": stats.median(run.calibration),
        "pass_lib_s": run.lib_sum,
        "pass_cli_s": run.cli_sum,
        "pass_calibration_s": run.pass_cal,
        "samples": min(len(v) for v in run.samples.values()),
        "end_to_end": e2e,
        "series_exponents": exps,
        "digests": run.digests,
    }
    with open(os.path.join(run.workdir, "cases.json"), "w", encoding="utf-8") as fh:
        cases = {cid: {"median_s": stats.median(v), "samples": len(v)} for cid, v in run.samples.items()}
        cases["calibration"] = {"median_s": stats.median(run.calibration), "samples": len(run.calibration)}
        json.dump(cases, fh, indent=1)
    if args.trace:
        result["per_layer"], result["series_exponents"] = run.per_layer()
        run.tracer.write(os.path.join(run.workdir, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
