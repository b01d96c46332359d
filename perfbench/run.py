#!/usr/bin/env python3
"""chordalkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chordal --seed 1 --seconds 20 --trace 0

Set-up generates the workload's input graphs from the seed (through
``chordalkit.oracle.gen``), checks them against the pinned SHA-256 at the
default seed, and writes them as edge-list files under ``.perfbench_work/``;
it runs SETUP_REPS times and reports the median, plus the measuring
process's load and warm-up. The measuring process (worker.py) then runs the
workload's library calls and CLI children for ``--seconds``. The last line
of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Other modes:
    --write-manifest   write BENCHMARK.json from spec.py
    --pin              record input and output SHA-256 at the default seed
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
sys.path.insert(0, HERE)

import spec  # noqa: E402
import stats  # noqa: E402


class InputMismatch(Exception):
    pass


def set_up(workload: str, seed: int, workdir: str, pins: dict | None) -> tuple[dict, dict]:
    """Generate, check and write every input; returns (metadata, hashes)."""
    import inputs

    meta, hashes = {}, {}
    for key in spec.graphs_of(workload):
        edges = inputs.edges_for(key, seed)
        text = inputs.edge_list_text(edges)
        hashes[key] = inputs.sha256(text)
        if pins is not None and key in pins and pins[key] != hashes[key]:
            raise InputMismatch(f"input {key} at seed {seed} differs from its pinned SHA-256")
        name = f"{key}.edges"
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        meta[key] = {"file": name, "n": inputs.vertex_count(edges), "m": len(edges)}
    return meta, hashes


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "chordalkit", "__init__.py")):
        print("error: no chordalkit sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    if args.pin and args.seed != spec.DEFAULT_SEED:
        print(f"error: pins are taken at the default seed {spec.DEFAULT_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t_start = perf_counter()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    checked = args.seed == spec.DEFAULT_SEED and not args.pin
    input_pins = load_pins().get("inputs", {}) if checked else None
    setup_times, calibration = [], []
    try:
        for _ in range(spec.SETUP_REPS):
            calibration += [stats.calibration_loop() for _ in range(3)]
            t0 = process_time()
            meta, hashes = set_up(args.workload, args.seed, workdir, input_pins)
            setup_times.append(process_time() - t0)
    except InputMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--root", ROOT] + (["--pin"] if args.pin else [])
    t_setup = perf_counter() - t_start
    budget = max(10.0, 170.0 - t_setup)
    # in a process group of its own, which is killed on every way out that
    # leaves it running, so a CLI child it waits for ends with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: the measuring process took longer than {budget:.0f} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        print(f"error: the measuring process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    print(f"wall time: set-up {t_setup:.1f} s, measuring process {perf_counter() - t_start - t_setup:.1f} s",
          file=sys.stderr)

    with open(os.path.join(workdir, "hashes.json"), "w", encoding="utf-8") as fh:
        json.dump({"inputs": hashes, "outputs": res["digests"]}, fh, indent=1, sort_keys=True)
    if args.pin:
        pins = load_pins()
        pins.setdefault("inputs", {}).update(hashes)
        pins.setdefault("outputs", {}).update(res["digests"])
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")

    e2e = dict(res["end_to_end"])
    e2e["setup_s"] += stats.median(setup_times) * stats.REFERENCE_S / stats.median(calibration)
    units = {name: unit for name, unit, _bound in spec.END_TO_END}
    samples = res["samples"]
    print(f"workload {args.workload} seed {args.seed}: passes {res['passes']} "
          f"(U untraced, T traced), {samples}+ samples per case, set-up x{spec.SETUP_REPS}")
    print(f"  times are CPU seconds scaled to the reference speed: calibration loop "
          f"{res['calibration_s'] * 1e3:.3f} ms here, {stats.REFERENCE_S * 1e3:.3f} ms reference")
    print("  per pass lib_s (unscaled) " + " ".join(f"{k}:{v:.4f}" for k, v in zip(res["passes"], res["pass_lib_s"]))
          + ", cli_s " + " ".join(f"{v:.4f}" for v in res["pass_cli_s"])
          + ", loop ms " + " ".join(f"{v * 1e3:.3f}" for v in res["pass_calibration_s"]))
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    frac = res["failed"] / res["attempted"]
    print(f"  failed_frac = {frac:.6g} ({res['failed']} of {res['attempted']} cases)")
    for cid in res["known_defects"]:
        print(f"  known defect: {cid}: {spec.HOLE_DEFECT}")
    for cid in res["unexpected"]:
        print(f"  UNEXPECTED FAILURE: {cid}")
    for name, value in sorted(res["series_exponents"].items()):
        print(f"  series {name}.exponent = {value:.4g} slope")
    if args.trace:
        metrics = res["per_layer"]
        layer_units = dict(spec.per_layer())
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {layer_units[name]}")
    else:
        metrics = e2e
        layer_units = units
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": layer_units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
