#!/usr/bin/env python3
"""End-to-end benchmark of `dmnet serve`, with a traced per-layer ledger.

Run from the root of the repository:

    python3 perfbench/run.py --workload drift-resolve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one after another
    python3 perfbench/run.py --smoke                 # every workload at a tiny size

One run builds `dmnet` and `perfbench/pb.exe` from source, generates the
workload from the seed, spawns a fresh `dmnet serve --domains 1` on an
AF_UNIX socket, and drives it from one single-threaded generator process
(`pb drive`): paced open-loop stretches alternating with saturating
ones. Correctness gates run after the timed part and fail the run
instead of printing numbers. With `--trace 1` the same run also replays
the daemon's layer calls in-process (`pb mirror`), untraced and traced,
and reports the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

# Every path below is relative to the repository root, which main()
# makes the working directory: AF_UNIX socket paths must stay short.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORK = ".perfbench"
DMNET = os.path.join(BUILD, "default", "bin", "dmnet.exe")
PB = os.path.join(BUILD, "default", "perfbench", "pb.exe")
SPEC = json.load(open(os.path.join(ROOT, "perfbench", "workloads.json")))

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

# setup_s is the median of the driven daemon's set-up and of this many
# start-ups at each of the generator's pauses (before each of its six
# stretches and after the last), so that they sample the machine at the
# same moments of the run as the load does.
SETUP_BATCH = 3
# A paced phase is rejected when timing its lags from the actual send
# instead of the due time would move p50 or p95 by more than this share.
LATE_FRAC_MAX = 0.1


class GateError(Exception):
    """A correctness gate failed: the run prints no numbers."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# The daemon (and the in-process mirrors of it) get the last core to
# themselves; this process and the generator it spawns keep the first,
# so the scheduler never stacks the two on one core.
CORES = sorted(os.sched_getaffinity(0))


def pin_to_daemon_core():
    os.sched_setaffinity(0, {CORES[-1]})


def run(argv, timeout=170, daemon_core=False):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
                          preexec_fn=pin_to_daemon_core if daemon_core else None)
    if proc.returncode != 0:
        raise GateError("%s failed (exit %d):\n%s" % (" ".join(argv[:2]), proc.returncode, proc.stderr[-2000:]))


def load(path):
    with open(path) as f:
        return json.load(f)


def pct(xs, p):
    """The p-th percentile (inclusive linear interpolation)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def preflight():
    for path in ("dune-project", "bin/dmnet.ml", "lib/server/server.ml", "lib/engine/engine.ml"):
        if not os.path.exists(path):
            log("perfbench: %s is missing; run from the root of a full dmnet checkout" % path)
            sys.exit(2)
    if shutil.which("dune") is None:
        log("perfbench: dune is not on PATH")
        sys.exit(2)
    # the generator is one thread
    if SPEC["domains"] + 1 > len(CORES):
        log("perfbench: refusing to start: daemon domains (%d) + 1 generator thread exceed nproc (%d)"
            % (SPEC["domains"], len(CORES)))
        sys.exit(2)


def build():
    t0 = time.perf_counter()
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD, "--profile", "release",
         "bin/dmnet.exe", "perfbench/pb.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("perfbench: build failed")
        sys.exit(1)
    log("perfbench: built in %.1fs" % (time.perf_counter() - t0))


def digest(paths, extra=""):
    """A short hash of the files' contents and of extra. The exact-count
    ledger is keyed on the built binaries, the generated inputs and the
    daemon flags, so only runs of one program on one input are compared."""
    h = hashlib.sha256(extra.encode())
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def sizing(w, seconds, smoke):
    """(paced epochs, total epochs, paced rate). The stream length depends
    on the workload and --seconds only, so one seed always gives the
    same inputs and the same exact counts."""
    epoch = w["daemon"]["epoch"]
    if smoke:
        return 6, 12, w["paced_rate"] / 10.0
    paced = w["paced_epochs"]
    sat_s = max(1.0, seconds - paced * epoch / w["paced_rate"])
    return paced, paced + max(4, round(w["sat_nominal_eps"] * sat_s / epoch)), float(w["paced_rate"])


def fresh(*paths):
    for p in paths:
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.unlink(p)


class Daemon:
    """One `dmnet serve` process with the workload's flags; set-up is
    timed from spawn until its socket accepts a connection."""

    def __init__(self, w, wdir, tag):
        d = w["daemon"]
        self.sock = os.path.join(wdir, tag + ".sock")
        self.metrics = os.path.join(wdir, "metrics-%s.json" % tag)
        journal, ckpt = os.path.join(wdir, "journal-" + tag), os.path.join(wdir, "ckpt-" + tag)
        fresh(journal, ckpt, self.sock, self.metrics)
        argv = [DMNET, "serve", os.path.join(wdir, "inst.dmn"), "--socket", self.sock,
                "--domains", str(SPEC["domains"]), "--policy", d["policy"],
                "--epoch", str(d["epoch"]), "--journal", journal, "--ckpt", ckpt,
                "--ckpt-every", str(d["ckpt_every"]), "--metrics-out", self.metrics]
        self.stderr = open(os.path.join(wdir, "daemon-%s.log" % tag), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=self.stderr, preexec_fn=pin_to_daemon_core)
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                self.setup_s = time.perf_counter() - t0
                s.close()
                return
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
            # spin, do not sleep: waking from a timer can take longer
            # than the set-up being timed
            if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                self.kill()
                raise GateError("dmnet serve did not come up (see %s)" % self.stderr.name)

    def shutdown(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        s.sendall(b"shutdown\n")
        s.recv(16)
        s.close()
        self.wait()

    def wait(self):
        try:
            code = self.proc.wait(timeout=120)
        finally:
            self.kill()
        if code != 0:
            raise GateError("dmnet serve exited with %d (see %s)" % (code, self.stderr.name))

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


def start_ups(w, wdir):
    """Set up and shut down SETUP_BATCH daemons; their set-up times."""
    # each set-up fsyncs a journal header: start them on a clean page cache
    os.sync()
    times = []
    for _ in range(SETUP_BATCH):
        d = Daemon(w, wdir, "setup")
        times.append(d.setup_s)
        d.shutdown()
    return times


def daemon_run(w, wdir, paced_epochs, rate):
    """Set up one daemon and drive it. Whenever the generator reports the
    daemon idle (before each stretch and after the last), time a batch of
    other daemons' start-ups; returns them with the driven one's."""
    os.sync()
    d = Daemon(w, wdir, "daemon")
    out = os.path.join(wdir, "drive.json")
    setups = [d.setup_s]
    try:
        with open(os.path.join(wdir, "drive.log"), "w") as err:
            gen = subprocess.Popen(
                [PB, "drive", "--socket", d.sock, "--pid", str(d.proc.pid),
                 "--stream", os.path.join(wdir, "stream.v1"), "--epoch", str(w["daemon"]["epoch"]),
                 "--chunk", str(w["chunk"]), "--paced-rate", repr(rate),
                 "--paced-epochs", str(paced_epochs), "--out", out],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                for _ in gen.stdout:
                    setups += start_ups(w, wdir)
                    gen.stdin.write("go\n")
                    gen.stdin.flush()
                code = gen.wait(timeout=60)
            finally:
                if gen.poll() is None:
                    gen.kill()
                    gen.wait()
        if code != 0:
            with open(err.name) as f:
                raise GateError("pb drive failed (exit %d):\n%s" % (code, f.read()[-2000:]))
    except BaseException:
        d.kill()
        raise
    d.wait()
    return load(out), d.metrics, setups


def same_bytes(a, b, what):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() != fb.read():
            raise GateError("%s differs from the Engine.run_items reference (%s vs %s)" % (what, a, b))


def check_ledger(key, counts):
    """Exact counts must repeat exactly across runs of one program on one input."""
    path = os.path.join(WORK, "ledger.json")
    ledger = load(path) if os.path.exists(path) else {}
    if ledger.get(key, counts) != counts:
        raise GateError("exact counts changed between runs of %s: %s vs %s" % (key, ledger[key], counts))
    ledger[key] = counts
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)


def mirror(w, wdir, paced_epochs, traced):
    tag = "traced" if traced else "untraced"
    journal, ckpt = os.path.join(wdir, "journal-" + tag), os.path.join(wdir, "ckpt-" + tag)
    fresh(journal, ckpt)
    out, metrics = os.path.join(wdir, "mirror-%s.json" % tag), os.path.join(wdir, "metrics-%s.json" % tag)
    run([PB, "mirror", "--traced", "1" if traced else "0", "--inst", os.path.join(wdir, "inst.dmn"),
         "--stream", os.path.join(wdir, "stream.v1"), "--policy", w["daemon"]["policy"],
         "--epoch", str(w["daemon"]["epoch"]), "--ckpt-every", str(w["daemon"]["ckpt_every"]),
         "--paced-epochs", str(paced_epochs), "--domains", str(SPEC["domains"]),
         "--journal", journal, "--ckpt", ckpt, "--metrics-out", metrics,
         "--spans-out", os.path.join(wdir, "spans.jsonl"), "--out", out], daemon_core=True)
    return load(out), metrics


def one_run(program, name, seed, seconds, trace, smoke=False):
    w = SPEC["workloads"][name]
    wdir = os.path.join(WORK, name)
    fresh(wdir)
    os.makedirs(wdir)
    epoch = w["daemon"]["epoch"]
    paced_epochs, total_epochs, rate = sizing(w, seconds, smoke)
    inst, stream = w["instance"], w["stream"]
    run([PB, "gen", "--seed", str(seed), "--dir", wdir, "--stream", stream["kind"], "--n", str(inst["n"]), "--radius", repr(inst["radius"]),
         "--objects", str(inst["objects"]), "--zipf-s", repr(inst["zipf_s"]),
         "--write-share", repr(inst["write_share"]), "--fee-lo", repr(inst["fee_lo"]),
         "--fee-hi", repr(inst["fee_hi"]), "--requests", str(total_epochs * epoch),
         "--phase-length", str(stream["phase_epochs"] * epoch)])

    # the measured part, run again once if the generator fell behind
    started = time.perf_counter()
    for attempt in (1, 2):
        drive, daemon_metrics, setups = daemon_run(w, wdir, paced_epochs, rate)
        lags = drive["lags_ms"]
        lag_p50, lag_p95 = statistics.median(lags), pct(lags, 95)
        late_p99 = pct(drive["late_ms"], 99)
        # Honesty: a lag is timed from its closing request's due time, so
        # generator lateness is part of it. Timed from the actual send,
        # neither percentile may move by more than LATE_FRAC_MAX.
        sent = [lag - late for lag, late in zip(lags, drive["closing_late_ms"])]
        shift = max(1 - statistics.median(sent) / lag_p50, 1 - pct(sent, 95) / lag_p95)
        if smoke or shift <= LATE_FRAC_MAX:
            break
        log("perfbench: generator lateness (p99 %.3f ms) moved the lag percentiles by %.1f%%: "
            "paced phase rejected%s" % (late_p99, 100 * shift, ", running it again" if attempt == 1 else ""))
    else:
        raise GateError("the generator fell behind its paced schedule twice")
    measured_s = time.perf_counter() - started

    # ---- correctness gates (untimed) ----
    ref_metrics, ref_out = os.path.join(wdir, "metrics-reference.json"), os.path.join(wdir, "reference.json")
    run([PB, "reference", "--inst", os.path.join(wdir, "inst.dmn"), "--stream", os.path.join(wdir, "stream.v1"),
         "--policy", w["daemon"]["policy"], "--epoch", str(epoch), "--domains", str(SPEC["domains"]),
         "--metrics-out", ref_metrics, "--out", ref_out])
    ref = load(ref_out)
    same_bytes(daemon_metrics, ref_metrics, "the daemon's --metrics-out")
    requests = drive["requests"]
    if drive["shed"] != 0 or drive["malformed"] != 0:
        raise GateError("server.shed=%d server.malformed=%d (both must be 0)" % (drive["shed"], drive["malformed"]))
    if drive["served"] != requests or ref["events"] != requests:
        raise GateError("served %d, reference %d, sent %d" % (drive["served"], ref["events"], requests))
    file_bytes = drive["wchar"] - drive["ctl_bytes"]
    inputs = digest([os.path.join(wdir, "inst.dmn"), os.path.join(wdir, "stream.v1")],
                    json.dumps(w["daemon"], sort_keys=True))
    key = "%s/%s/%d/%s" % (program, name, seed, inputs)
    check_ledger(key, dict(ref, file_bytes=file_bytes))

    e2e = {
        "commit_eps": drive["sat_requests"] / drive["sat_s"],
        "commit_lag_p50_ms": lag_p50,
        "commit_lag_p95_ms": lag_p95,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": drive["vmhwm_kb"] / 1024.0,
        "write_bytes_per_event": file_bytes / drive["served"],
    }
    failed = requests - drive["served"]
    log("perfbench: %s seed %d: %d requests (%d paced epochs at %.0f req/s, %d saturating), "
        "%d stats polls; %d set-ups %.4f..%.4f s; measured part %.1f s, gates done at %.1f s"
        % (name, seed, requests, paced_epochs, rate, total_epochs - paced_epochs, drive["stats_sent"],
           len(setups), min(setups), max(setups), measured_s, time.perf_counter() - started))
    for k, unit in END_TO_END:
        print("%-24s %14.4f %s" % (k, e2e[k], unit))
    print("%-24s %14.4f %s" % ("failed_frac", failed / requests, "ratio"))
    print("%-24s %14d %s" % ("paced epochs (lags)", len(lags), "count"))
    result = {"correct": True, "attempted": requests, "failed": failed,
              "metrics": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}}
    if not trace:
        return result

    # ---- the traced run: the daemon's layer calls, in-process ----
    plain, plain_metrics = mirror(w, wdir, paced_epochs, traced=False)
    same_bytes(plain_metrics, ref_metrics, "the untraced mirror's Engine.metrics_json")
    traced, traced_metrics = mirror(w, wdir, paced_epochs, traced=True)
    same_bytes(traced_metrics, ref_metrics, "the traced mirror's Engine.metrics_json")
    for k, v in ref.items():
        if plain[k] != v or traced[k] != v:
            raise GateError("mirror count %s: untraced %s, traced %s, reference %s" % (k, plain[k], traced[k], v))
    mirror_counts = {k: traced[k] for k in ("items", "journal_bytes", "ckpt_writes", "ckpt_bytes_first",
                                            "ckpt_bytes_last", "metrics_json_bytes")}
    if any(plain[k] != v for k, v in mirror_counts.items()):
        raise GateError("untraced and traced mirrors disagree: %s" % mirror_counts)
    check_ledger(key + "/mirror", mirror_counts)

    layer = dict(traced["metrics"])
    if layer["tracing.coverage"] < 0.90:
        raise GateError("tracing.coverage %.3f < 0.90" % layer["tracing.coverage"])
    layer["gen.late_ms_p99"] = late_p99
    layer["server.loop_ns_per_event"] = 1e9 * (drive["sat_s"] / drive["sat_requests"]
                                               - plain["sat_s"] / plain["sat_requests"])
    layer["server.queue_depth_max"] = drive["queue_depth_max"]
    layer["server.shed"] = drive["shed"]
    layer["server.malformed"] = drive["malformed"]
    layer["tracing.overhead_frac"] = traced["traced_wall_s"] / plain["wall_s"] - 1.0

    print("%-22s %12s %8s %8s" % ("layer", "self ms", "share", "spans"))
    for row in sorted(traced["layers"], key=lambda r: -r["self_ms"]):
        print("%-22s %12.2f %8.4f %8d" % (row["layer"], row["self_ms"], row["share"], row["spans"]))
    print("tracing.coverage %.4f  tracing.overhead_frac %.4f  traced wall %.3f s  spans in %s"
          % (layer["tracing.coverage"], layer["tracing.overhead_frac"], traced["traced_wall_s"],
             os.path.join(wdir, "spans.jsonl")))
    # share.<layer>: the layer's self time over the traced wall (0 when it never ran)
    shares = {row["layer"]: row["share"] for row in traced["layers"]}
    for n in PER_LAYER:
        if n.startswith("share."):
            layer[n] = shares.get(n[len("share."):], 0.0)
    missing = sorted(set(PER_LAYER) - set(layer))
    if missing:
        raise GateError("per-layer metrics not measured: %s" % missing)
    result["metrics"] = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    return result


def cleanup(name):
    """Drop the bulky inputs and state of a finished run; keep its
    results, logs and span dump."""
    wdir = os.path.join(WORK, name)
    for entry in os.listdir(wdir) if os.path.isdir(wdir) else []:
        if entry == "stream.v1" or entry.startswith(("journal-", "ckpt-")):
            fresh(os.path.join(wdir, entry))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, help="workload seed (default: the workload's default seed)")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny size, trace 0 and 1, every correctness gate, for each selected workload")
    args = ap.parse_args()
    if not (args.workload or args.all or args.smoke):
        ap.error("give --workload NAME, --all or --smoke")
    os.chdir(ROOT)
    preflight()
    names = [args.workload] if args.workload else sorted(SPEC["workloads"])
    os.makedirs(WORK, exist_ok=True)
    build()
    program = digest([DMNET, PB])
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True).stdout.strip() if shutil.which("ocamlfind") else "?"
    log("perfbench: nproc %d, OCaml %s; daemon on core %d, generator on core %d"
        % (len(CORES), ocaml, CORES[-1], CORES[0]))
    os.sched_setaffinity(0, {CORES[0]})
    try:
        if args.smoke:
            for name in names:
                seed = args.seed if args.seed is not None else SPEC["workloads"][name]["default_seed"]
                for trace in (0, 1):
                    one_run(program, name, seed, args.seconds, trace == 1, smoke=True)
                    cleanup(name)
                log("perfbench: smoke %s ok" % name)
            print(json.dumps({"smoke": "ok", "workloads": names}))
            return
        result = None
        for name in names:
            seed = args.seed if args.seed is not None else SPEC["workloads"][name]["default_seed"]
            result = one_run(program, name, seed, args.seconds, args.trace == 1)
            cleanup(name)
            if args.all:
                print(json.dumps(dict(result, workload=name)))
        if not args.all:
            print(json.dumps(result))
    except GateError as e:
        log("perfbench: FAILED: %s" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
