(* Replay engine: trace round-trips, cross-domain determinism, policy
   accounting, and streaming behaviour. *)

open Dmn_prelude
module I = Dmn_core.Instance
module P = Dmn_core.Placement
module A = Dmn_core.Approx
module Trace = Dmn_core.Serial.Trace
module St = Dmn_dynamic.Stream
module Sg = Dmn_dynamic.Strategy
module Sim = Dmn_dynamic.Sim
module En = Dmn_engine.Engine

let tmp_file =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dmnet-test-engine-%d-%d-%s" (Unix.getpid ()) !counter suffix)

let with_tmp suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* a fresh path for a checkpoint/journal directory (created by the code
   under test), recursively removed afterwards *)
let with_tmp_dir suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> Util.rm_rf path) (fun () -> f path)

let load_ckpt = Dmn_core.Ckpt_store.load

let small_instance ?(objects = 3) ?(n = 14) seed =
  let rng = Rng.create seed in
  let g = Dmn_graph.Gen.random_geometric rng n 0.45 in
  let nn = Dmn_graph.Wgraph.n g in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 1.0 6.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng ~objects ~n:nn ~total:(8 * nn) ~write_fraction:0.25
  in
  I.of_graph g ~cs ~fr ~fw

(* ---------- Serial.Trace ---------- *)

let trace_roundtrip () =
  let header = { Trace.nodes = 5; objects = 2 } in
  let events =
    [
      Trace.Req { Trace.node = 0; x = 0; write = false };
      Trace.Req { Trace.node = 4; x = 1; write = true };
      Trace.Req { Trace.node = 2; x = 0; write = false };
    ]
  in
  with_tmp "roundtrip.trace" @@ fun path ->
  let written = Err.get_ok (Trace.write_items_res path header (List.to_seq events)) in
  Alcotest.(check int) "event count" 3 written;
  Err.get_ok
  @@ Trace.with_items_res path (fun h evs ->
         Alcotest.(check int) "nodes" 5 h.Trace.nodes;
         Alcotest.(check int) "objects" 2 h.Trace.objects;
         Alcotest.(check bool) "events round-trip" true (List.of_seq evs = events))

let trace_streaming_is_lazy () =
  (* the reader must not materialize the file: events arrive as forced *)
  let header = { Trace.nodes = 3; objects = 1 } in
  let events =
    List.init 1000 (fun i -> Trace.Req { Trace.node = i mod 3; x = 0; write = i mod 7 = 0 })
  in
  with_tmp "lazy.trace" @@ fun path ->
  ignore (Err.get_ok (Trace.write_items_res path header (List.to_seq events)));
  Err.get_ok
  @@ Trace.with_items_res path (fun _ evs ->
         (* forcing only the first 10 elements must not fail or drain *)
         let taken = List.of_seq (Seq.take 10 evs) in
         Alcotest.(check int) "partial force" 10 (List.length taken);
         Alcotest.(check bool) "prefix matches" true
           (taken = List.filteri (fun i _ -> i < 10) events))

let trace_malformed_rejected () =
  let check_fails name contents expected_kind =
    with_tmp "bad.trace" @@ fun path ->
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    match Err.get_ok (Trace.with_items_res path (fun _ evs -> Seq.iter ignore evs)) with
    | exception Err.Error e ->
        if e.Err.kind <> expected_kind then
          Alcotest.failf "%s: expected %s error, got %s" name (Err.kind_name expected_kind)
            (Err.kind_name e.Err.kind)
    | _ -> Alcotest.failf "%s: malformed trace accepted" name
  in
  check_fails "wrong magic" "dmnet-oops v1\n3 1\n" Err.Parse;
  check_fails "wrong version" "dmnet-trace v9\n3 1\n" Err.Parse;
  check_fails "truncated header" "dmnet-trace v1\n" Err.Parse;
  check_fails "non-positive shape" "dmnet-trace v1\n0 1\n" Err.Validation;
  check_fails "bad kind token" "dmnet-trace v1\n3 1\nq 0 0\n" Err.Parse;
  check_fails "non-integer node" "dmnet-trace v1\n3 1\nr zero 0\n" Err.Parse;
  check_fails "node out of range" "dmnet-trace v1\n3 1\nr 3 0\n" Err.Validation;
  check_fails "object out of range" "dmnet-trace v1\n3 1\nw 0 1\n" Err.Validation;
  check_fails "trailing junk on line" "dmnet-trace v1\n3 1\nr 0 0 9\n" Err.Parse

let trace_write_validates_events () =
  with_tmp "invalid-ev.trace" @@ fun path ->
  let header = { Trace.nodes = 2; objects = 1 } in
  match
    Err.get_ok
      (Trace.write_items_res path header
         (List.to_seq [ Trace.Req { Trace.node = 2; x = 0; write = false } ]))
  with
  | exception Err.Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation);
      Alcotest.(check bool) "no partial file left" true (not (Sys.file_exists path))
  | _ -> Alcotest.fail "out-of-range event written"

(* ---------- engine basics ---------- *)

let engine_rejects_bad_inputs () =
  let inst = small_instance 10 in
  let placement = A.solve inst in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  expect_invalid "non-positive epoch" (fun () ->
      En.run ~config:{ En.default_config with En.epoch = 0 } inst placement Seq.empty);
  expect_invalid "non-positive period" (fun () ->
      En.run ~config:{ En.default_config with En.storage_period = Some 0 } inst placement Seq.empty);
  expect_invalid "out-of-range event node" (fun () ->
      En.run inst placement (List.to_seq [ { St.node = I.n inst; x = 0; kind = St.Read } ]));
  expect_invalid "out-of-range event object" (fun () ->
      En.run inst placement
        (List.to_seq [ { St.node = 0; x = I.objects inst; kind = St.Read } ]));
  expect_invalid "foreign placement" (fun () ->
      En.run inst (P.uniform ~objects:(I.objects inst + 1) [ 0 ]) Seq.empty);
  (* zero-volume instance: no default period, but an explicit one works *)
  let g = Dmn_graph.Gen.path 3 in
  let zero = [| Array.make 3 0 |] in
  let zinst = I.of_graph g ~cs:(Array.make 3 1.0) ~fr:zero ~fw:zero in
  let zp = P.uniform ~objects:1 [ 0 ] in
  expect_invalid "zero-volume default period" (fun () -> En.run zinst zp Seq.empty);
  let r = En.run ~config:{ En.default_config with En.storage_period = Some 4 } zinst zp Seq.empty in
  Alcotest.(check int) "no epochs on an empty stream" 0 (List.length r.En.epochs);
  Alcotest.(check int) "totals empty" 0 r.En.totals.En.events

let engine_consumes_stream_once () =
  let inst = small_instance 11 in
  let placement = A.solve inst in
  let forced = ref 0 in
  let events =
    Seq.map
      (fun e ->
        incr forced;
        e)
      (List.to_seq (St.stationary (Rng.create 3) inst ~length:750))
  in
  let r =
    En.run ~config:{ En.default_config with En.policy = En.Static; En.epoch = 100 } inst
      placement events
  in
  Alcotest.(check int) "every event forced exactly once" 750 !forced;
  Alcotest.(check int) "every event served" 750 r.En.totals.En.events;
  Alcotest.(check int) "ceil(750/100) epochs" 8 (List.length r.En.epochs);
  (* last epoch is the partial one *)
  let last = List.nth r.En.epochs 7 in
  Alcotest.(check int) "partial epoch length" 50 last.En.events

(* ---------- determinism across domain counts ---------- *)

let engine_deterministic_across_domains () =
  let inst = small_instance ~objects:4 12 in
  let placement = A.solve inst in
  let stream () = St.drifting_seq (Rng.create 9) inst ~phases:5 ~phase_length:300 ~write_fraction:0.2 in
  let run_at policy domains =
    Pool.with_pool ~domains (fun pool ->
        let config = { En.default_config with En.policy; En.epoch = 250 } in
        En.metrics_json inst (En.run ~pool ~config inst placement (stream ())))
  in
  List.iter
    (fun policy ->
      let j1 = run_at policy 1 in
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "%s: domains %d == domains 1" (En.policy_name policy) d)
            j1 (run_at policy d))
        [ 2; 4 ])
    [ En.Static; En.Resolve; En.Cache ]

(* Memoization is pure: the versioned serve caches must not move a
   single bit of the metrics JSON relative to the recompute-everything
   baseline, for any policy at any domain count. *)
let engine_cached_matches_uncached () =
  let inst = small_instance ~objects:4 17 in
  let placement = A.solve inst in
  let stream () =
    St.drifting_seq (Rng.create 12) inst ~phases:5 ~phase_length:300 ~write_fraction:0.3
  in
  let run_at policy domains serve_cache =
    Pool.with_pool ~domains (fun pool ->
        let config = { En.default_config with En.policy; En.epoch = 250; En.serve_cache } in
        En.metrics_json inst (En.run ~pool ~config inst placement (stream ())))
  in
  List.iter
    (fun policy ->
      let uncached = run_at policy 1 false in
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "%s: cached at %d domains == uncached" (En.policy_name policy) d)
            uncached (run_at policy d true))
        [ 1; 2; 4 ])
    [ En.Static; En.Resolve; En.Cache ]

(* ---------- accounting ---------- *)

let engine_static_matches_simulator () =
  (* the engine's static policy and the list simulator charge the same
     serving costs and the same pro-rated rent *)
  let inst = small_instance ~objects:2 13 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 21) inst ~length:900 in
  let sim = Sim.run ~storage_period:400 inst (Sg.static inst placement) events in
  let r =
    En.run
      ~config:
        { En.default_config with En.policy = En.Static; En.epoch = 400; En.storage_period = Some 400 }
      inst placement (List.to_seq events)
  in
  Util.check_cost "serving matches Sim.run" sim.Sim.serving r.En.totals.En.serving;
  Util.check_cost "storage matches Sim.run" sim.Sim.storage r.En.totals.En.storage;
  Util.check_cost "no migration under static" 0.0 r.En.totals.En.migration;
  Alcotest.(check int) "final copies match" sim.Sim.final_copies r.En.totals.En.copies

let engine_epoch_stats_consistent () =
  let inst = small_instance ~objects:3 14 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 31) inst ~length:1000 in
  let r =
    En.run ~config:{ En.default_config with En.epoch = 300 } inst placement (List.to_seq events)
  in
  let t = r.En.totals in
  let sum f = List.fold_left (fun acc (e : En.epoch_stats) -> acc +. f e) 0.0 r.En.epochs in
  let sumi f = List.fold_left (fun acc (e : En.epoch_stats) -> acc + f e) 0 r.En.epochs in
  Alcotest.(check int) "events partition into epochs" t.En.events (sumi (fun e -> e.En.events));
  Alcotest.(check int) "reads + writes = events" t.En.events (t.En.reads + t.En.writes);
  Util.check_cost "serving totals" t.En.serving (sum (fun e -> e.En.serving));
  Util.check_cost "storage totals" t.En.storage (sum (fun e -> e.En.storage));
  Util.check_cost "migration totals" t.En.migration (sum (fun e -> e.En.migration));
  List.iter
    (fun (e : En.epoch_stats) ->
      Util.check_leq "p50 <= p95" e.En.p50 e.En.p95;
      Util.check_leq "p95 <= p99" e.En.p95 e.En.p99;
      if e.En.copies <= 0 then Alcotest.fail "copy count must stay positive")
    r.En.epochs;
  (* the document's timeline: one entry per epoch, counters cumulative
     and monotonic *)
  let timeline =
    match Jsonx.member_exn "epochs" (Jsonx.parse_exn (En.metrics_json inst r)) with
    | Jsonx.Arr l -> l
    | _ -> Alcotest.fail "epochs is not an array"
  in
  Alcotest.(check int) "one timeline entry per epoch" (List.length r.En.epochs)
    (List.length timeline);
  let rec monotonic last = function
    | [] -> ()
    | entry :: rest ->
        let c = Option.get (Option.bind (Jsonx.member "events_total" entry) Jsonx.to_int) in
        Util.check_leq "events_total monotonic" (float_of_int last) (float_of_int c);
        monotonic c rest
  in
  monotonic 0 timeline;
  let counter_of snap name =
    match List.assoc name snap with Metrics.Counter c -> c | _ -> Alcotest.fail "not a counter"
  in
  Alcotest.(check int) "final counter = all events" t.En.events (counter_of r.En.final "events_total")

let engine_resolve_beats_static_on_drift () =
  let inst = small_instance ~objects:3 ~n:20 15 in
  let placement = A.solve inst in
  let stream () = St.drifting_seq (Rng.create 4) inst ~phases:8 ~phase_length:500 ~write_fraction:0.15 in
  let total policy =
    let config = { En.default_config with En.policy; En.epoch = 250 } in
    En.total_cost (En.run ~config inst placement (stream ())).En.totals
  in
  let s = total En.Static and r = total En.Resolve in
  Util.check_leq "epoch re-solve beats the stale static placement" r s

(* ---------- trace-driven runs ---------- *)

let engine_run_trace_and_metrics_file () =
  let inst = small_instance ~objects:2 16 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 41) inst ~length:600 in
  with_tmp "run.trace" @@ fun trace_path ->
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  let written =
    Err.get_ok
      (Trace.write_items_res trace_path header
         (Seq.map
            (fun { St.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = St.Write })
            (List.to_seq events)))
  in
  Alcotest.(check int) "trace length" 600 written;
  let config = { En.default_config with En.epoch = 200 } in
  let from_trace = En.run_trace ~config inst placement trace_path in
  let from_seq = En.run ~config inst placement (List.to_seq events) in
  Alcotest.(check string) "trace replay == in-memory replay"
    (En.metrics_json inst from_seq)
    (En.metrics_json inst from_trace);
  (* metrics file lands atomically and parses back as the same bytes *)
  with_tmp "metrics.json" @@ fun mpath ->
  En.write_metrics mpath inst from_trace;
  let ic = open_in_bin mpath in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "file contents" (En.metrics_json inst from_trace ^ "\n") contents

let engine_run_trace_rejects_mismatched_header () =
  let inst = small_instance ~objects:2 17 in
  let placement = A.solve inst in
  with_tmp "mismatch.trace" @@ fun path ->
  let header = { Trace.nodes = I.n inst + 1; objects = I.objects inst } in
  ignore
    (Err.get_ok
       (Trace.write_items_res path header
          (List.to_seq [ Trace.Req { Trace.node = 0; x = 0; write = false } ])));
  match En.run_trace inst placement path with
  | exception Err.Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation)
  | _ -> Alcotest.fail "mismatched trace header accepted"

(* ---------- checkpoint / resume ---------- *)

let write_trace inst path events =
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  ignore
    (Err.get_ok
       (Trace.write_items_res path header
          (Seq.map
             (fun { St.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = St.Write })
             (List.to_seq events))))

let engine_resume_is_byte_identical () =
  let inst = small_instance ~objects:3 18 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 51) inst ~length:1200 in
  with_tmp "resume.trace" @@ fun trace_path ->
  write_trace inst trace_path events;
  with_tmp_dir "resume.ckptdir" @@ fun ckpt_path ->
  let config = { En.default_config with En.epoch = 150 } in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let uninterrupted =
        En.metrics_json inst (En.run_trace ~pool ~config inst placement trace_path)
      in
      (* first leg: checkpoint every other epoch, stop after 5 of 8 by
         truncating the stream the way a crash would *)
      let prefix = List.filteri (fun i _ -> i < 750) events in
      let _ =
        En.run ~pool ~config ~ckpt:{ En.dir = ckpt_path; every = 2; keep = 3 } inst placement
          (List.to_seq prefix)
      in
      let c = load_ckpt ckpt_path in
      Alcotest.(check int) "checkpoint at epoch boundary 4" 4
        c.Dmn_core.Ckpt_store.ckpt.next_epoch;
      (* second leg: resume against the full trace *)
      let resumed =
        En.run_trace ~pool ~config ~resume:c inst placement trace_path
      in
      Alcotest.(check string)
        (Printf.sprintf "resumed == uninterrupted at %d domains" domains)
        uninterrupted
        (En.metrics_json inst resumed);
      (* the ops registry records the resume *)
      (match List.assoc "resumes" resumed.En.ops with
      | Metrics.Counter 1 -> ()
      | _ -> Alcotest.fail "resume not recorded in ops");
      (* resuming a checkpoint that already covers the whole trace is a
         no-op run with identical output *)
      let full =
        En.run ~pool ~config ~ckpt:{ En.dir = ckpt_path; every = 1; keep = 3 } inst placement
          (List.to_seq events)
      in
      let c_full = load_ckpt ckpt_path in
      Alcotest.(check int) "final checkpoint covers all epochs" 8
        c_full.Dmn_core.Ckpt_store.ckpt.next_epoch;
      let resumed_full = En.run_trace ~pool ~config ~resume:c_full inst placement trace_path in
      Alcotest.(check string) "zero-remaining-events resume identical"
        (En.metrics_json inst full)
        (En.metrics_json inst resumed_full))
    [ 1; 4 ]

(* ---------- a topology-only batch is an epoch ---------- *)

(* A batch of topology items alone — a daemon tick that flushes only
   "nd 5" — is an epoch of zero requests whose row carries the applied
   event. Every later checkpoint's rows then still account for the
   topology its meta section says was applied: the newest generation
   loads without fallback, and resuming from it reproduces the
   uninterrupted run. *)
let engine_topology_only_batch_is_an_epoch () =
  let inst = small_instance ~objects:3 23 in
  let placement = A.solve inst in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 3 } in
  let reqs = List.map (fun e -> St.Req e) (St.stationary (Rng.create 24) inst ~length:12) in
  let batches =
    [ St.Topo (Dmn_paths.Churn.Node_down 5) ]
    :: List.init 4 (fun i -> List.filteri (fun j _ -> j / 3 = i) reqs)
  in
  let run ~pool ?ckpt batches =
    let eng = En.create ~pool ~config ?ckpt inst placement in
    List.iter (En.step eng) batches;
    En.finish eng
  in
  let at domains =
    Pool.with_pool ~domains @@ fun pool ->
    with_tmp_dir "topo-only.ckptdir" @@ fun dir ->
    (* crash after the third request epoch: four generations written,
       the newest three kept *)
    let ckpt = { En.dir; every = 1; keep = 3 } in
    ignore (run ~pool ~ckpt (List.filteri (fun i _ -> i < 4) batches) : En.result);
    let loaded = Dmn_core.Ckpt_store.load dir in
    Alcotest.(check int) "newest generation loads without fallback" 0
      loaded.Dmn_core.Ckpt_store.fallbacks;
    Alcotest.(check int) "it covers the four epochs" 4
      loaded.Dmn_core.Ckpt_store.ckpt.next_epoch;
    let eng = En.create ~pool ~config ~ckpt ~resume:loaded inst placement in
    let rest = En.fast_forward_from eng ~base:0 (List.to_seq (List.concat batches)) in
    Alcotest.(check int) "the last batch remains" 3 (Seq.length rest);
    En.step eng (List.of_seq rest);
    let reference = run ~pool batches in
    (match reference.En.epochs with
    | first :: _ ->
        Alcotest.(check (pair int int)) "the topology-only epoch: 0 requests, 1 event" (0, 1)
          (first.En.events, first.En.topo)
    | [] -> Alcotest.fail "no epochs");
    Alcotest.(check int) "five epochs" 5 (List.length reference.En.epochs);
    Alcotest.(check int) "totals count the event" 1 reference.En.totals.En.topo;
    Alcotest.(check string)
      (Printf.sprintf "resume == uninterrupted at %d domains" domains)
      (En.metrics_json inst reference)
      (En.metrics_json inst (En.finish eng))
  in
  List.iter at [ 1; 4 ]

let engine_resume_rejects_mismatches () =
  let inst = small_instance ~objects:2 19 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 61) inst ~length:400 in
  with_tmp "reject.trace" @@ fun trace_path ->
  write_trace inst trace_path events;
  with_tmp_dir "reject.ckptdir" @@ fun ckpt_path ->
  let config = { En.default_config with En.epoch = 100 } in
  let _ =
    En.run ~config ~ckpt:{ En.dir = ckpt_path; every = 1; keep = 3 } inst placement (List.to_seq events)
  in
  let c = load_ckpt ckpt_path in
  let expect_validation name f =
    match f () with
    | exception Err.Error e ->
        if e.Err.kind <> Err.Validation then
          Alcotest.failf "%s: wrong kind %s" name (Err.kind_name e.Err.kind)
    | _ -> Alcotest.failf "%s: accepted" name
  in
  (* policy mismatch *)
  expect_validation "policy mismatch" (fun () ->
      En.run_trace
        ~config:{ config with En.policy = En.Static }
        ~resume:c inst placement trace_path);
  (* epoch-size mismatch *)
  expect_validation "epoch size mismatch" (fun () ->
      En.run_trace ~config:{ config with En.epoch = 99 } ~resume:c inst placement trace_path);
  (* dirty-eps mismatch: the filter threshold is part of the run
     geometry (it shapes every epoch's dirty set) *)
  expect_validation "dirty-eps mismatch" (fun () ->
      En.run_trace ~config:{ config with En.dirty_eps = 0.5 } ~resume:c inst placement trace_path);
  (* a different trace: same shape, different events *)
  (let other = St.stationary (Rng.create 62) inst ~length:400 in
   with_tmp "other.trace" @@ fun other_path ->
   write_trace inst other_path other;
   expect_validation "fingerprint mismatch" (fun () ->
       En.run_trace ~config ~resume:c inst placement other_path));
  (* a shorter trace than the checkpoint consumed *)
  (let short = List.filteri (fun i _ -> i < 100) events in
   with_tmp "short.trace" @@ fun short_path ->
   write_trace inst short_path short;
   expect_validation "short trace" (fun () ->
       En.run_trace ~config ~resume:c inst placement short_path));
  (* cache policy refuses both sides *)
  let cache_config = { config with En.policy = En.Cache } in
  expect_validation "cache + ckpt" (fun () ->
      En.run_trace ~config:cache_config
        ~ckpt:{ En.dir = ckpt_path; every = 1; keep = 3 }
        inst placement trace_path);
  expect_validation "cache + resume" (fun () ->
      En.run_trace ~config:cache_config ~resume:c inst placement trace_path)

(* ---------- graceful degradation under injected re-solve faults ---------- *)

let engine_degrades_when_resolve_fails () =
  let inst = small_instance ~objects:3 20 in
  let placement = A.solve inst in
  let events = St.drifting (Rng.create 71) inst ~phases:4 ~phase_length:250 ~write_fraction:0.2 in
  let config = { En.default_config with En.epoch = 200 } in
  (* rate 1.0 on the re-solve point: every attempt of every re-solve
     fails, every epoch falls back, the run still completes *)
  Fault.configure ~seed:1 ~rate:1.0 ~points:[ "engine.resolve" ] ();
  let degraded =
    Fun.protect ~finally:Fault.disable (fun () ->
        En.run ~config inst placement (List.to_seq events))
  in
  Alcotest.(check int) "all events served" 1000 degraded.En.totals.En.events;
  Alcotest.(check int) "no successful re-solves" 0 degraded.En.totals.En.resolves;
  Alcotest.(check bool) "fallbacks recorded" true (degraded.En.totals.En.solve_fallbacks > 0);
  Alcotest.(check bool) "retries recorded" true (degraded.En.totals.En.solve_retries > 0);
  Util.check_cost "no migration when every re-solve falls back" 0.0
    degraded.En.totals.En.migration;
  (* with every re-solve failing, resolve degrades to exactly static *)
  let static =
    En.run ~config:{ config with En.policy = En.Static } inst placement (List.to_seq events)
  in
  Util.check_cost "serving equals the static policy" static.En.totals.En.serving
    degraded.En.totals.En.serving;
  (* partial rate: outcomes must still be domain-independent *)
  let at domains =
    Fault.configure ~seed:9 ~rate:0.4 ~points:[ "engine.resolve" ] ();
    Fun.protect ~finally:Fault.disable (fun () ->
        Pool.with_pool ~domains (fun pool ->
            let r = En.run ~pool ~config inst placement (List.to_seq events) in
            ( En.metrics_json inst r,
              r.En.totals.En.solve_retries,
              r.En.totals.En.solve_fallbacks )))
  in
  let j1 = at 1 in
  List.iter
    (fun d ->
      if at d <> j1 then Alcotest.failf "degraded run diverged at %d domains" d)
    [ 2; 4 ]

(* ---------- incremental re-solve: dirty filtering ---------- *)

(* --dirty-eps 0 {e is} the full-resolve path: nothing is ever skipped,
   and the output stays a pure function of the trace — identical at
   every domain count even under topology churn and injected solver
   faults (the supervisor retries draw order-independent coins). *)
let qcheck_dirty_eps_zero_identity =
  QCheck.Test.make ~name:"dirty-eps 0: byte-identical across domains under churn+faults"
    ~count:5
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let inst = small_instance ~objects:3 (100 + seed) in
      let placement = A.solve inst in
      let items () =
        Dmn_workload.Adversary.failure_repair (Rng.create (seed + 1)) inst ~phases:3
          ~phase_length:200 ~write_fraction:0.2
      in
      let config =
        { En.default_config with En.policy = En.Resolve; En.epoch = 150; En.dirty_eps = 0.0 }
      in
      let run domains =
        Fault.configure ~seed:(seed + 7) ~rate:0.3 ~points:[ "engine.resolve" ] ();
        Fun.protect ~finally:Fault.disable (fun () ->
            Pool.with_pool ~domains (fun pool ->
                let r = En.run_items ~pool ~config inst placement (items ()) in
                (En.metrics_json inst r, r.En.totals.En.solve_skipped)))
      in
      let j1, sk1 = run 1 in
      if sk1 <> 0 then QCheck.Test.fail_reportf "eps 0 skipped %d objects" sk1;
      List.for_all (fun d -> run d = (j1, 0)) [ 2; 4 ])

let engine_dirty_filter_deterministic_and_skips () =
  let inst = small_instance ~objects:4 22 in
  let placement = A.solve inst in
  let stream () =
    St.drifting_seq (Rng.create 5) inst ~phases:4 ~phase_length:600 ~write_fraction:0.2
  in
  let config =
    { En.default_config with En.policy = En.Resolve; En.epoch = 200; En.dirty_eps = 0.3 }
  in
  let run domains =
    Pool.with_pool ~domains (fun pool ->
        En.run ~pool ~config inst placement (stream ()))
  in
  let r1 = run 1 in
  let j1 = En.metrics_json inst r1 in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "dirty filtering at %d domains == 1 domain" d)
        j1
        (En.metrics_json inst (run d)))
    [ 2; 4 ];
  (* a long dwell inside each phase means most epochs have little drift:
     the filter must actually skip work *)
  Alcotest.(check bool) "some epochs skip re-solves" true (r1.En.totals.En.solve_skipped > 0);
  (* per-epoch accounting: every dirty object either re-solved or fell
     back, and dirty + skipped covers every counted outcome *)
  List.iter
    (fun (e : En.epoch_stats) ->
      Alcotest.(check int) "dirty = resolves + fallbacks" e.En.dirty
        (e.En.resolves + e.En.solve_fallbacks);
      Alcotest.(check int) "no cache traffic with the cache off" 0
        (e.En.cache_hits + e.En.cache_misses + e.En.cache_evictions))
    r1.En.epochs;
  (* the filter only skips stable objects: the re-solve policy must
     still track the drift better than never replanning at all *)
  let static =
    En.run
      ~config:{ config with En.policy = En.Static }
      inst placement (stream ())
  in
  Util.check_leq "incremental resolve still beats static on drift"
    (En.total_cost r1.En.totals)
    (En.total_cost static.En.totals)

(* ---------- the per-object solve cache ---------- *)

let qcheck_cache_key_stable =
  let module C = Dmn_core.Solve_cache in
  QCheck.Test.make ~name:"solve-cache key: quantization monotone, zero-preserving, stable"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
       QCheck.Gen.(pair (int_range 0 50_000) (int_range 0 50_000)))
    (fun (a, b) ->
      let qa = C.quantize a and qb = C.quantize b in
      (* two vectors agreeing bucket-by-bucket produce the same key;
         differing buckets produce different keys *)
      let key fr fw = C.key ~mhash:42L ~solver:"fp" ~epoch_events:100 ~period:400 ~fr ~fw in
      let k1 = key [| a; 0 |] [| 0; b |] and k2 = key [| a; 0 |] [| 0; b |] in
      (* monotone and zero-preserving *)
      (if a <= b then qa <= qb else qb <= qa)
      && (qa = 0) = (a = 0)
      && C.quantize a = qa (* deterministic *)
      && k1 = k2
      && (key [| b; 0 |] [| 0; a |] = k1) = (qa = qb))

let solve_cache_lru_behaviour () =
  let module C = Dmn_core.Solve_cache in
  let c = C.create ~capacity:2 in
  (match C.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  Alcotest.(check (option (list int))) "miss on empty" None (C.find c "k1");
  C.add c "k1" [ 1 ];
  C.add c "k2" [ 2 ];
  Alcotest.(check (option (list int))) "hit k1" (Some [ 1 ]) (C.find c "k1");
  (* k2 is now least recently used; adding k3 evicts it *)
  C.add c "k3" [ 3 ];
  Alcotest.(check (option (list int))) "k2 evicted" None (C.find c "k2");
  Alcotest.(check (option (list int))) "k1 survives" (Some [ 1 ]) (C.find c "k1");
  Alcotest.(check (option (list int))) "k3 cached" (Some [ 3 ]) (C.find c "k3");
  Alcotest.(check int) "length bounded" 2 (C.length c);
  let s = C.stats c in
  Alcotest.(check int) "hits" 3 s.C.hits;
  Alcotest.(check int) "misses" 2 s.C.misses;
  Alcotest.(check int) "evictions" 1 s.C.evictions

let engine_solve_cache_hits_on_recurring_regimes () =
  let inst = small_instance ~objects:3 23 in
  let placement = A.solve inst in
  (* the same 150-event block four times: epochs 2-4 present exactly the
     frequency vectors epoch 1 solved, so with eps 0 every dirty object
     after the first epoch is a guaranteed cache hit *)
  let block = St.stationary (Rng.create 77) inst ~length:150 in
  let events = block @ block @ block @ block in
  let config =
    {
      En.default_config with
      En.policy = En.Resolve;
      En.epoch = 150;
      En.storage_period = Some 600;
      En.dirty_eps = 0.0;
      En.solve_cache = 16;
    }
  in
  let r = En.run ~config inst placement (List.to_seq events) in
  let k = I.objects inst in
  Alcotest.(check int) "first epoch misses once per object" k
    (match r.En.epochs with e :: _ -> e.En.cache_misses | [] -> -1);
  Alcotest.(check int) "every later epoch hits for every object" (3 * k)
    r.En.totals.En.cache_hits;
  List.iter
    (fun (e : En.epoch_stats) ->
      Alcotest.(check int) "hits + misses = dirty" e.En.dirty (e.En.cache_hits + e.En.cache_misses))
    r.En.epochs;
  (* cache hits count as resolves (the placement row was recomputed,
     just not via the solver), so the invariant holds cache on or off *)
  Alcotest.(check int) "dirty accounting with cache on"
    r.En.totals.En.resolves
    (r.En.totals.En.cache_hits + r.En.totals.En.cache_misses
    - r.En.totals.En.solve_fallbacks);
  (* cache results must be identical across domain counts too *)
  let j1 = En.metrics_json inst r in
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "solve cache deterministic at %d domains" d)
            j1
            (En.metrics_json inst (En.run ~pool ~config inst placement (List.to_seq events)))))
    [ 2; 4 ]

let engine_solve_cache_refuses_checkpointing () =
  let inst = small_instance ~objects:2 24 in
  let placement = A.solve inst in
  let config = { En.default_config with En.solve_cache = 8 } in
  with_tmp_dir "cache-ckpt.dir" @@ fun dir ->
  (match En.create ~config ~ckpt:{ En.dir; every = 1; keep = 3 } inst placement with
  | exception Err.Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation)
  | _ -> Alcotest.fail "solve cache + checkpointing accepted");
  match En.create ~config:{ config with En.solve_cache = -1 } inst placement with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative solve cache accepted"

(* ---------- scratch reuse: clean epochs allocate little ---------- *)

let engine_scratch_reuse_bounds_allocation () =
  let inst = small_instance ~objects:3 ~n:20 31 in
  let placement = A.solve inst in
  let block = List.map (fun e -> St.Req e) (St.stationary (Rng.create 88) inst ~length:100) in
  let measure eps =
    let config =
      {
        En.default_config with
        En.policy = En.Resolve;
        En.epoch = 100;
        En.storage_period = Some 400;
        En.dirty_eps = eps;
      }
    in
    (* one domain: allocations made on pool workers would escape
       [Gc.allocated_bytes], which counts the calling domain only *)
    Pool.with_pool ~domains:1 @@ fun pool ->
    let eng = En.create ~pool ~config inst placement in
    (* two warm-up epochs populate the last-solved vectors and any
       lazily-built serve state *)
    En.step eng block;
    En.step eng block;
    let before = Gc.allocated_bytes () in
    En.step eng block;
    Gc.allocated_bytes () -. before
  in
  let full = measure 0.0 in
  (* identical blocks never drift, so at eps 1.0 the third epoch is
     entirely clean: no instance rebuild, no solver, reused scratch *)
  let clean = measure 1.0 in
  Util.check_leq "clean epoch allocates at most half of a full re-solve epoch" clean
    (full /. 2.0)

(* ---------- incremental step API ---------- *)

let engine_step_matches_run () =
  (* driving the engine epoch by epoch through [create]/[step]/[finish]
     must reproduce [run_items] byte-for-byte, partial tail included *)
  let inst = small_instance 29 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 61) inst ~length:730 in
  let items = List.map (fun e -> St.Req e) events in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference =
    En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items))
  in
  let eng = En.create ~config inst placement in
  let rec batches = function
    | [] -> []
    | rest ->
        let chunk = List.filteri (fun i _ -> i < 100) rest in
        let tail = List.filteri (fun i _ -> i >= 100) rest in
        chunk :: batches tail
  in
  List.iter
    (fun batch ->
      En.step eng batch;
      (* live accessors stay coherent between steps *)
      Alcotest.(check bool) "snapshot parses" true
        (Jsonx.parse (Metrics.snapshot_to_json (En.live_snapshot eng)) |> Result.is_ok))
    (batches items);
  Alcotest.(check int) "epochs done" 8 (En.epochs_done eng);
  Alcotest.(check int) "events consumed" 730 (En.events_consumed eng);
  let stepped = En.finish eng in
  Alcotest.(check string) "step == run_items" reference (En.metrics_json inst stepped);
  (* finish is idempotent *)
  Alcotest.(check string) "finish idempotent" reference (En.metrics_json inst (En.finish eng))

let engine_step_rejects_unforwarded_resume () =
  let inst = small_instance 3 in
  let placement = A.solve inst in
  let events = St.stationary (Rng.create 5) inst ~length:200 in
  let config = { En.default_config with En.epoch = 50 } in
  with_tmp_dir "step-resume.ckptdir" @@ fun ckpt_path ->
  let ckpt = { En.dir = ckpt_path; every = 1; keep = 3 } in
  ignore
    (En.run_items ~config ~ckpt inst placement
       (List.to_seq (List.map (fun e -> St.Req e) events)));
  let c = load_ckpt ckpt_path in
  let eng = En.create ~config ~resume:c inst placement in
  match En.step eng [ St.Req (List.hd events) ] with
  | () -> Alcotest.fail "step accepted a resumed engine without fast_forward_from"
  | exception Err.Error e ->
      if e.Err.kind <> Err.Validation then
        Alcotest.failf "expected a validation error, got %s" (Err.to_string e)

let suite =
  [
    Alcotest.test_case "trace roundtrip" `Quick trace_roundtrip;
    Alcotest.test_case "trace reader is lazy" `Quick trace_streaming_is_lazy;
    Alcotest.test_case "trace malformed inputs rejected" `Quick trace_malformed_rejected;
    Alcotest.test_case "trace write validates events" `Quick trace_write_validates_events;
    Alcotest.test_case "engine input validation" `Quick engine_rejects_bad_inputs;
    Alcotest.test_case "engine consumes stream once" `Quick engine_consumes_stream_once;
    Alcotest.test_case "engine deterministic across domains" `Quick
      engine_deterministic_across_domains;
    Alcotest.test_case "cached serving == uncached, all policies" `Quick
      engine_cached_matches_uncached;
    Alcotest.test_case "engine static matches simulator" `Quick engine_static_matches_simulator;
    Alcotest.test_case "engine epoch stats consistent" `Quick engine_epoch_stats_consistent;
    Alcotest.test_case "resolve beats static on drift" `Quick engine_resolve_beats_static_on_drift;
    Alcotest.test_case "trace-driven run + metrics file" `Quick engine_run_trace_and_metrics_file;
    Alcotest.test_case "trace header mismatch rejected" `Quick
      engine_run_trace_rejects_mismatched_header;
    Alcotest.test_case "resume is byte-identical (1/4 domains)" `Quick
      engine_resume_is_byte_identical;
    Alcotest.test_case "resume rejects mismatches" `Quick engine_resume_rejects_mismatches;
    Alcotest.test_case "topology-only batch is an epoch" `Quick
      engine_topology_only_batch_is_an_epoch;
    Alcotest.test_case "resolve failure degrades gracefully" `Quick
      engine_degrades_when_resolve_fails;
    Alcotest.test_case "incremental step matches one-shot run" `Quick engine_step_matches_run;
    Alcotest.test_case "step rejects an unforwarded resume" `Quick
      engine_step_rejects_unforwarded_resume;
    Util.qtest qcheck_dirty_eps_zero_identity;
    Alcotest.test_case "dirty filter deterministic and skips on dwell" `Quick
      engine_dirty_filter_deterministic_and_skips;
    Util.qtest qcheck_cache_key_stable;
    Alcotest.test_case "solve cache LRU behaviour" `Quick solve_cache_lru_behaviour;
    Alcotest.test_case "solve cache hits on recurring regimes" `Quick
      engine_solve_cache_hits_on_recurring_regimes;
    Alcotest.test_case "solve cache refuses checkpointing" `Quick
      engine_solve_cache_refuses_checkpointing;
    Alcotest.test_case "clean epochs reuse scratch (allocation pinned)" `Quick
      engine_scratch_reuse_bounds_allocation;
  ]
