(* Topology churn: incremental metric repair against from-scratch
   recomputation, the churn state machine's validation, serve caches
   tracking in-place metric repair, topology items in traces and
   fingerprints, and the engine's degraded serving — drops, emergency
   re-replication, cross-domain identity and kill-free resume under
   churn. *)

open Dmn_prelude
module I = Dmn_core.Instance
module P = Dmn_core.Placement
module A = Dmn_core.Approx
module Trace = Dmn_core.Serial.Trace
module Ck = Dmn_core.Serial.Checkpoint
module Wgraph = Dmn_graph.Wgraph
module Mt = Dmn_paths.Metric
module Ch = Dmn_paths.Churn
module St = Dmn_dynamic.Stream
module Sc = Dmn_dynamic.Serve_cache
module Ad = Dmn_workload.Adversary
module En = Dmn_engine.Engine

let tmp_file =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dmnet-test-churn-%d-%d-%s" (Unix.getpid ()) !counter suffix)

let with_tmp suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let with_tmp_dir suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> Util.rm_rf path) (fun () -> f path)

(* reference closure that tolerates disconnection ([Metric.of_graph]
   rejects unreachable pairs by design — the repaired metric is the only
   construction allowed to hold infinity) *)
let floyd_closure g =
  let n = Wgraph.n g in
  let mat = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    mat.(v).(v) <- 0.0
  done;
  List.iter
    (fun (u, v, w) ->
      if w < mat.(u).(v) then begin
        mat.(u).(v) <- w;
        mat.(v).(u) <- w
      end)
    (Wgraph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = mat.(i).(k) +. mat.(k).(j) in
        if via < mat.(i).(j) then mat.(i).(j) <- via
      done
    done
  done;
  mat

(* entrywise metric equality: same infinity pattern, finite entries
   within relative tolerance (repair and recompute order float ops
   differently) *)
let check_metric_matches what repaired reference =
  let n = Array.length reference in
  Alcotest.(check int) (what ^ ": size") n (Mt.size repaired);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let a = Mt.d repaired i j and b = reference.(i).(j) in
      if Float.is_finite b then begin
        if not (Float.is_finite a && Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs b)) then
          Alcotest.failf "%s: d(%d,%d) repaired %g but recomputed %g" what i j a b
      end
      else if Float.is_finite a then
        Alcotest.failf "%s: d(%d,%d) repaired %g but recomputed infinite" what i j a
    done
  done

(* two triangles joined by one bridge: removing (2,3) or killing an
   endpoint partitions the network along a line the test can predict *)
let bridge_graph () =
  Wgraph.create 6
    [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0); (4, 5, 1.0); (3, 5, 1.0) ]

(* ---------- incremental repair vs recompute ---------- *)

let repair_matches_recompute () =
  let rng = Rng.create 97 in
  let g = Dmn_graph.Gen.random_geometric rng 24 0.42 in
  let m = Mt.of_graph g in
  let ch = Ch.create g m in
  let u, v, w0 =
    match Wgraph.edges g with e :: _ -> e | [] -> Alcotest.fail "no edges"
  in
  let steps =
    [
      ("surge", Ch.Edge_weight { u; v; w = w0 *. 4.0 });
      ("relax", Ch.Edge_weight { u; v; w = w0 *. 0.25 });
      ("restore", Ch.Edge_weight { u; v; w = w0 });
      ("edge down", Ch.Edge_down { u; v });
      ("edge back", Ch.Edge_up { u; v; w = w0 });
      ("node down", Ch.Node_down 7);
      ("second node down", Ch.Node_down 11);
      ("node back", Ch.Node_up 7);
      ("last node back", Ch.Node_up 11);
    ]
  in
  let last_version = ref (Mt.version (Ch.metric ch)) in
  List.iter
    (fun (what, ev) ->
      Ch.apply ch ev;
      let got = Mt.version (Ch.metric ch) in
      if got <= !last_version then
        Alcotest.failf "%s: metric version did not advance (%d -> %d)" what !last_version got;
      last_version := got;
      check_metric_matches what (Ch.metric ch) (floyd_closure (Ch.graph ch)))
    steps;
  (* after the full up/down cycle the network is pristine again *)
  Alcotest.(check (list int)) "no down nodes" [] (Ch.down_nodes ch);
  check_metric_matches "round trip" (Ch.metric ch) (floyd_closure g);
  Alcotest.(check int) "events counted" (List.length steps) (Ch.events_applied ch)

let partition_yields_infinity () =
  let g = bridge_graph () in
  let m = Mt.of_graph g in
  let ch = Ch.create g m in
  Ch.apply ch (Ch.Edge_down { u = 2; v = 3 });
  let cm = Ch.metric ch in
  Alcotest.(check bool) "0-5 partitioned" false (Float.is_finite (Mt.d cm 0 5));
  Alcotest.(check bool) "0-2 still near" true (Mt.d cm 0 2 = 1.0);
  Alcotest.(check bool) "4-5 still near" true (Mt.d cm 4 5 = 1.0);
  check_metric_matches "bridge cut" cm (floyd_closure (Ch.graph ch));
  Ch.apply ch (Ch.Edge_up { u = 2; v = 3; w = 1.0 });
  check_metric_matches "bridge restored" (Ch.metric ch) (floyd_closure g);
  (* a dead node's rows are infinite except the diagonal *)
  Ch.apply ch (Ch.Node_down 3);
  let cm = Ch.metric ch in
  Alcotest.(check bool) "dead row infinite" false (Float.is_finite (Mt.d cm 3 0));
  Alcotest.(check (float 0.0)) "dead diagonal" 0.0 (Mt.d cm 3 3);
  Alcotest.(check bool) "far side cut off" false (Float.is_finite (Mt.d cm 0 4));
  Alcotest.(check bool) "4-5 intact" true (Mt.d cm 4 5 = 1.0);
  Alcotest.(check (list int)) "down list" [ 3 ] (Ch.down_nodes ch);
  Alcotest.(check bool) "liveness" false (Ch.alive ch 3);
  check_metric_matches "node down" cm (floyd_closure (Ch.graph ch))

let churn_rejects_invalid_events () =
  let g = bridge_graph () in
  let ch = Ch.create g (Mt.of_graph g) in
  let expect name ev =
    match Ch.apply ch ev with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Err.Error e ->
        if e.Err.kind <> Err.Validation then
          Alcotest.failf "%s: wrong kind %s" name (Err.kind_name e.Err.kind)
  in
  expect "absent edge reweighted" (Ch.Edge_weight { u = 0; v = 5; w = 1.0 });
  expect "absent edge downed" (Ch.Edge_down { u = 0; v = 5 });
  expect "present edge added" (Ch.Edge_up { u = 0; v = 1; w = 1.0 });
  expect "self-loop" (Ch.Edge_weight { u = 2; v = 2; w = 1.0 });
  expect "negative weight" (Ch.Edge_weight { u = 0; v = 1; w = -1.0 });
  expect "infinite weight" (Ch.Edge_up { u = 0; v = 4; w = infinity });
  expect "node out of range" (Ch.Node_down 6);
  expect "node up while live" (Ch.Node_up 0);
  Ch.apply ch (Ch.Node_down 0);
  expect "node down twice" (Ch.Node_down 0);
  (* events rejected by validation must not count as applied *)
  Alcotest.(check int) "only the valid event applied" 1 (Ch.events_applied ch)

(* ---------- serve caches under in-place repair ---------- *)

let serve_cache_tracks_metric_repair () =
  let g = bridge_graph () in
  let m = Mt.of_graph g in
  let ch = Ch.create g m in
  let cache = Sc.create (Ch.metric ch) ~x:0 [ 0 ] in
  let _, d0 = Sc.nearest cache 5 in
  Alcotest.(check (float 1e-9)) "pristine distance" 3.0 d0;
  let v0 = Sc.version cache in
  (* shorten the bridge: the memoized nearest table must be dropped *)
  Ch.apply ch (Ch.Edge_weight { u = 2; v = 3; w = 0.25 });
  let _, d1 = Sc.nearest cache 5 in
  Alcotest.(check (float 1e-9)) "repaired distance" 2.25 d1;
  Alcotest.(check bool) "version bumped by repair" true (Sc.version cache > v0);
  (* a partition turns the serve cost infinite rather than stale *)
  Ch.apply ch (Ch.Edge_down { u = 2; v = 3 });
  let _, d2 = Sc.nearest cache 5 in
  Alcotest.(check bool) "partitioned serve is infinite" false (Float.is_finite d2)

(* ---------- one-shot guard ---------- *)

let one_shot_guard_raises () =
  let s = St.one_shot "test.guard" (List.to_seq [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "first traversal intact" [ 1; 2; 3 ] (List.of_seq s);
  match List.of_seq s with
  | _ -> Alcotest.fail "second traversal accepted"
  | exception Err.Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation);
      Alcotest.(check bool) "names the generator" true
        (let msg = e.Err.msg in
         let has s =
           let ls = String.length s and lm = String.length msg in
           let rec go i = i + ls <= lm && (String.sub msg i ls = s || go (i + 1)) in
           go 0
         in
         has "test.guard")

(* ---------- topology items in traces and fingerprints ---------- *)

let trace_topo_roundtrip () =
  let header = { Trace.nodes = 6; objects = 2 } in
  let items =
    [
      Trace.Req { Trace.node = 0; x = 0; write = false };
      Trace.Topo (Ch.Edge_weight { u = 2; v = 3; w = 2.5 });
      Trace.Req { Trace.node = 4; x = 1; write = true };
      Trace.Topo (Ch.Edge_down { u = 0; v = 1 });
      Trace.Topo (Ch.Edge_up { u = 0; v = 1; w = 0.5 });
      Trace.Topo (Ch.Node_down 5);
      Trace.Topo (Ch.Node_up 5);
      Trace.Req { Trace.node = 5; x = 0; write = false };
    ]
  in
  with_tmp "topo.trace" @@ fun path ->
  let written = Trace.write_items path header (List.to_seq items) in
  Alcotest.(check int) "item count" (List.length items) written;
  Trace.with_items path (fun h got ->
      Alcotest.(check int) "nodes" 6 h.Trace.nodes;
      Alcotest.(check bool) "items round-trip" true (List.of_seq got = items))

let fingerprint_topo_is_sensitive () =
  let seed = Ck.fingerprint_init ~nodes:6 ~objects:2 in
  let fp it = Ck.fingerprint_item seed it in
  let distinct what a b =
    Alcotest.(check bool) what false (fp a = fp b)
  in
  let ew = Trace.Topo (Ch.Edge_weight { u = 1; v = 2; w = 1.0 }) in
  distinct "constructor matters" ew (Trace.Topo (Ch.Edge_up { u = 1; v = 2; w = 1.0 }));
  distinct "weight matters" ew (Trace.Topo (Ch.Edge_weight { u = 1; v = 2; w = 1.5 }));
  distinct "endpoints matter" ew (Trace.Topo (Ch.Edge_weight { u = 1; v = 3; w = 1.0 }));
  distinct "node matters" (Trace.Topo (Ch.Node_down 1)) (Trace.Topo (Ch.Node_up 1));
  (* a topology item can never collide with a request *)
  distinct "disjoint from requests"
    (Trace.Topo (Ch.Node_down 1))
    (Trace.Req { Trace.node = 1; x = 0; write = false });
  (* order sensitivity across the mixed grammar *)
  let fold its = List.fold_left Ck.fingerprint_item seed its in
  let r = Trace.Req { Trace.node = 0; x = 0; write = true } in
  Alcotest.(check bool) "order matters" false (fold [ r; ew ] = fold [ ew; r ])

(* ---------- engine: degraded serving ---------- *)

let bridge_instance () =
  let g = bridge_graph () in
  let cs = Array.make 6 2.0 in
  let fr = [| Array.make 6 1 |] and fw = [| Array.make 6 0 |] in
  I.of_graph g ~cs ~fr ~fw

let static_config epoch = { En.default_config with En.policy = En.Static; epoch }

let engine_counts_drops_and_emergency () =
  let inst = bridge_instance () in
  let placement = P.make [| [ 5 ] |] in
  let req node = St.Req { St.node; x = 0; kind = St.Read } in
  let items =
    [
      (* epoch 0: all served from node 5 *)
      req 0; req 1; req 2;
      (* epoch 1 opens by killing node 5: the only copy dies (emergency
         re-replication) and node 5's own request is dropped *)
      St.Topo (Ch.Node_down 5);
      req 5; req 0; req 1;
      (* epoch 2: node 5 recovers; everyone is served again *)
      St.Topo (Ch.Node_up 5);
      req 2; req 0; req 4;
    ]
  in
  let r = En.run_items ~config:(static_config 3) inst placement (List.to_seq items) in
  Alcotest.(check int) "events" 9 r.En.totals.En.events;
  Alcotest.(check int) "dropped" 1 r.En.totals.En.dropped;
  Alcotest.(check int) "emergency" 1 r.En.totals.En.emergency;
  Alcotest.(check int) "topo" 2 r.En.totals.En.topo;
  (match r.En.epochs with
  | [ e0; e1; e2 ] ->
      Alcotest.(check int) "epoch 0 clean" 0 (e0.En.dropped + e0.En.emergency + e0.En.topo);
      Alcotest.(check int) "epoch 1 drop" 1 e1.En.dropped;
      Alcotest.(check int) "epoch 1 emergency" 1 e1.En.emergency;
      Alcotest.(check int) "epoch 1 topo" 1 e1.En.topo;
      Alcotest.(check int) "epoch 2 topo" 1 e2.En.topo;
      Alcotest.(check int) "epoch 2 serves everyone" 0 e2.En.dropped;
      (* the emergency copy is charged as migration at the boundary *)
      Alcotest.(check bool) "emergency charged" true (e1.En.migration > 0.0)
  | es -> Alcotest.failf "expected 3 epochs, got %d" (List.length es));
  Alcotest.(check bool) "serving stays finite" true (Float.is_finite r.En.totals.En.serving)

let engine_drops_partitioned_requesters () =
  let inst = bridge_instance () in
  let placement = P.make [| [ 0 ] |] in
  let req node = St.Req { St.node; x = 0; kind = St.Read } in
  let items =
    [
      req 1; req 4;
      (* cutting the bridge strands nodes 3-5 away from the only copy *)
      St.Topo (Ch.Edge_down { u = 2; v = 3 });
      req 1; req 4;
    ]
  in
  let r = En.run_items ~config:(static_config 2) inst placement (List.to_seq items) in
  Alcotest.(check int) "dropped" 1 r.En.totals.En.dropped;
  Alcotest.(check int) "no emergency" 0 r.En.totals.En.emergency;
  Alcotest.(check int) "topo" 1 r.En.totals.En.topo;
  (* reads and writes still count the dropped request *)
  Alcotest.(check int) "reads include dropped" 4 r.En.totals.En.reads

let engine_rejects_churn_without_graph () =
  let inst = bridge_instance () in
  let m = I.metric inst in
  let metric_only =
    I.of_metric m
      ~cs:(Array.make 6 2.0)
      ~fr:[| Array.make 6 1 |]
      ~fw:[| Array.make 6 0 |]
  in
  let items = [ St.Topo (Ch.Node_down 5); St.Req { St.node = 0; x = 0; kind = St.Read } ] in
  (match
     En.run_items ~config:(static_config 2) metric_only (P.make [| [ 0 ] |])
       (List.to_seq items)
   with
  | _ -> Alcotest.fail "metric-only instance accepted a topology event"
  | exception Err.Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation));
  (* the cache policy cannot track a changing metric either *)
  match
    En.run_items
      ~config:{ (static_config 2) with En.policy = En.Cache }
      inst (P.make [| [ 0 ] |]) (List.to_seq items)
  with
  | _ -> Alcotest.fail "cache policy accepted a topology event"
  | exception Err.Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation)

(* ---------- adversarial generators ---------- *)

let small_instance seed =
  let rng = Rng.create seed in
  let g = Dmn_graph.Gen.random_geometric rng 14 0.45 in
  let n = Wgraph.n g in
  let cs = Array.init n (fun _ -> Rng.float_in rng 1.0 6.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng ~objects:3 ~n ~total:(8 * n) ~write_fraction:0.25
  in
  I.of_graph g ~cs ~fr ~fw

let adversary_streams_replay_cleanly () =
  let inst = small_instance 23 in
  let placement = A.solve inst in
  let scenarios =
    [
      ("diurnal", fun rng -> Ad.diurnal rng inst ~days:3 ~day_length:40 ~write_fraction:0.2);
      ( "flash",
        fun rng ->
          Ad.flash_crowd rng inst ~length:120 ~spike_at:30 ~spike_length:60 ~multiplier:100
            ~write_fraction:0.2 );
      ("birthdeath", fun rng -> Ad.birth_death rng inst ~length:120 ~write_fraction:0.2);
      ( "failures",
        fun rng -> Ad.failure_repair rng inst ~phases:4 ~phase_length:30 ~write_fraction:0.2 );
    ]
  in
  List.iter
    (fun (name, make) ->
      (* deterministic: the same seed materializes the same items *)
      let a = List.of_seq (make (Rng.create 5)) in
      let b = List.of_seq (make (Rng.create 5)) in
      if a <> b then Alcotest.failf "%s: not deterministic per seed" name;
      let requests =
        List.length (List.filter (function St.Req _ -> true | St.Topo _ -> false) a)
      in
      if requests = 0 then Alcotest.failf "%s: no requests generated" name;
      (* and the whole stream replays through the engine *)
      let r =
        En.run_items
          ~config:{ En.default_config with En.epoch = 25 }
          inst placement (List.to_seq a)
      in
      if r.En.totals.En.events <> requests then
        Alcotest.failf "%s: %d requests generated but %d consumed" name requests
          r.En.totals.En.events)
    scenarios;
  (* the failures scenario actually exercises churn *)
  let items =
    List.of_seq (Ad.failure_repair (Rng.create 5) inst ~phases:4 ~phase_length:30 ~write_fraction:0.2)
  in
  let topo = List.length (List.filter (function St.Topo _ -> true | St.Req _ -> false) items) in
  Alcotest.(check bool) "failures emits topology events" true (topo > 0)

(* ---------- cross-domain identity and resume under churn ---------- *)

let write_items_trace inst path items =
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  ignore
    (Trace.write_items path header
       (Seq.map
          (function
            | St.Req { St.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = St.Write }
            | St.Topo t -> Trace.Topo t)
          (List.to_seq items)))

let engine_churn_resume_is_byte_identical () =
  let inst = small_instance 29 in
  let placement = A.solve inst in
  let items =
    List.of_seq (Ad.failure_repair (Rng.create 41) inst ~phases:5 ~phase_length:60 ~write_fraction:0.2)
  in
  with_tmp "churn-resume.trace" @@ fun trace_path ->
  write_items_trace inst trace_path items;
  with_tmp_dir "churn-resume.ckptdir" @@ fun ckpt_path ->
  let config = { En.default_config with En.epoch = 50 } in
  let reference = ref None in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let uninterrupted =
        En.metrics_json inst (En.run_trace ~pool ~config inst placement trace_path)
      in
      (* one json across every domain count *)
      (match !reference with
      | None -> reference := Some uninterrupted
      | Some j ->
          Alcotest.(check string)
            (Printf.sprintf "identical at %d domains" domains)
            j uninterrupted);
      (* crash mid-churn: consume a prefix that ends exactly at an
         epoch boundary (3 epochs of 50 requests) and includes topology
         events, checkpoint, then resume against the full trace *)
      let prefix =
        let acc = ref [] and reqs = ref 0 in
        List.iter
          (fun it ->
            if !reqs < 150 then begin
              acc := it :: !acc;
              match it with St.Req _ -> incr reqs | St.Topo _ -> ()
            end)
          items;
        List.rev !acc
      in
      let topo_in_prefix =
        List.exists (function St.Topo _ -> true | St.Req _ -> false) prefix
      in
      Alcotest.(check bool) "prefix includes churn" true topo_in_prefix;
      let _ =
        En.run_items ~pool ~config
          ~ckpt:{ En.dir = ckpt_path; every = 1; keep = 3 }
          inst placement (List.to_seq prefix)
      in
      let loaded = Err.get_ok (Dmn_core.Ckpt_store.load_res ckpt_path) in
      let c = loaded.Dmn_core.Ckpt_store.ckpt in
      Alcotest.(check bool) "checkpoint recorded churn" true (c.Ck.topo_applied > 0);
      Alcotest.(check bool) "checkpoint carries the metric hash" true
        (c.Ck.topo.Ck.metric_hash <> 0L);
      let resumed = En.run_trace ~pool ~config ~resume:loaded inst placement trace_path in
      Alcotest.(check string)
        (Printf.sprintf "resumed == uninterrupted at %d domains" domains)
        uninterrupted
        (En.metrics_json inst resumed))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "repair matches recompute" `Quick repair_matches_recompute;
    Alcotest.test_case "partition infinity" `Quick partition_yields_infinity;
    Alcotest.test_case "churn validation" `Quick churn_rejects_invalid_events;
    Alcotest.test_case "serve cache tracks repair" `Quick serve_cache_tracks_metric_repair;
    Alcotest.test_case "one-shot guard" `Quick one_shot_guard_raises;
    Alcotest.test_case "trace topo round trip" `Quick trace_topo_roundtrip;
    Alcotest.test_case "fingerprint sensitivity" `Quick fingerprint_topo_is_sensitive;
    Alcotest.test_case "drops and emergency" `Quick engine_counts_drops_and_emergency;
    Alcotest.test_case "partition drops" `Quick engine_drops_partitioned_requesters;
    Alcotest.test_case "churn needs a graph" `Quick engine_rejects_churn_without_graph;
    Alcotest.test_case "adversary streams" `Quick adversary_streams_replay_cleanly;
    Alcotest.test_case "resume under churn" `Quick engine_churn_resume_is_byte_identical;
  ]
