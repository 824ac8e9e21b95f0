(* Serving daemon: the Core batcher must reproduce the offline replay
   byte-for-byte (including across kill-and-resume), overload must shed
   visibly, the journal appender must survive torn tails, and the
   socket daemon must run a full lifecycle in-process. *)

open Dmn_prelude
module I = Dmn_core.Instance
module P = Dmn_core.Placement
module Trace = Dmn_core.Serial.Trace
module St = Dmn_dynamic.Stream
module En = Dmn_engine.Engine
module Srv = Dmn_server.Server

let tmp_file =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dmnet-test-server-%d-%d-%s" (Unix.getpid ()) !counter suffix)

let with_tmp suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let with_tmp_dir suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> Util.rm_rf path) (fun () -> f path)

let small_instance ?(objects = 2) ?(n = 12) seed =
  let rng = Rng.create seed in
  let g = Dmn_graph.Gen.random_geometric rng n 0.5 in
  let nn = Dmn_graph.Wgraph.n g in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 1.0 5.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng ~objects ~n:nn ~total:(6 * nn) ~write_fraction:0.25
  in
  I.of_graph g ~cs ~fr ~fw

let placement_for inst =
  P.make (Array.init (I.objects inst) (fun x -> Dmn_baselines.Naive.best_single inst ~x))

let items_for inst ~length seed =
  let rng = Rng.create seed in
  List.of_seq (St.items_of_events (St.stationary_seq rng inst ~length))

(* ---------- the Core batcher reproduces the replay ---------- *)

let core_matches_replay () =
  let inst = small_instance 11 in
  let placement = placement_for inst in
  let items = items_for inst ~length:700 31 in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 64 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  let at domains =
    Pool.with_pool ~domains (fun pool ->
        let core =
          Srv.Core.create ~pool { Srv.default_config with Srv.engine = config } inst placement
        in
        (* push in awkward chunk sizes; serve whenever a batch is ready *)
        List.iteri
          (fun i item ->
            (match Srv.Core.push core item with
            | `Accepted -> ()
            | `Shed -> Alcotest.fail "shed below the queue bound");
            if i mod 37 = 0 then Srv.Core.maybe_step core)
          items;
        Srv.Core.maybe_step core;
        (* the partial tail is served as one final epoch, as run_items does *)
        Srv.Core.flush core;
        En.metrics_json inst (Srv.Core.result core))
  in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "core == replay at %d domains" d)
        reference (at d))
    [ 1; 2; 4 ]

(* ---------- kill and resume, byte-identical ---------- *)

let kill_resume_identical () =
  let inst = small_instance 17 in
  let placement = placement_for inst in
  let items = items_for inst ~length:900 43 in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  let at domains =
    with_tmp_dir "journal.dir" @@ fun journal ->
    with_tmp_dir "resume.ckptdir" @@ fun ckpt_path ->
    Pool.with_pool ~domains (fun pool ->
        let ckpt = Some { En.dir = ckpt_path; every = 2; keep = 3 } in
        let cfg =
          { Srv.default_config with Srv.engine = config; ckpt; journal = Some journal }
        in
        (* phase 1: accept a prefix, serve what batches, then stop the
           way SIGTERM does — partial tail journaled but unserved *)
        let cut = 537 in
        let first = Srv.Core.create ~pool cfg inst placement in
        List.iteri (fun i item -> if i < cut then ignore (Srv.Core.push first item)) items;
        Srv.Core.maybe_step first;
        Srv.Core.shutdown first;
        Alcotest.(check bool) "tail left unserved" true (Srv.Core.queue_depth first > 0);
        (* phase 2: resume from the checkpoint + journal, feed the rest *)
        let resumed =
          Srv.Core.create ~pool
            { cfg with Srv.resume = Some (Dmn_core.Ckpt_store.load ckpt_path) }
            inst placement
        in
        Alcotest.(check int) "resume rebuilds the unserved tail"
          (Srv.Core.queue_depth first) (Srv.Core.queue_depth resumed);
        List.iteri (fun i item -> if i >= cut then ignore (Srv.Core.push resumed item)) items;
        Srv.Core.maybe_step resumed;
        Srv.Core.flush resumed;
        En.metrics_json inst (Srv.Core.result resumed))
  in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "kill+resume == uninterrupted at %d domains" d)
        reference (at d))
    [ 1; 4 ]

(* ---------- pipelined re-solve: overlap without divergence ---------- *)

(* With --pipeline the dirty-set solve of each closed epoch runs on a
   spare domain while the next batch queues; the application barrier
   must keep the result byte-identical to the plain replay. *)
let pipelined_core_matches_replay () =
  let inst = small_instance 19 in
  let placement = placement_for inst in
  let items = items_for inst ~length:800 37 in
  let config =
    { En.default_config with En.policy = En.Resolve; epoch = 64; dirty_eps = 0.3 }
  in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  let at domains =
    Pool.with_pool ~domains (fun pool ->
        let core =
          Srv.Core.create ~pool
            { Srv.default_config with Srv.engine = config; pipeline = true }
            inst placement
        in
        List.iteri
          (fun i item ->
            ignore (Srv.Core.push core item);
            if i mod 53 = 0 then Srv.Core.maybe_step core)
          items;
        Srv.Core.maybe_step core;
        Srv.Core.flush core;
        let json = En.metrics_json inst (Srv.Core.result core) in
        Srv.Core.shutdown core;
        json)
  in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "pipelined core == replay at %d domains" d)
        reference (at d))
    [ 1; 2; 4 ]

(* A crash landing while a pipelined solve is in flight loses only the
   uncommitted epoch: the journal holds its items, so a resume replays
   it and lands byte-identical to an uninterrupted run. *)
let pipelined_kill_mid_flight_resumes () =
  let inst = small_instance 29 in
  let placement = placement_for inst in
  let items = items_for inst ~length:900 53 in
  let config =
    { En.default_config with En.policy = En.Resolve; epoch = 100; dirty_eps = 0.3 }
  in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  let at domains =
    with_tmp_dir "pipe-journal.dir" @@ fun journal ->
    with_tmp_dir "pipe-ckpt.dir" @@ fun ckpt_path ->
    Pool.with_pool ~domains (fun pool ->
        let cfg =
          {
            Srv.default_config with
            Srv.engine = config;
            ckpt = Some { En.dir = ckpt_path; every = 2; keep = 3 };
            journal = Some journal;
            pipeline = true;
          }
        in
        (* phase 1: push a prefix and stop abruptly right after a step —
           the last epoch's solve is still in flight on the spare
           domain, and [kill] discards it uncommitted *)
        let cut = 641 in
        let first = Srv.Core.create ~pool cfg inst placement in
        List.iteri (fun i item -> if i < cut then ignore (Srv.Core.push first item)) items;
        Srv.Core.maybe_step first;
        let committed = Srv.Core.epochs first in
        Srv.Core.kill first;
        Alcotest.(check int) "kill commits nothing" committed (Srv.Core.epochs first);
        (* phase 2: resume replays the journaled in-flight epoch *)
        let resumed =
          Srv.Core.create ~pool
            { cfg with Srv.resume = Some (Dmn_core.Ckpt_store.load ckpt_path) }
            inst placement
        in
        List.iteri (fun i item -> if i >= cut then ignore (Srv.Core.push resumed item)) items;
        Srv.Core.maybe_step resumed;
        Srv.Core.flush resumed;
        let json = En.metrics_json inst (Srv.Core.result resumed) in
        Srv.Core.shutdown resumed;
        json)
  in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "kill mid-pipeline + resume == uninterrupted at %d domains" d)
        reference (at d))
    [ 1; 4 ]

(* ---------- a tick flush of topology alone ---------- *)

(* A tick flush of a queue holding only "nd 5" closes an epoch of zero
   requests. With a checkpoint after every epoch, every generation the
   following epochs write must load: fsck finds none corrupt, the
   newest loads without fallback, and resuming from it after a kill
   lands byte-identical to the uninterrupted daemon. *)
let topology_only_flush_resumes () =
  let inst = small_instance 13 in
  let placement = placement_for inst in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 3 } in
  let reqs = items_for inst ~length:12 59 in
  let drive core reqs =
    List.iter (fun item -> ignore (Srv.Core.push core item)) reqs;
    Srv.Core.maybe_step core
  in
  let topo_then core reqs =
    ignore (Srv.Core.push core (St.Topo (Dmn_paths.Churn.Node_down 5)));
    Srv.Core.flush core;
    drive core reqs
  in
  let at domains =
    Pool.with_pool ~domains @@ fun pool ->
    with_tmp_dir "topo-journal.dir" @@ fun journal ->
    with_tmp_dir "topo-ckpt.dir" @@ fun ckpt_path ->
    let cfg =
      {
        Srv.default_config with
        Srv.engine = config;
        ckpt = Some { En.dir = ckpt_path; every = 1; keep = 3 };
        journal = Some journal;
      }
    in
    let first = Srv.Core.create ~pool cfg inst placement in
    topo_then first (List.filteri (fun i _ -> i < 9) reqs);
    Srv.Core.kill first;
    (match Dmn_core.Ckpt_store.fsck_res ckpt_path with
    | Ok r -> Alcotest.(check int) "no corrupt generation" 0 r.Dmn_core.Ckpt_store.f_corrupt
    | Error e -> Alcotest.failf "fsck: %s" (Err.to_string e));
    let loaded = Dmn_core.Ckpt_store.load ckpt_path in
    Alcotest.(check int) "newest generation loads without fallback" 0
      loaded.Dmn_core.Ckpt_store.fallbacks;
    let resumed = Srv.Core.create ~pool { cfg with Srv.resume = Some loaded } inst placement in
    Alcotest.(check int) "resumed after the fourth epoch" 4 (Srv.Core.epochs resumed);
    drive resumed (List.filteri (fun i _ -> i >= 9) reqs);
    let json = En.metrics_json inst (Srv.Core.result resumed) in
    Srv.Core.shutdown resumed;
    let plain =
      Srv.Core.create ~pool { Srv.default_config with Srv.engine = config } inst placement
    in
    topo_then plain reqs;
    Alcotest.(check int) "five epochs" 5 (Srv.Core.epochs plain);
    Alcotest.(check string)
      (Printf.sprintf "resume == uninterrupted at %d domains" domains)
      (En.metrics_json inst (Srv.Core.result plain))
      json
  in
  List.iter at [ 1; 4 ]

(* ---------- overload sheds visibly ---------- *)

let overload_sheds () =
  let inst = small_instance 5 in
  let placement = placement_for inst in
  let config = { En.default_config with En.policy = En.Static; epoch = 1000 } in
  let core =
    Srv.Core.create { Srv.default_config with Srv.engine = config; queue_cap = 8 } inst placement
  in
  let req i = St.Req { St.node = i mod I.n inst; x = 0; kind = St.Read } in
  let outcomes = List.init 50 (fun i -> Srv.Core.push core (req i)) in
  let count o = List.length (List.filter (( = ) o) outcomes) in
  Alcotest.(check int) "accepted up to the bound" 8 (count `Accepted);
  Alcotest.(check int) "the rest shed" 42 (count `Shed);
  Alcotest.(check int) "shed counter" 42 (Srv.Core.shed core);
  (* topology events are state, not load: never shed *)
  (match Srv.Core.push core (St.Topo (Dmn_paths.Churn.Node_down 0)) with
  | `Accepted -> ()
  | `Shed -> Alcotest.fail "topology event shed");
  (* shed events never reach the engine *)
  Srv.Core.flush core;
  Alcotest.(check int) "only accepted requests served" 8 (Srv.Core.served core);
  Srv.Core.shutdown core

(* ---------- wire-line classification ---------- *)

let push_line_classifies () =
  let inst = small_instance 7 in
  let core = Srv.Core.create Srv.default_config inst (placement_for inst) in
  let kind line =
    match Srv.Core.push_line core line with
    | `Accepted -> "accepted"
    | `Shed -> "shed"
    | `Ignored -> "ignored"
    | `Malformed _ -> "malformed"
  in
  Alcotest.(check string) "request line" "accepted" (kind "r 0 0");
  Alcotest.(check string) "write line" "accepted" (kind "w 1 1");
  Alcotest.(check string) "topology line" "accepted" (kind "ew 0 1 2.5");
  Alcotest.(check string) "blank" "ignored" (kind "");
  Alcotest.(check string) "comment" "ignored" (kind "# comment");
  Alcotest.(check string) "matching magic" "ignored" (kind "dmnet-trace v1");
  Alcotest.(check string) "matching count line" "ignored"
    (kind (Printf.sprintf "%d %d" (I.n inst) (I.objects inst)));
  Alcotest.(check string) "foreign count line" "malformed" (kind "99 99");
  Alcotest.(check string) "garbage" "malformed" (kind "frobnicate 1 2");
  Alcotest.(check string) "truncated item" "malformed" (kind "r 0");
  Alcotest.(check int) "malformed not auto-counted by push_line" 0 (Srv.Core.malformed core);
  Srv.Core.count_malformed core;
  Alcotest.(check int) "count_malformed counts" 1 (Srv.Core.malformed core);
  Srv.Core.shutdown core

(* ---------- journal appender: torn tails repaired ---------- *)

let appender_repairs_torn_tail () =
  with_tmp "appender.v1" @@ fun path ->
  let header = { Trace.nodes = 4; objects = 2 } in
  let a = Err.get_ok (Trace.Appender.create_res path header) in
  Err.get_ok (Trace.Appender.add_res a (Trace.Req { Trace.node = 0; x = 0; write = false }));
  Err.get_ok (Trace.Appender.add_res a (Trace.Req { Trace.node = 1; x = 1; write = true }));
  Err.get_ok (Trace.Appender.close_res a);
  (* simulate a crash mid-append: a torn final line without newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "w 3";
  close_out oc;
  let b = Err.get_ok (Trace.Appender.create_res ~append:true path header) in
  Err.get_ok (Trace.Appender.add_res b (Trace.Req { Trace.node = 2; x = 0; write = false }));
  Err.get_ok (Trace.Appender.close_res b);
  Trace.with_items path (fun h items ->
      Alcotest.(check int) "header nodes" 4 h.Trace.nodes;
      let got = List.of_seq items in
      Alcotest.(check int) "torn line dropped, tail appended" 3 (List.length got));
  (* appending under a different shape is refused *)
  match Trace.Appender.create_res ~append:true path { Trace.nodes = 9; objects = 9 } with
  | Ok _ -> Alcotest.fail "header mismatch accepted"
  | Error e ->
      if e.Err.kind <> Err.Validation then
        Alcotest.failf "expected a validation error, got %s" (Err.to_string e)

(* ---------- full daemon lifecycle over a socket ---------- *)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* line reader with a persistent buffer: consecutive replies may land
   in one read, so leftovers must survive between calls *)
let line_reader fd =
  let pending = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  fun () ->
    let rec go () =
      if not (String.contains (Buffer.contents pending) '\n') then
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | r ->
            Buffer.add_subbytes pending chunk 0 r;
            go ()
    in
    go ();
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear pending;
        if i + 1 < String.length s then
          Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None -> s

let daemon_lifecycle () =
  let inst = small_instance 23 in
  let placement = placement_for inst in
  let items = items_for inst ~length:400 51 in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 50 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  with_tmp "daemon.sock" @@ fun sock_path ->
  with_tmp "daemon-metrics.json" @@ fun metrics_path ->
  (try Sys.remove sock_path with Sys_error _ -> ());
  let cfg =
    { Srv.default_config with Srv.engine = config; metrics_out = Some metrics_path }
  in
  let daemon =
    Thread.create (fun () -> Srv.run_daemon cfg inst placement ~socket:(Some sock_path) ~use_stdin:false) ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists sock_path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      let recv_line = line_reader fd in
      (* health answers before any traffic *)
      send_all fd "health\n";
      let h = recv_line () in
      Alcotest.(check bool) "health starts with ok" true
        (String.length h >= 2 && String.sub h 0 2 = "ok");
      (* stream the whole workload as wire lines, plus noise *)
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "# a comment\n";
      List.iter
        (fun item ->
          let line =
            match item with
            | St.Req { St.node; x; kind } ->
                Printf.sprintf "%s %d %d" (if kind = St.Write then "w" else "r") node x
            | St.Topo t -> (
                let module Ch = Dmn_paths.Churn in
                match t with
                | Ch.Edge_weight { u; v; w } -> Printf.sprintf "ew %d %d %.17g" u v w
                | Ch.Edge_up { u; v; w } -> Printf.sprintf "eu %d %d %.17g" u v w
                | Ch.Edge_down { u; v } -> Printf.sprintf "ed %d %d" u v
                | Ch.Node_down n -> Printf.sprintf "nd %d" n
                | Ch.Node_up n -> Printf.sprintf "nu %d" n)
          in
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        items;
      Buffer.add_string buf "not a trace line\n";
      send_all fd (Buffer.contents buf);
      (* the malformed line is answered with an error on this connection *)
      let e = recv_line () in
      Alcotest.(check bool) "malformed line answered with err:" true
        (String.length e >= 4 && String.sub e 0 4 = "err:");
      (* live metrics must parse while the daemon is serving *)
      send_all fd "metrics\n";
      let rec settle tries =
        let m = recv_line () in
        let v =
          match Jsonx.parse m with
          | Ok v -> v
          | Error e -> Alcotest.failf "live metrics dump unparseable: %s" (Err.to_string e)
        in
        match Option.bind (Jsonx.member "server" v) (fun s -> Option.bind (Jsonx.member "accepted_total" s) Jsonx.to_int) with
        | Some n when n >= List.length items -> v
        | _ when tries > 0 ->
            Thread.delay 0.05;
            send_all fd "metrics\n";
            settle (tries - 1)
        | got ->
            Alcotest.failf "daemon never ingested the stream (accepted=%s)"
              (match got with Some n -> string_of_int n | None -> "?")
      in
      let m = settle 100 in
      Alcotest.(check (option string)) "dump is a serve-metrics document"
        (Some "serve-metrics")
        (match Jsonx.member "dmnet" m with Some (Jsonx.Str s) -> Some s | _ -> None);
      (* graceful shutdown over the control socket *)
      send_all fd "shutdown\n";
      Alcotest.(check string) "shutdown acknowledged" "bye" (recv_line ()));
  Thread.join daemon;
  Alcotest.(check bool) "socket removed on exit" false (Sys.file_exists sock_path);
  (* graceful stop leaves a partial tail for resume — but 400 events at
     epoch 50 divide evenly, so the final metrics equal the replay *)
  let written = In_channel.with_open_bin metrics_path In_channel.input_all in
  Alcotest.(check string) "daemon metrics == replay metrics" (reference ^ "\n") written

let suite =
  [
    Alcotest.test_case "core batcher matches replay (1/2/4 domains)" `Quick core_matches_replay;
    Alcotest.test_case "kill+resume byte-identical (1/4 domains)" `Quick kill_resume_identical;
    Alcotest.test_case "pipelined core matches replay (1/2/4 domains)" `Quick
      pipelined_core_matches_replay;
    Alcotest.test_case "kill mid-pipeline resumes byte-identical" `Quick
      pipelined_kill_mid_flight_resumes;
    Alcotest.test_case "topology-only tick flush resumes" `Quick topology_only_flush_resumes;
    Alcotest.test_case "overload sheds visibly" `Quick overload_sheds;
    Alcotest.test_case "wire lines classified" `Quick push_line_classifies;
    Alcotest.test_case "journal appender repairs torn tails" `Quick appender_repairs_torn_tail;
    Alcotest.test_case "daemon lifecycle over a socket" `Quick daemon_lifecycle;
  ]
