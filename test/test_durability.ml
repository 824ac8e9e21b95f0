(* Generational durability: the scanned checkpoint generation set,
   fallback past a corrupt newest generation, a crash between a
   generation's rename and the prune, the epoch-row log (a crash
   between its fsync and the generation's rename, damaged rows, a
   resume into another directory, generations that do not grow, its
   fault points), a lost newest generation against a pruned journal,
   journal segment rotation with torn-tail repair at a segment
   boundary, tmp-file hygiene of the atomic writer under injected
   faults, and the disk-chaos property — kill at an injected fault,
   resume, byte-identical to offline replay of the surviving journal at
   1 and 4 domains. *)

open Dmn_prelude
module I = Dmn_core.Instance
module A = Dmn_core.Approx
module S = Dmn_core.Serial
module Trace = Dmn_core.Serial.Trace
module J = Dmn_core.Serial.Trace.Journal
module Cs = Dmn_core.Ckpt_store
module Ck = Dmn_core.Serial.Checkpoint
module Row = Dmn_core.Epoch_row
module St = Dmn_dynamic.Stream
module En = Dmn_engine.Engine
module Srv = Dmn_server.Server

let tmp_name =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dmnet-test-durability-%d-%d-%s" (Unix.getpid ()) !counter suffix)

(* a fresh directory path — created by the code under test *)
let with_tmp_dir suffix f =
  let path = tmp_name suffix in
  Fun.protect ~finally:(fun () -> Util.rm_rf path) (fun () -> f path)

let has_needle ~needle s =
  let n = String.length needle and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
  go 0

let small_instance ?(objects = 2) ?(n = 12) seed =
  let rng = Rng.create seed in
  let g = Dmn_graph.Gen.random_geometric rng n 0.5 in
  let nn = Dmn_graph.Wgraph.n g in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 1.0 5.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng ~objects ~n:nn ~total:(6 * nn) ~write_fraction:0.25
  in
  I.of_graph g ~cs ~fr ~fw

let sample_row index =
  {
    Row.index; events = 100; reads = 80; writes = 20; resolves = 1; solve_retries = 0;
    solve_fallbacks = 0; copies = 3; dropped = 0; emergency = 0; topo = 0;
    serving = 12.5; storage = 3.25; migration = 0.5;
    p50 = 1.0; p95 = 2.0; p99 = 4.0;
    solve_skipped = 0; dirty = 1; cache_hits = 0; cache_misses = 0; cache_evictions = 0;
  }

let sample_checkpoint ~log ~next_epoch =
  let events_consumed = 100 * next_epoch in
  {
    Ck.policy = "resolve"; epoch_size = 100; period = 400; next_epoch; events_consumed;
    topo_consumed = 0; topo_applied = 0;
    fingerprint = Int64.of_int (events_consumed * 7919); nodes = 5; objects = 2;
    placements = [| [ 0; 3 ]; [ 2 ] |];
    log;
    dirty_eps = 0.0;
    resolve_state = [| Ck.no_obj_state; Ck.no_obj_state |];
    hist = { Ck.h_lo = 1.0; h_base = 2.0; h_buckets = 8; h_sum = 0.0; h_counts = [] };
    topo = Ck.no_topo;
    checkpoints_written = next_epoch; serve_retries = 0;
  }

(* One save: the rows up to [next_epoch] that the log lacks, then the
   generation naming them. *)
let save store ~next_epoch =
  let logged = Cs.logged store in
  let rows = List.init (next_epoch - logged) (fun i -> sample_row (logged + i)) in
  let log = Err.get_ok (Cs.append_res store rows) in
  Err.get_ok (Cs.save_res store (sample_checkpoint ~log ~next_epoch))

let log_path dir = Filename.concat dir "epochs.log"
let file_size path = (Unix.stat path).Unix.st_size
let read_all path = In_channel.with_open_bin path In_channel.input_all

(* the log prefix generation [g] names *)
let prefix_of dir g = (Err.get_ok (Ck.load_res (Filename.concat dir (Cs.gen_name g)))).Ck.log

(* ---------- generation retention and fallback ---------- *)

let store_keeps_k_and_falls_back () =
  with_tmp_dir "ckptdir" @@ fun dir ->
  let store = Err.get_ok (Cs.create_res dir ~keep:3) in
  let gens = List.map (fun i -> save store ~next_epoch:i) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "generation numbers are sequential" [ 0; 1; 2; 3; 4 ] gens;
  let m = Err.get_ok (Cs.read_manifest_res dir) in
  Alcotest.(check (list int)) "only the last keep=3 survive" [ 2; 3; 4 ] m.Cs.gens;
  Alcotest.(check int) "the listing's latest is the newest" 4 m.Cs.latest;
  Alcotest.(check (list string)) "nothing but the row log and generation files on disk"
    ("epochs.log" :: List.map Cs.gen_name [ 2; 3; 4 ])
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let l = Cs.load dir in
  Alcotest.(check int) "clean load picks the newest" 4 l.Cs.generation;
  Alcotest.(check int) "no fallbacks on a clean load" 0 l.Cs.fallbacks;
  Alcotest.(check int) "payload is the newest" 500 l.Cs.ckpt.Ck.events_consumed;
  Alcotest.(check bool) "rows are the log prefix it names" true
    (l.Cs.rows = List.init 5 sample_row);
  Alcotest.(check int) "each row written once: the log is exactly the newest prefix"
    l.Cs.ckpt.Ck.log.Ck.l_bytes (file_size (log_path dir));
  (* corrupt the newest generation: a torn write leaves half a file *)
  let latest = Filename.concat dir (Cs.gen_name 4) in
  let body = In_channel.with_open_bin latest In_channel.input_all in
  Out_channel.with_open_bin latest (fun oc ->
      Out_channel.output_string oc (String.sub body 0 (String.length body / 2)));
  let l = Cs.load dir in
  Alcotest.(check int) "falls back one generation" 3 l.Cs.generation;
  Alcotest.(check int) "fallback counted" 1 l.Cs.fallbacks;
  Alcotest.(check int) "previous payload served" 400 l.Cs.ckpt.Ck.events_consumed;
  (* fsck sees the damage; repair deletes the corrupt generation *)
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "fsck counts the corrupt generation" 1 r.Cs.f_corrupt;
  Alcotest.(check bool) "the row only it named is a log tail" true (r.Cs.f_tail_bytes > 0);
  let r = Err.get_ok (Cs.fsck_res ~repair:true dir) in
  Alcotest.(check bool) "repair deleted it" true r.Cs.f_repaired;
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "healthy after repair" 0 r.Cs.f_corrupt;
  Alcotest.(check int) "and the tail truncated" 0 r.Cs.f_tail_bytes;
  Alcotest.(check int) "latest is the fallback generation" 3 r.Cs.f_latest;
  Alcotest.(check (list int)) "the listing lost it too" [ 2; 3 ]
    (Err.get_ok (Cs.read_manifest_res dir)).Cs.gens;
  (* destroying every generation is the unrecoverable case *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  match Cs.load_res dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an empty directory loaded"

(* A crash after a generation's rename but before the prune leaves
   keep + 1 valid generations: the extra one is simply the newest. *)
let store_crash_between_rename_and_prune () =
  with_tmp_dir "ckpt-crash" @@ fun dir ->
  let store = Err.get_ok (Cs.create_res dir ~keep:3) in
  List.iter (fun i -> ignore (save store ~next_epoch:i : int)) [ 1; 2; 3 ];
  (* what a save does before it prunes, and then the process dies *)
  let log = Err.get_ok (Cs.append_res store [ sample_row 3 ]) in
  Err.get_ok
    (Ck.save_res (Filename.concat dir (Cs.gen_name 3)) (sample_checkpoint ~log ~next_epoch:4));
  Alcotest.(check (list int)) "keep + 1 generations on disk" [ 0; 1; 2; 3 ]
    (Err.get_ok (Cs.read_manifest_res dir)).Cs.gens;
  let l = Cs.load dir in
  Alcotest.(check int) "load picks the extra generation" 3 l.Cs.generation;
  Alcotest.(check int) "without a fallback" 0 l.Cs.fallbacks;
  Alcotest.(check int) "its payload" 400 l.Cs.ckpt.Ck.events_consumed;
  let r = Err.get_ok (Cs.fsck_res ~repair:true dir) in
  Alcotest.(check int) "fsck: every generation valid" 4 r.Cs.f_generations;
  Alcotest.(check int) "fsck: no damage" 0 r.Cs.f_corrupt;
  Alcotest.(check bool) "fsck: nothing to repair" false r.Cs.f_repaired;
  Alcotest.(check int) "the next save numbers past it" 4 (save store ~next_epoch:5);
  Alcotest.(check (list int)) "and leaves exactly keep" [ 2; 3; 4 ]
    (Err.get_ok (Cs.read_manifest_res dir)).Cs.gens

(* A directory written by a build that kept a MANIFEST beside the
   generations (this one, byte for byte, for gens 2 3 4 at keep 3). *)
let store_reads_manifest_era_directory () =
  with_tmp_dir "ckpt-manifest-era" @@ fun dir ->
  let store = Err.get_ok (Cs.create_res dir ~keep:3) in
  List.iter (fun i -> ignore (save store ~next_epoch:i : int)) [ 1; 2; 3; 4; 5 ];
  let manifest = Filename.concat dir "MANIFEST" in
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc
        "dmnet-ckptdir v1\nkeep 3\nlatest 4\ngens 2 3 4\ncrc 7b400d25\n");
  let l = Cs.load dir in
  Alcotest.(check int) "loads the newest generation" 4 l.Cs.generation;
  Alcotest.(check int) "without a fallback" 0 l.Cs.fallbacks;
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "passes fsck" 0 r.Cs.f_corrupt;
  Alcotest.(check int) "fsck sees the three generations" 3 r.Cs.f_generations;
  Alcotest.(check int) "saving continues the numbering" 5 (save store ~next_epoch:6);
  Alcotest.(check bool) "the MANIFEST is left alone" true (Sys.file_exists manifest)

(* The [dmnet] binary of the same build tree as this test, reading the
   file [stdin] and writing the file [stdout]; returns the exit code
   and stderr. *)
let dmnet ?(stdin = "/dev/null") ?(stdout = "/dev/null") args =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ ".."; "bin"; "dmnet.exe" ]
  in
  let err = Filename.temp_file "dmnet-test-durability" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let code = Sys.command (Filename.quote_command exe ~stdin ~stdout ~stderr:err args) in
  (code, In_channel.with_open_bin err In_channel.input_all)

(* The newest generation vanishes after the journal was pruned behind
   it. Resuming from the older generation is safe, and byte-identical,
   exactly when the journal still reaches back to that generation's
   coverage; otherwise the daemon and [dmnet fsck] refuse with the
   coverage error. *)
let newest_generation_lost_after_prune () =
  let inst = small_instance 31 in
  let placement = A.solve inst in
  let journaled =
    List.of_seq
      (Seq.map
         (fun { St.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = St.Write })
         (St.stationary_seq (Rng.create 5) inst ~length:1000))
  in
  let items = List.map En.of_trace_item journaled in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  let accepted = 537 in
  let run ~rotate_items =
    with_tmp_dir "lost-journal" @@ fun journal ->
    with_tmp_dir "lost-ckpt" @@ fun ckpt ->
    (* what a daemon leaves on disk after serving the first 500 of
       [accepted] journaled items: a generation per epoch (gen 4
       covers 500 items, gen 3 400) and the journal pruned behind the
       newest one *)
    ignore
      (En.run_items ~config ~ckpt:{ En.dir = ckpt; every = 1; keep = 3 } inst placement
         (List.to_seq (List.filteri (fun i _ -> i < 500) items)));
    let j = J.create ~rotate_items journal header in
    List.iteri (fun i it -> if i < accepted then J.add j it) journaled;
    J.sync j;
    ignore (J.prune j ~covered:500 : int);
    J.close j;
    Sys.remove (Filename.concat ckpt (Cs.gen_name 4));
    let base = (J.read_chain journal).J.base in
    let cfg =
      {
        Srv.default_config with
        Srv.engine = config;
        journal = Some journal;
        ckpt = Some { En.dir = ckpt; every = 1; keep = 3 };
        resume = Some (Cs.load ckpt);
      }
    in
    let fsck = dmnet [ "fsck"; "--ckpt"; ckpt; "--journal"; journal ] in
    let resumed =
      match Srv.Core.create cfg inst placement with
      | core ->
          List.iteri (fun i it -> if i >= accepted then ignore (Srv.Core.push core it)) items;
          Srv.Core.maybe_step core;
          Srv.Core.flush core;
          let json = En.metrics_json inst (Srv.Core.result core) in
          Srv.Core.shutdown core;
          Ok json
      | exception Err.Error e -> Error e
    in
    (base, fsck, resumed)
  in
  (* segments of 100 items: the prune removed item 400's segment *)
  let base, (code, err), resumed = run ~rotate_items:100 in
  Alcotest.(check int) "journal pruned past gen 3" 500 base;
  (match resumed with
  | Error e ->
      Alcotest.(check bool) "daemon: validation error" true (e.Err.kind = Err.Validation);
      Alcotest.(check bool) "daemon: the coverage error" true
        (has_needle ~needle:"pruned past the checkpoint" e.Err.msg)
  | Ok _ -> Alcotest.fail "the daemon resumed past pruned journal segments");
  Alcotest.(check int) "fsck exits 65" 65 code;
  Alcotest.(check bool) "fsck names the coverage error" true
    (has_needle ~needle:"pruned past the checkpoint" err);
  (* segments of 300 items: the journal still starts before item 400 *)
  let base, (code, err), resumed = run ~rotate_items:300 in
  Alcotest.(check int) "journal still covers gen 3" 300 base;
  Alcotest.(check int) ("fsck exits 0: " ^ err) 0 code;
  match resumed with
  | Ok json -> Alcotest.(check string) "resume == uninterrupted run" reference json
  | Error e -> Alcotest.failf "resume from gen 3 refused: %s" (Err.to_string e)

(* [dmnet serve --resume] reads the checkpoint directory once: with the
   newest generation torn, it warns once, counts one fallback, and
   finishes byte-identically to the uninterrupted run. *)
let serve_resume_loads_once () =
  let inst = small_instance 43 in
  let placement = A.solve inst in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 47) inst ~length:900))
  in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  with_tmp_dir "once-journal" @@ fun journal ->
  with_tmp_dir "once-ckpt" @@ fun ckpt ->
  with_tmp_dir "once-files" @@ fun files ->
  Unix.mkdir files 0o755;
  let file name = Filename.concat files name in
  (* a daemon that served 5 of 9 epochs, then stopped with the newest
     generation torn in half *)
  let cfg =
    {
      Srv.default_config with
      Srv.engine = config;
      journal = Some journal;
      ckpt = Some { En.dir = ckpt; every = 1; keep = 3 };
    }
  in
  let first = Srv.Core.create cfg inst placement in
  List.iteri (fun i it -> if i < 537 then ignore (Srv.Core.push first it)) items;
  Srv.Core.maybe_step first;
  Srv.Core.shutdown first;
  let m = Err.get_ok (Cs.read_manifest_res ckpt) in
  let latest = Filename.concat ckpt (Cs.gen_name m.Cs.latest) in
  let body = read_all latest in
  Out_channel.with_open_bin latest (fun oc ->
      Out_channel.output_string oc (String.sub body 0 (String.length body / 2)));
  (* the rest of the stream, then a health probe, on stdin *)
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  let rest =
    List.filteri (fun i _ -> i >= 537) items
    |> List.map (function
         | St.Req { St.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = St.Write }
         | St.Topo t -> Trace.Topo t)
  in
  ignore (Trace.write_items (file "rest.v1") header (List.to_seq rest) : int);
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 (file "rest.v1") (fun oc ->
      Out_channel.output_string oc "health\n");
  S.write_file (file "inst.dmn") (S.instance_to_string inst);
  let code, err =
    dmnet ~stdin:(file "rest.v1") ~stdout:(file "out")
      [
        "serve"; file "inst.dmn"; "--stdin"; "--domains"; "1"; "--journal"; journal; "--ckpt";
        ckpt; "--resume"; ckpt; "--metrics-out"; file "metrics.json";
      ]
  in
  Alcotest.(check int) ("serve exits 0: " ^ err) 0 code;
  let warnings =
    List.filter (fun l -> has_needle ~needle:"fallback" l) (String.split_on_char '\n' err)
  in
  Alcotest.(check (list string)) "one fallback warning"
    [
      Printf.sprintf
        "dmnet serve: warning: checkpoint fallback in %s — skipped 1 corrupt newer \
         generation(s), resuming from gen 4"
        ckpt;
    ]
    warnings;
  let out = read_all (file "out") in
  Alcotest.(check bool) ("health counts one fallback: " ^ out) true
    (has_needle ~needle:"ckpt_fallbacks=1" out);
  Alcotest.(check string) "resume == uninterrupted run" (reference ^ "\n")
    (read_all (file "metrics.json"))

(* ---------- the epoch-row log ---------- *)

(* Ten epochs of 100 requests; checkpoints every epoch, the newest
   three kept. *)
let log_setup () =
  let inst = small_instance 37 in
  let placement = A.solve inst in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 41) inst ~length:1000))
  in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  (inst, placement, items, config, reference)

let every_epoch dir = { En.dir; every = 1; keep = 3 }
let batches items = List.init 10 (fun k -> List.filteri (fun i _ -> i / 100 = k) items)

(* the first [epochs] epochs into [dir], then the engine is abandoned:
   a kill -9 *)
let run_then_kill ~pool ~config inst placement items ~dir ~epochs =
  let eng = En.create ~pool ~config ~ckpt:(every_epoch dir) inst placement in
  List.iteri (fun k b -> if k < epochs then En.step eng b) (batches items)

(* fast-forward a resumed engine over the whole stream and serve the
   rest, one epoch per step *)
let finish_resumed inst eng items =
  let rest = List.of_seq (En.fast_forward_from eng ~base:0 (List.to_seq items)) in
  List.iter (En.step eng) (batches rest);
  En.metrics_json inst (En.finish eng)

let flip_byte path pos =
  let b = Bytes.of_string (read_all path) in
  Bytes.set b pos (if Bytes.get b pos = '0' then '1' else '0');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* The save after epoch 5 appends its row and fsyncs the log, then dies
   at the generation's rename: the log holds a row no generation
   names. fsck calls that a kill artifact and --repair truncates it; a
   resume truncates it too, and finishes byte-identically. *)
let crash_between_log_sync_and_rename () =
  let inst, placement, items, config, reference = log_setup () in
  let at domains =
    Pool.with_pool ~domains @@ fun pool ->
    let crash dir =
      Fun.protect ~finally:Fault.disable @@ fun () ->
      let eng = En.create ~pool ~config ~ckpt:(every_epoch dir) inst placement in
      List.iteri
        (fun k b ->
          if k = 5 then Fault.configure ~seed:1 ~rate:1.0 ~points:[ "serial.write.rename" ] ();
          if k <= 5 then
            match En.step eng b with
            | () -> if k = 5 then Alcotest.fail "the armed rename did not fail"
            | exception Err.Error e ->
                Alcotest.(check bool) "the injected rename fault" true (e.Err.kind = Err.Fault))
        (batches items);
      Alcotest.(check (list int)) "generations of epochs 2-4 survive" [ 2; 3; 4 ]
        (Err.get_ok (Cs.read_manifest_res dir)).Cs.gens;
      let p = prefix_of dir 4 in
      Alcotest.(check int) "the newest names 5 rows" 5 p.Ck.l_rows;
      Alcotest.(check bool) "the log holds a row past it" true
        (file_size (log_path dir) > p.Ck.l_bytes);
      p
    in
    with_tmp_dir "log-crash-repair" (fun dir ->
        let p = crash dir in
        let code, err = dmnet [ "fsck"; "--ckpt"; dir ] in
        Alcotest.(check int) ("fsck exits 0 on the unnamed row: " ^ err) 0 code;
        let code, err = dmnet [ "fsck"; "--ckpt"; dir; "--repair" ] in
        Alcotest.(check int) ("fsck --repair exits 0: " ^ err) 0 code;
        Alcotest.(check int) "repair truncated the log to the newest prefix" p.Ck.l_bytes
          (file_size (log_path dir)));
    with_tmp_dir "log-crash-resume" @@ fun dir ->
    let p = crash dir in
    let loaded = Cs.load dir in
    Alcotest.(check int) "resume from the newest generation" 4 loaded.Cs.generation;
    let eng = En.create ~pool ~config ~ckpt:(every_epoch dir) ~resume:loaded inst placement in
    Alcotest.(check int) "resume truncated the unnamed row" p.Ck.l_bytes (file_size (log_path dir));
    Alcotest.(check string)
      (Printf.sprintf "resume == uninterrupted at %d domains" domains)
      reference (finish_resumed inst eng items);
    let l = Cs.load dir in
    Alcotest.(check (pair int int)) "the resumed run's generations load" (10, 0)
      (l.Cs.ckpt.Ck.next_epoch, l.Cs.fallbacks)
  in
  List.iter at [ 1; 4 ]

(* A flipped byte in the row only the newest generation names: load
   falls back one generation, and the resume is byte-identical. A
   flipped byte in the first row, which every generation names: load
   refuses with a Validation error and fsck exits 65. The byte is the
   last digit of a row's p99 cost, so the row still parses and only the
   prefix CRC can tell. *)
let flipped_byte_in_log_prefix () =
  let inst, placement, items, config, reference = log_setup () in
  let at domains =
    Pool.with_pool ~domains @@ fun pool ->
    with_tmp_dir "log-flip-newest" (fun dir ->
        run_then_kill ~pool ~config inst placement items ~dir ~epochs:5;
        flip_byte (log_path dir) ((prefix_of dir 4).Ck.l_bytes - 2);
        let loaded = Cs.load dir in
        Alcotest.(check (pair int int)) "falls back to gen 3, one fallback" (3, 1)
          (loaded.Cs.generation, loaded.Cs.fallbacks);
        let eng = En.create ~pool ~config ~ckpt:(every_epoch dir) ~resume:loaded inst placement in
        Alcotest.(check string)
          (Printf.sprintf "resume after the fallback == uninterrupted at %d domains" domains)
          reference (finish_resumed inst eng items));
    with_tmp_dir "log-flip-all" @@ fun dir ->
    run_then_kill ~pool ~config inst placement items ~dir ~epochs:5;
    flip_byte (log_path dir) (String.index (read_all (log_path dir)) '\n' - 1);
    (match Cs.load_res dir with
    | Error e -> Alcotest.(check bool) "a Validation error" true (e.Err.kind = Err.Validation)
    | Ok l -> Alcotest.failf "gen %d loaded over a damaged first row" l.Cs.generation);
    let code, err = dmnet [ "fsck"; "--ckpt"; dir ] in
    Alcotest.(check int) ("fsck exits 65: " ^ err) 65 code
  in
  List.iter at [ 1; 4 ]

(* [--resume A --ckpt B]: B's log starts as a copy of A's prefix, the
   generations another run left in B go, A is untouched, and B's
   generations load. A fresh run into A then starts a new history there
   that fsck calls healthy. *)
let resume_into_another_directory () =
  let inst, placement, items, config, reference = log_setup () in
  let at domains =
    Pool.with_pool ~domains @@ fun pool ->
    with_tmp_dir "log-from" @@ fun a ->
    with_tmp_dir "log-into" @@ fun b ->
    run_then_kill ~pool ~config inst placement items ~dir:a ~epochs:5;
    run_then_kill ~pool ~config inst placement items ~dir:b ~epochs:2;
    let a_log = read_all (log_path a) in
    let loaded = Cs.load a in
    let eng = En.create ~pool ~config ~ckpt:(every_epoch b) ~resume:loaded inst placement in
    Alcotest.(check (array string)) "B's own generations are gone" [| "epochs.log" |]
      (Sys.readdir b);
    Alcotest.(check string) "B's log is A's prefix"
      (String.sub a_log 0 loaded.Cs.ckpt.Ck.log.Ck.l_bytes)
      (read_all (log_path b));
    Alcotest.(check string)
      (Printf.sprintf "resume into B == uninterrupted at %d domains" domains)
      reference (finish_resumed inst eng items);
    Alcotest.(check string) "A's log untouched" a_log (read_all (log_path a));
    let l = Cs.load b in
    Alcotest.(check (pair int int)) "B's generations load" (10, 0)
      (l.Cs.ckpt.Ck.next_epoch, l.Cs.fallbacks);
    Alcotest.(check int) "B's log holds every row once" l.Cs.ckpt.Ck.log.Ck.l_bytes
      (file_size (log_path b));
    run_then_kill ~pool ~config inst placement items ~dir:a ~epochs:2;
    Alcotest.(check (list int)) "a fresh run numbers A's generations from 0" [ 0; 1 ]
      (Err.get_ok (Cs.read_manifest_res a)).Cs.gens;
    let code, err = dmnet [ "fsck"; "--ckpt"; a ] in
    Alcotest.(check int) ("fsck calls the fresh history healthy: " ^ err) 0 code
  in
  List.iter at [ 1; 4 ]

(* A stationary stream: the newest generation after 200 epochs is
   within 10 % of the one after 20. *)
let generation_size_does_not_grow () =
  let inst = small_instance 43 in
  let placement = A.solve inst in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 50 } in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 47) inst ~length:10_000))
  in
  let at domains =
    Pool.with_pool ~domains @@ fun pool ->
    with_tmp_dir "log-size" @@ fun dir ->
    let eng = En.create ~pool ~config ~ckpt:{ En.dir; every = 10; keep = 1 } inst placement in
    let newest () =
      let latest = (Err.get_ok (Cs.read_manifest_res dir)).Cs.latest in
      file_size (Filename.concat dir (Cs.gen_name latest))
    in
    let early = ref 0 in
    List.iteri
      (fun k b ->
        En.step eng b;
        if k = 19 then early := newest ())
      (List.init 200 (fun k -> List.filteri (fun i _ -> i / 50 = k) items));
    let late = newest () in
    if abs (late - !early) * 10 >= !early then
      Alcotest.failf "generation grew from %d bytes at epoch 20 to %d at epoch 200" !early late
  in
  List.iter at [ 1; 4 ]

(* Each of the log's fault points fails the append without touching
   the prefix the newest generation names; the same store then appends
   again over whatever tail the failure left. *)
let log_fault_points () =
  Fun.protect ~finally:Fault.disable @@ fun () ->
  List.iter
    (fun point ->
      with_tmp_dir "log-faults" @@ fun dir ->
      let store = Err.get_ok (Cs.create_res dir ~keep:3) in
      ignore (save store ~next_epoch:2 : int);
      Fault.configure ~seed:1 ~rate:1.0 ~points:[ point ] ();
      (match Cs.append_res store [ sample_row 2; sample_row 3 ] with
      | Ok _ -> Alcotest.failf "%s: the append succeeded under rate-1.0 injection" point
      | Error e -> Alcotest.(check bool) (point ^ ": a Fault error") true (e.Err.kind = Err.Fault));
      Fault.disable ();
      let l = Cs.load dir in
      Alcotest.(check (pair int int)) (point ^ ": gen 0 still loads") (0, 0)
        (l.Cs.generation, l.Cs.fallbacks);
      Alcotest.(check int) (point ^ ": with its two rows") 2 (List.length l.Cs.rows);
      let r = Err.get_ok (Cs.fsck_res dir) in
      Alcotest.(check int) (point ^ ": fsck finds no damage") 0 r.Cs.f_corrupt;
      Alcotest.(check bool) (point ^ ": a tail only when bytes reached the file")
        (point <> "ckpt.log.write") (r.Cs.f_tail_bytes > 0);
      Alcotest.(check int) (point ^ ": the retry saves gen 1") 1 (save store ~next_epoch:4);
      let l = Cs.load dir in
      Alcotest.(check bool) (point ^ ": with all four rows") true
        (l.Cs.rows = List.init 4 sample_row);
      Alcotest.(check int) (point ^ ": and no tail") l.Cs.ckpt.Ck.log.Ck.l_bytes
        (file_size (log_path dir)))
    [ "ckpt.log.write"; "ckpt.log.short"; "ckpt.log.sync" ]

(* ---------- journal: torn tail at a segment boundary ---------- *)

let journal_repairs_torn_tail_at_boundary () =
  with_tmp_dir "journal" @@ fun dir ->
  let header = { Trace.nodes = 4; objects = 2 } in
  let item k = Trace.Req { Trace.node = k mod 4; x = k mod 2; write = k mod 3 = 0 } in
  let j = J.create ~rotate_items:4 dir header in
  (* exactly two full segments: the active one ends on the boundary *)
  for k = 0 to 7 do
    J.add j (item k)
  done;
  J.close j;
  let segs = Err.get_ok (J.list_segments_res dir) in
  Alcotest.(check int) "two segments" 2 (List.length segs);
  let _, last_seg = List.nth segs 1 in
  (* crash mid-append: torn bytes land at the tail of a full segment *)
  let oc = open_out_gen [ Open_append ] 0o644 last_seg in
  output_string oc "w 3";
  close_out oc;
  (* reopen for append: the torn tail is truncated, the boundary is
     honoured — the next durable item starts a fresh segment *)
  let j = J.create ~append:true ~rotate_items:4 dir header in
  Alcotest.(check int) "no durable item lost to the repair" 8 (J.items_total j);
  for k = 8 to 10 do
    J.add j (item k)
  done;
  J.close j;
  let segs = Err.get_ok (J.list_segments_res dir) in
  Alcotest.(check (list int)) "segment starts" [ 0; 4; 8 ] (List.map fst segs);
  let chain = J.read_chain dir in
  Alcotest.(check int) "base" 0 chain.J.base;
  Alcotest.(check bool) "every item exactly once, in order" true
    (chain.J.chain_items = List.init 11 item);
  let r = Err.get_ok (J.fsck_res dir) in
  Alcotest.(check int) "fsck items" 11 r.J.f_items;
  Alcotest.(check bool) "no torn tail after repair" false r.J.f_torn_tail

(* ---------- pruning: covered segments go, the chain stays valid ---------- *)

let journal_prunes_covered_segments () =
  with_tmp_dir "journal-prune" @@ fun dir ->
  let header = { Trace.nodes = 4; objects = 2 } in
  let item k = Trace.Req { Trace.node = k mod 4; x = 0; write = false } in
  let j = J.create ~rotate_items:5 dir header in
  for k = 0 to 16 do
    J.add j (item k)
  done;
  J.sync j;
  Alcotest.(check int) "segments before" 4 (J.segments j);
  (* covered = 11: segments [0,5) and [5,10) go, [10,15) survives *)
  Alcotest.(check int) "two segments pruned" 2 (J.prune j ~covered:11);
  Alcotest.(check int) "segments after" 2 (J.segments j);
  Alcotest.(check int) "absolute total unchanged" 17 (J.items_total j);
  J.close j;
  let chain = J.read_chain dir in
  Alcotest.(check int) "base advanced to the first survivor" 10 chain.J.base;
  Alcotest.(check bool) "surviving items intact" true
    (chain.J.chain_items = List.init 7 (fun k -> item (k + 10)));
  (* the pruned prefix is only reachable through a checkpoint *)
  let inst = small_instance 3 in
  match
    En.run_items ~base:chain.J.base inst (A.solve inst)
      (List.to_seq (List.map En.of_trace_item chain.J.chain_items))
  with
  | exception Err.Error e ->
      Alcotest.(check bool) "resume-required error" true (e.Err.kind = Err.Validation)
  | _ -> Alcotest.fail "a pruned chain replayed without a checkpoint"

(* ---------- atomic writer hygiene under injected faults ---------- *)

let write_file_unlinks_tmp_on_failure () =
  with_tmp_dir "writer" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "out.txt" in
  Fun.protect ~finally:Fault.disable @@ fun () ->
  List.iter
    (fun point ->
      Fault.configure ~seed:1 ~rate:1.0 ~points:[ point ] ();
      Fault.reset_counters ();
      (match S.write_file_res target "payload\n" with
      | Ok () -> Alcotest.failf "%s: write succeeded under rate-1.0 injection" point
      | Error _ -> ());
      Fault.disable ();
      (* no target, and — the regression — no orphaned tmp file either *)
      Alcotest.(check bool)
        (point ^ ": target absent") false (Sys.file_exists target);
      Alcotest.(check (array string)) (point ^ ": directory empty") [||] (Sys.readdir dir))
    [
      "serial.write.open"; "serial.write.write"; "serial.write.short"; "serial.write.enospc";
      "serial.write.fsync"; "serial.write.rename";
    ];
  (* and with injection off the same call lands atomically *)
  S.write_file target "payload\n";
  Alcotest.(check bool) "clean write lands" true (Sys.file_exists target);
  Alcotest.(check (array string)) "no droppings" [| "out.txt" |] (Sys.readdir dir)

(* ---------- disk chaos: kill at a fault, resume byte-identically ---------- *)

let fault_points =
  [
    "trace.append.write"; "trace.append.sync"; "trace.append.short"; "serial.write.write";
    "serial.write.fsync"; "serial.write.rename"; "ckpt.log.write"; "ckpt.log.short";
    "ckpt.log.sync";
  ]

let chaos_kill_resume_identical () =
  let inst = small_instance 17 in
  let placement = A.solve inst in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 43) inst ~length:3000))
  in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 50 } in
  let clean_prefix = 800 in
  let run_at domains =
    with_tmp_dir "chaos-journal" @@ fun journal ->
    with_tmp_dir "chaos-ckpt" @@ fun ckpt ->
    Fun.protect ~finally:Fault.disable @@ fun () ->
    Pool.with_pool ~domains @@ fun pool ->
    let cfg =
      {
        Srv.default_config with
        Srv.engine = config;
        journal = Some journal;
        ckpt = Some { En.dir = ckpt; every = 2; keep = 3 };
        queue_cap = 65536;
      }
    in
    let core = Srv.Core.create ~pool cfg inst placement in
    let fed = ref 0 in
    let crashed = ref false in
    (try
       List.iter
         (fun it ->
           incr fed;
           (* arm the faults only past a clean prefix, so a durable
              checkpoint exists at the kill *)
           if !fed = clean_prefix then begin
             Fault.configure ~seed:7 ~rate:0.004 ~points:fault_points ();
             Fault.reset_counters ()
           end;
           ignore (Srv.Core.push core it);
           if !fed mod 200 = 0 then Srv.Core.maybe_step core)
         items;
       Srv.Core.maybe_step core
     with Err.Error _ -> crashed := true);
    Fault.disable ();
    Alcotest.(check bool) "a disk fault killed the daemon" true !crashed;
    (* the core is abandoned without shutdown — a kill -9. Only what
       reached the journal and checkpoint directory survives. *)
    let loaded = Cs.load ckpt in
    let offline =
      En.metrics_json inst
        (En.run_trace ~pool ~config ~resume:loaded inst placement journal)
    in
    let resumed = Srv.Core.create ~pool { cfg with Srv.resume = Some loaded } inst placement in
    Srv.Core.maybe_step resumed;
    Srv.Core.flush resumed;
    let daemon = En.metrics_json inst (Srv.Core.result resumed) in
    Srv.Core.shutdown resumed;
    Alcotest.(check string)
      (Printf.sprintf "resumed daemon == offline replay at %d domains" domains)
      offline daemon;
    (* the surviving state passes fsck: torn tails and a generation
       beyond [keep] are legal kill artifacts, not integrity damage *)
    (match Cs.fsck_res ckpt with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "checkpoint fsck failed: %s" (Err.to_string e));
    (match J.fsck_res journal with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "journal fsck failed: %s" (Err.to_string e));
    (!fed, daemon)
  in
  let fed1, json1 = run_at 1 in
  let fed4, json4 = run_at 4 in
  Alcotest.(check int) "same deterministic kill point at 1 and 4 domains" fed1 fed4;
  Alcotest.(check string) "identical metrics at 1 and 4 domains" json1 json4

(* ---------- fallback is surfaced by the serving daemon ---------- *)

let server_counts_ckpt_fallbacks () =
  let inst = small_instance 29 in
  let placement = A.solve inst in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 19) inst ~length:900))
  in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  with_tmp_dir "fallback-journal" @@ fun journal ->
  with_tmp_dir "fallback-ckpt" @@ fun ckpt ->
  let cfg =
    {
      Srv.default_config with
      Srv.engine = config;
      journal = Some journal;
      ckpt = Some { En.dir = ckpt; every = 1; keep = 3 };
    }
  in
  let first = Srv.Core.create cfg inst placement in
  List.iteri (fun i it -> if i < 537 then ignore (Srv.Core.push first it)) items;
  Srv.Core.maybe_step first;
  Srv.Core.shutdown first;
  (* torn write: the newest generation survives only as half a file *)
  let m = Err.get_ok (Cs.read_manifest_res ckpt) in
  let latest = Filename.concat ckpt (Cs.gen_name m.Cs.latest) in
  let body = In_channel.with_open_bin latest In_channel.input_all in
  Out_channel.with_open_bin latest (fun oc ->
      Out_channel.output_string oc (String.sub body 0 (String.length body / 2)));
  let resumed = Srv.Core.create { cfg with Srv.resume = Some (Cs.load ckpt) } inst placement in
  Alcotest.(check int) "fallback counted" 1 (Srv.Core.ckpt_fallbacks resumed);
  Alcotest.(check bool) "health surfaces the fallback" true
    (has_needle ~needle:"ckpt_fallbacks=1" (Srv.Core.health resumed));
  Alcotest.(check bool) "stats surfaces the fallback" true
    (has_needle ~needle:"\"ckpt_fallbacks\":1" (Srv.Core.stats resumed));
  (* and the degraded resume still reproduces the uninterrupted run *)
  List.iteri (fun i it -> if i >= 537 then ignore (Srv.Core.push resumed it)) items;
  Srv.Core.maybe_step resumed;
  Srv.Core.flush resumed;
  Alcotest.(check string) "metrics byte-identical despite the fallback" reference
    (En.metrics_json inst (Srv.Core.result resumed));
  Srv.Core.shutdown resumed

let suite =
  [
    Alcotest.test_case "store keeps K generations, falls back" `Quick
      store_keeps_k_and_falls_back;
    Alcotest.test_case "crash between generation rename and prune" `Quick
      store_crash_between_rename_and_prune;
    Alcotest.test_case "directory with a MANIFEST loads and passes fsck" `Quick
      store_reads_manifest_era_directory;
    Alcotest.test_case "newest generation lost after a journal prune" `Quick
      newest_generation_lost_after_prune;
    Alcotest.test_case "serve --resume loads once and warns once" `Quick serve_resume_loads_once;
    Alcotest.test_case "crash between log fsync and generation rename (1/4 domains)" `Quick
      crash_between_log_sync_and_rename;
    Alcotest.test_case "flipped log byte: fallback or Validation error (1/4 domains)" `Quick
      flipped_byte_in_log_prefix;
    Alcotest.test_case "resume A into directory B copies the log prefix (1/4 domains)" `Quick
      resume_into_another_directory;
    Alcotest.test_case "generation size does not grow with epochs (1/4 domains)" `Quick
      generation_size_does_not_grow;
    Alcotest.test_case "log fault points leave the named prefix intact" `Quick
      log_fault_points;
    Alcotest.test_case "torn tail repaired at a segment boundary" `Quick
      journal_repairs_torn_tail_at_boundary;
    Alcotest.test_case "covered segments pruned, chain stays valid" `Quick
      journal_prunes_covered_segments;
    Alcotest.test_case "write_file unlinks tmp on every failure path" `Quick
      write_file_unlinks_tmp_on_failure;
    Alcotest.test_case "disk chaos: kill+resume == offline replay (1/4 domains)" `Quick
      chaos_kill_resume_identical;
    Alcotest.test_case "daemon counts and survives a ckpt fallback" `Quick
      server_counts_ckpt_fallbacks;
  ]
