open Dmn_prelude
module I = Dmn_core.Instance
module S = Dmn_core.Serial

let instance_roundtrip () =
  let rng = Rng.create 91 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 15 in
    let inst = Util.random_graph_instance ~objects:(1 + Rng.int rng 3) rng n in
    let inst2 = Err.get_ok (S.instance_of_string_res (S.instance_to_string inst)) in
    Alcotest.(check int) "n" (I.n inst) (I.n inst2);
    Alcotest.(check int) "objects" (I.objects inst) (I.objects inst2);
    for v = 0 to n - 1 do
      Util.check_float "cs" (I.cs inst v) (I.cs inst2 v);
      for x = 0 to I.objects inst - 1 do
        Alcotest.(check int) "fr" (I.reads inst ~x v) (I.reads inst2 ~x v);
        Alcotest.(check int) "fw" (I.writes inst ~x v) (I.writes inst2 ~x v)
      done
    done;
    (* metrics agree *)
    let m1 = I.metric inst and m2 = I.metric inst2 in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        Util.check_cost "metric preserved" (Dmn_paths.Metric.d m1 u v) (Dmn_paths.Metric.d m2 u v)
      done
    done
  done

let placement_roundtrip () =
  let p = Dmn_core.Placement.make [| [ 3; 1 ]; [ 0 ]; [ 2; 4; 5 ] |] in
  let p2 = Err.get_ok (S.placement_of_string_res (S.placement_to_string p)) in
  Alcotest.(check int) "objects" 3 (Dmn_core.Placement.objects p2);
  for x = 0 to 2 do
    Alcotest.(check (list int)) "copies"
      (Dmn_core.Placement.copies p ~x)
      (Dmn_core.Placement.copies p2 ~x)
  done

let rejects_garbage () =
  (match Err.get_ok (S.instance_of_string_res "not an instance") with
  | exception Err.Error { Err.kind = Err.Parse; _ } -> ()
  | _ -> Alcotest.fail "garbage accepted");
  match Err.get_ok (S.placement_of_string_res "dmnet-instance v1") with
  | exception Err.Error { Err.kind = Err.Parse; _ } -> ()
  | _ -> Alcotest.fail "wrong header accepted"

let expect_err what pred = function
  | Error (e : Err.t) ->
      if not (pred e) then
        Alcotest.failf "%s: wrong error: %s (%s)" what (Err.to_string e) (Err.kind_name e.Err.kind)
  | Ok _ -> Alcotest.failf "%s: accepted" what

let structured_errors_carry_context () =
  let inst = Util.random_graph_instance (Rng.create 3) 5 in
  let good = S.instance_to_string inst in
  (* version mismatch names the version *)
  let v9 = "dmnet-instance v9\n1 1 0\n1\n1\n0\n" in
  expect_err "version" (fun e ->
      e.Err.kind = Err.Parse && e.Err.token = Some "v9" && e.Err.line = Some 1)
    (S.instance_of_string_res v9);
  (* a non-numeric token is named with its line *)
  let mangled = String.concat "x" [ String.sub good 0 25; String.sub good 26 (String.length good - 26) ] in
  (match S.instance_of_string_res mangled with
  | Error e ->
      if e.Err.line = None then Alcotest.fail "no line context"
  | Ok _ -> () (* the mangled byte may still parse; accept *));
  (* file name is attached by load_instance *)
  let path = Filename.temp_file "dmnet" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.write_file path "dmnet-instance v1\n2 1 1\n0 1 oops\n1 1\n1 1\n0 0\n";
      expect_err "file context" (fun e ->
          e.Err.file = Some path && e.Err.token = Some "oops" && e.Err.line = Some 3)
        (S.load_instance path))

let rejects_invalid_values () =
  let parse = S.instance_of_string_res in
  let is_validation (e : Err.t) = e.Err.kind = Err.Validation in
  expect_err "infinite weight" is_validation
    (parse "dmnet-instance v1\n2 1 1\n0 1 inf\n1 1\n1 1\n0 0\n");
  expect_err "nan cs" is_validation
    (parse "dmnet-instance v1\n2 1 1\n0 1 1.0\nnan 1\n1 1\n0 0\n");
  expect_err "infinite cs" is_validation
    (parse "dmnet-instance v1\n2 1 1\n0 1 1.0\ninf 1\n1 1\n0 0\n");
  expect_err "negative count" is_validation
    (parse "dmnet-instance v1\n2 1 1\n0 1 1.0\n1 1\n-1 1\n0 0\n");
  expect_err "endpoint range" is_validation
    (parse "dmnet-instance v1\n2 1 1\n0 7 1.0\n1 1\n1 1\n0 0\n");
  expect_err "self loop" is_validation
    (parse "dmnet-instance v1\n2 1 1\n0 0 1.0\n1 1\n1 1\n0 0\n");
  expect_err "duplicate edge" is_validation
    (parse "dmnet-instance v1\n2 1 2\n0 1 1.0\n1 0 2.0\n1 1\n1 1\n0 0\n");
  expect_err "disconnected names a node" (fun e ->
      is_validation e
      && (let s = Err.to_string e in
          let has sub =
            let n = String.length sub in
            let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          has "unreachable"))
    (parse "dmnet-instance v1\n4 1 2\n0 1 1.0\n2 3 1.0\n1 1 1 1\n1 1 1 1\n0 0 0 0\n");
  (* a huge declared count errors out instead of allocating *)
  expect_err "huge n" is_validation (parse "dmnet-instance v1\n999999999 1 0\n1\n1\n0\n");
  expect_err "trailing" (fun e -> e.Err.kind = Err.Parse)
    (parse "dmnet-instance v1\n1 1 0\n1\n1\n0\n7\n")

let placement_count_checked () =
  expect_err "row count" (fun e -> e.Err.kind = Err.Validation)
    (S.placement_of_string_res "dmnet-placement v1\n3\n0 1\n2\n");
  expect_err "placement version" (fun e -> e.Err.kind = Err.Parse && e.Err.token = Some "v2")
    (S.placement_of_string_res "dmnet-placement v2\n1\n0\n");
  match S.placement_of_string_res "dmnet-placement v1\n2\n0 1\n2\n" with
  | Ok p -> Alcotest.(check int) "objects" 2 (Dmn_core.Placement.objects p)
  | Error e -> Alcotest.failf "valid placement rejected: %s" (Err.to_string e)

let comments_ignored () =
  let inst = Util.random_graph_instance (Rng.create 1) 4 in
  let s = "# a comment\n" ^ S.instance_to_string inst in
  let inst2 = Err.get_ok (S.instance_of_string_res s) in
  Alcotest.(check int) "n" (I.n inst) (I.n inst2)

let file_io () =
  let path = Filename.temp_file "dmnet" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.write_file path "hello\nworld";
      Alcotest.(check string) "roundtrip" "hello\nworld" (Err.get_ok (S.read_file_res path));
      (* atomic replace overwrites in place *)
      S.write_file path "second";
      Alcotest.(check string) "replace" "second" (Err.get_ok (S.read_file_res path)));
  (* structured I/O errors *)
  (match S.read_file_res "/nonexistent/dmnet/file" with
  | Error e -> Alcotest.(check string) "io kind" "i/o" (Err.kind_name e.Err.kind)
  | Ok _ -> Alcotest.fail "missing file read");
  match S.write_file_res "/nonexistent/dmnet/file" "x" with
  | Error e -> Alcotest.(check string) "io kind" "i/o" (Err.kind_name e.Err.kind)
  | Ok _ -> Alcotest.fail "impossible write succeeded"

(* ---------- truncated traces ---------- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let trace_truncated_final_line () =
  let path = Filename.temp_file "dmnet" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let header = { S.Trace.nodes = 4; objects = 2 } in
      let events =
        List.init 10 (fun i ->
            S.Trace.Req { S.Trace.node = i mod 4; x = i mod 2; write = i mod 3 = 0 })
      in
      let n = Err.get_ok (S.Trace.write_items_res path header (List.to_seq events)) in
      Alcotest.(check int) "written" 10 n;
      (* cut the final line mid-event: a crash mid-append *)
      let whole = Err.get_ok (S.read_file_res path) in
      let cut = String.length whole - 3 in
      let oc = open_out_bin path in
      output_string oc (String.sub whole 0 cut);
      close_out oc;
      (* default: a structured parse error naming line and byte offset *)
      (match S.Trace.with_items_res path (fun _ evs -> List.of_seq evs) with
      | Error e ->
          Alcotest.(check bool) "parse kind" true (e.Err.kind = Err.Parse);
          Alcotest.(check (option string)) "file" (Some path) e.Err.file;
          Alcotest.(check (option int)) "line" (Some 12) e.Err.line;
          Alcotest.(check bool) "names the byte offset" true
            (contains "byte offset" e.Err.msg && contains "truncated final line" e.Err.msg)
      | Ok _ -> Alcotest.fail "truncated trace accepted by default");
      (* opted in: stop cleanly at the last complete event *)
      match
        S.Trace.with_items_res ~tolerate_truncation:true path (fun _ evs -> List.of_seq evs)
      with
      | Ok got ->
          Alcotest.(check int) "complete prefix" 9 (List.length got);
          List.iteri
            (fun i (e : S.Trace.item) ->
              let w = List.nth events i in
              if e <> w then Alcotest.failf "event %d corrupted" i)
            got
      | Error e -> Alcotest.failf "tolerant reader failed: %s" (Err.to_string e))

let trace_header_truncation_never_tolerated () =
  let path = Filename.temp_file "dmnet" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "dmnet-trace v1\n4";
      close_out oc;
      match
        S.Trace.with_items_res ~tolerate_truncation:true path (fun _ evs -> List.of_seq evs)
      with
      | Error e -> Alcotest.(check bool) "parse kind" true (e.Err.kind = Err.Parse)
      | Ok _ -> Alcotest.fail "truncated header accepted")

(* ---------- checkpoints ---------- *)

module Ck = S.Checkpoint
module Cs = Dmn_core.Ckpt_store
module Row = Dmn_core.Epoch_row

(* A checkpoint naming the empty log prefix, and the epoch rows a
   store appends before saving it. *)
let gen_checkpoint : (Ck.t * Row.t list) QCheck.Gen.t =
  let open QCheck.Gen in
  (* floats restricted to exact dyadic values so structural equality is
     the right roundtrip check (%.17g roundtrips any float; the
     restriction just keeps counterexamples readable) *)
  let dyadic = map (fun k -> float_of_int k /. 8.0) (int_range 0 8000) in
  let* nodes = int_range 1 12 in
  let* objects = int_range 1 5 in
  let* placements =
    array_repeat objects (list_size (int_range 1 3) (int_range 0 (nodes - 1)))
  in
  let* next_epoch = int_range 0 6 in
  let* epochs =
    flatten_l
      (List.init next_epoch (fun index ->
           let* events = int_range 0 50 in
           let* reads = int_range 0 50 in
           let* resolves = int_range 0 5 in
           let* solve_retries = int_range 0 5 in
           let* solve_fallbacks = int_range 0 5 in
           let* copies = int_range 0 20 in
           let* serving = dyadic in
           let* storage = dyadic in
           let* migration = dyadic in
           let* p50 = dyadic in
           let* p95 = dyadic in
           let* p99 = dyadic in
           let* dropped = int_range 0 10 in
           let* emergency = int_range 0 3 in
           let* topo = int_range 0 4 in
           let* solve_skipped = int_range 0 5 in
           let* dirty = int_range 0 5 in
           let* cache_hits = int_range 0 5 in
           let* cache_misses = int_range 0 5 in
           let* cache_evictions = int_range 0 5 in
           return
             {
               Row.index; events; reads; writes = events - reads; resolves; solve_retries;
               solve_fallbacks; copies; dropped; emergency; topo; serving; storage;
               migration; p50; p95; p99; solve_skipped; dirty; cache_hits; cache_misses;
               cache_evictions;
             }))
  in
  (* writes may come out negative above; clamp rows to stay valid *)
  let epochs =
    List.map (fun (r : Row.t) -> { r with writes = max 0 r.writes }) epochs
  in
  let events_consumed = List.fold_left (fun a (r : Row.t) -> a + r.events) 0 epochs in
  let topo_applied = List.fold_left (fun a (r : Row.t) -> a + r.topo) 0 epochs in
  let* topo_pending = int_range 0 3 in
  let* metric_version = int_range 1 50 in
  let* metric_hash = map Int64.of_int int in
  let* down_flags = array_repeat nodes bool in
  let down =
    List.filter_map
      (fun (z, f) -> if f then Some z else None)
      (Array.to_list (Array.mapi (fun z f -> (z, f)) down_flags))
  in
  let* n_ov = int_range 0 4 in
  let* edge_overrides =
    flatten_l
      (List.init
         (if nodes < 2 then 0 else n_ov)
         (fun _ ->
           let* u = int_range 0 (nodes - 2) in
           let* v = int_range (u + 1) (nodes - 1) in
           let* removed = bool in
           let* w = dyadic in
           return ((u, v), if removed then None else Some w)))
  in
  let* h_buckets = int_range 2 10 in
  let* picks = array_repeat h_buckets (int_range 0 9) in
  let h_counts =
    List.filter_map
      (fun (i, c) -> if c > 0 then Some (i, c) else None)
      (Array.to_list (Array.mapi (fun i c -> (i, c)) picks))
  in
  let* h_sum = dyadic in
  let* fingerprint = map Int64.of_int int in
  let* policy = oneofl [ "static"; "resolve" ] in
  let* epoch_size = int_range 1 1000 in
  let* period = int_range 1 1000 in
  let* checkpoints_written = int_range 0 50 in
  let* serve_retries = int_range 0 50 in
  let* dirty_eps = oneofl [ 0.0; 0.25; 0.375; 0.5 ] in
  let sparse =
    let* picks = array_repeat nodes (int_range 0 3) in
    return
      (List.filter_map
         (fun (v, c) -> if c > 0 then Some (v, c) else None)
         (Array.to_list (Array.mapi (fun v c -> (v, c)) picks)))
  in
  let* resolve_state =
    flatten_a
      (Array.init objects (fun _ ->
           let* valid = bool in
           if not valid then return Ck.no_obj_state
           else
             let* o_mhash = map Int64.of_int int in
             let* o_fr = sparse in
             let* o_fw = sparse in
             return { Ck.o_valid = true; o_mhash; o_fr; o_fw }))
  in
  return
    ( {
        Ck.policy; epoch_size; period; next_epoch; events_consumed;
        topo_consumed = topo_applied + topo_pending; topo_applied; fingerprint; nodes; objects;
        placements; log = Ck.empty_log; dirty_eps; resolve_state;
        hist = { Ck.h_lo = 1.0; h_base = 2.0; h_buckets; h_sum; h_counts };
        topo = { Ck.metric_version; metric_hash; down; edge_overrides };
        checkpoints_written; serve_retries;
      },
      epochs )

(* The rows go to the store's log and the generation names their
   prefix; loading the directory gives both back. *)
let qcheck_store_roundtrip =
  QCheck.Test.make ~name:"store round trip: rows + generation" ~count:200
    (QCheck.make ~print:(fun (t, _) -> Ck.to_string t) gen_checkpoint)
    (fun (t, rows) ->
      let dir = Filename.temp_dir "dmnet-test-serial" ".ckpt" in
      Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
      let store = Err.get_ok (Cs.create_res dir ~keep:2) in
      let t = { t with Ck.log = Err.get_ok (Cs.append_res store rows) } in
      ignore (Err.get_ok (Cs.save_res store t) : int);
      match Cs.load_res dir with
      | Ok l -> l.Cs.ckpt = t && l.Cs.rows = rows && l.Cs.fallbacks = 0
      | Error e -> QCheck.Test.fail_reportf "rejected its own output: %s" (Err.to_string e))

let sample_checkpoint () =
  {
    Ck.policy = "resolve"; epoch_size = 100; period = 400; next_epoch = 2; events_consumed = 200;
    topo_consumed = 3; topo_applied = 2;
    fingerprint = 0x0123456789abcdefL; nodes = 5; objects = 2;
    placements = [| [ 0; 3 ]; [ 2 ] |];
    log = { Ck.l_rows = 2; l_bytes = 318; l_crc = 0x1234abcdl };
    dirty_eps = 0.25;
    resolve_state =
      [|
        { Ck.o_valid = true; o_mhash = 0x00000000cafef00dL; o_fr = [ (0, 3); (3, 1) ]; o_fw = [ (2, 5) ] };
        Ck.no_obj_state;
      |];
    hist = { Ck.h_lo = 1.0; h_base = 2.0; h_buckets = 8; h_sum = 150.0; h_counts = [ (0, 120); (3, 80) ] };
    topo =
      {
        Ck.metric_version = 4; metric_hash = 0x00000000deadbeefL; down = [ 1 ];
        edge_overrides = [ ((0, 3), Some 2.5); ((1, 2), None) ];
      };
    checkpoints_written = 2; serve_retries = 1;
  }

let checkpoint_corruption_detected () =
  let t = sample_checkpoint () in
  let s = Ck.to_string t in
  (* flip one digit inside a section body: the CRC must catch it *)
  let flip_at i =
    let b = Bytes.of_string s in
    let c = Bytes.get b i in
    Bytes.set b i (if c = '0' then '1' else '0');
    Bytes.to_string b
  in
  let find needle =
    let p = ref (-1) in
    String.iteri
      (fun i _ ->
        let k = String.length needle in
        if !p < 0 && i + k <= String.length s && String.sub s i k = needle then p := i)
      s;
    !p
  in
  (* the row count in the epochs section's one line: a flipped digit
     there would name another log prefix *)
  let body_pos = find "\nlog " + 5 in
  (match Ck.of_string_res (flip_at body_pos) with
  | Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation);
      Alcotest.(check int) "CLI exit code" 65 (Err.exit_code e);
      Alcotest.(check bool) "names the section and CRC" true
        (contains "CRC mismatch" e.Err.msg && contains "section" e.Err.msg)
  | Ok _ -> Alcotest.fail "flipped byte accepted");
  (* damaging the stored CRC itself is equally fatal *)
  let hdr = "section meta " in
  (match Ck.of_string_res (flip_at (find hdr + String.length hdr + 2)) with
  | Error e -> Alcotest.(check bool) "header damage detected" true (e.Err.kind <> Err.Internal)
  | Ok _ -> Alcotest.fail "damaged section header accepted");
  (* truncation: dropping the final section is a parse error *)
  let cut = String.sub s 0 (find "section ops") in
  match Ck.of_string_res cut with
  | Error e -> Alcotest.(check bool) "truncation is a parse error" true (e.Err.kind = Err.Parse)
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted"

let checkpoint_save_load () =
  let path = Filename.temp_file "dmnet" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = sample_checkpoint () in
      Err.get_ok (Ck.save_res path t);
      let t' = Err.get_ok (Ck.load_res path) in
      Alcotest.(check bool) "file roundtrip" true (t' = t);
      (* load errors carry the path *)
      match Ck.load_res "/nonexistent/dmnet/ckpt" with
      | Error e -> Alcotest.(check bool) "io kind" true (e.Err.kind = Err.Io)
      | Ok _ -> Alcotest.fail "missing checkpoint loaded")

let checkpoint_fingerprint_is_order_sensitive () =
  let e1 = { S.Trace.node = 1; x = 0; write = false }
  and e2 = { S.Trace.node = 2; x = 1; write = true } in
  let fold evs =
    List.fold_left Ck.fingerprint_event (Ck.fingerprint_init ~nodes:4 ~objects:2) evs
  in
  Alcotest.(check bool) "order matters" false (fold [ e1; e2 ] = fold [ e2; e1 ]);
  Alcotest.(check bool) "header matters" false
    (Ck.fingerprint_init ~nodes:4 ~objects:2 = Ck.fingerprint_init ~nodes:2 ~objects:4);
  Alcotest.(check bool) "write bit matters" false
    (fold [ e2 ] = fold [ { e2 with S.Trace.write = false } ])

let suite =
  [
    Alcotest.test_case "instance round trip" `Quick instance_roundtrip;
    Alcotest.test_case "placement round trip" `Quick placement_roundtrip;
    Alcotest.test_case "rejects garbage" `Quick rejects_garbage;
    Alcotest.test_case "errors carry context" `Quick structured_errors_carry_context;
    Alcotest.test_case "rejects invalid values" `Quick rejects_invalid_values;
    Alcotest.test_case "placement count checked" `Quick placement_count_checked;
    Alcotest.test_case "comments ignored" `Quick comments_ignored;
    Alcotest.test_case "file io" `Quick file_io;
    Alcotest.test_case "trace truncated final line" `Quick trace_truncated_final_line;
    Alcotest.test_case "trace header truncation fatal" `Quick
      trace_header_truncation_never_tolerated;
    Alcotest.test_case "checkpoint corruption detected" `Quick checkpoint_corruption_detected;
    Alcotest.test_case "checkpoint save/load" `Quick checkpoint_save_load;
    Alcotest.test_case "checkpoint fingerprint order-sensitive" `Quick
      checkpoint_fingerprint_is_order_sensitive;
    Util.qtest qcheck_store_roundtrip;
  ]
