(* Metrics under concurrency: counters hammered from several domains
   while snapshots are taken live must never be torn or non-monotonic,
   and every JSON dump must round-trip through the canonical parser. *)

open Dmn_prelude

(* ---------- concurrent hammering ---------- *)

let hammer_at domains =
  let reg = Metrics.create () in
  let counters = Array.init 3 (fun i -> Metrics.counter reg (Printf.sprintf "c%d" i)) in
  let g = Metrics.gauge reg "g" in
  let per_domain = 20_000 in
  let start = Atomic.make false in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get start) do
              Domain.cpu_relax ()
            done;
            for i = 1 to per_domain do
              Metrics.incr counters.(i mod 3);
              Metrics.add counters.((i + 1) mod 3) 2;
              if i land 1023 = 0 then Metrics.set g (float_of_int (d + i))
            done))
  in
  Atomic.set start true;
  (* snapshot continuously while the workers run: per-counter values
     must be monotonic across successive snapshots, and the dump must
     always parse *)
  let prev = Array.make 3 0 in
  let rounds = ref 0 in
  let all_done = ref false in
  while (not !all_done) && !rounds < 10_000 do
    incr rounds;
    let snap = Metrics.snapshot reg in
    List.iteri
      (fun i (name, v) ->
        if i < 3 then
          match v with
          | Metrics.Counter n ->
              if n < prev.(i) then
                Alcotest.failf "counter %s went backwards: %d -> %d" name prev.(i) n;
              prev.(i) <- n
          | _ -> Alcotest.failf "instrument %s changed kind" name)
      snap;
    (match Jsonx.parse (Metrics.snapshot_to_json snap) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "live dump unparseable: %s" (Err.to_string e));
    let total = Array.fold_left ( + ) 0 prev in
    if total >= 3 * domains * per_domain then all_done := true
  done;
  List.iter Domain.join workers;
  (* exact totals: per iteration one incr (+1) and one add (+2), spread
     over the three counters *)
  let expect = 3 * domains * per_domain in
  let final =
    Metrics.snapshot reg
    |> List.filter_map (function _, Metrics.Counter n -> Some n | _ -> None)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int)
    (Printf.sprintf "no lost increments at %d domains" domains)
    expect final

let concurrent_counters () = List.iter hammer_at [ 1; 2; 4 ]

(* ---------- dump round-trips through the canonical parser ---------- *)

let dump_roundtrips () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "requests_total" in
  let g = Metrics.gauge reg "queue_depth" in
  let h = Metrics.histogram reg "latency" in
  Metrics.add c 41;
  Metrics.incr c;
  Metrics.set g (-2.5);
  List.iter (Metrics.observe h) [ 0.0; 1e-9; 0.5; 3.0; 1e20 (* overflow bucket *) ];
  let json = Metrics.to_json reg in
  let v = Jsonx.parse_exn json in
  Alcotest.(check (option int)) "counter" (Some 42)
    (Option.bind (Jsonx.member "requests_total" v) Jsonx.to_int);
  Alcotest.(check (option (float 1e-9))) "gauge" (Some (-2.5))
    (Option.bind (Jsonx.member "queue_depth" v) Jsonx.to_float);
  let hist = Jsonx.member_exn "latency" v in
  Alcotest.(check (option int)) "hist count" (Some 5)
    (Option.bind (Jsonx.member "count" hist) Jsonx.to_int);
  (match Jsonx.member_exn "buckets" hist with
  | Jsonx.Arr buckets ->
      Alcotest.(check bool) "some buckets" true (buckets <> []);
      (* the overflow bucket's upper bound serializes as the string "inf" *)
      let has_inf =
        List.exists
          (function Jsonx.Arr [ _; Jsonx.Str "inf"; _ ] -> true | _ -> false)
          buckets
      in
      Alcotest.(check bool) "overflow bucket rendered as \"inf\"" true has_inf
  | _ -> Alcotest.fail "buckets is not an array");
  (* printing the parsed document and re-parsing is a fixpoint *)
  let reprinted = Jsonx.to_string v in
  Alcotest.(check bool) "print/parse fixpoint" true
    (Jsonx.equal v (Jsonx.parse_exn reprinted))

(* ---------- the engine's metrics document (v4) ---------- *)

let engine_metrics_json_v4 () =
  let module En = Dmn_engine.Engine in
  let inst = Util.random_graph_instance ~objects:2 (Rng.create 7) 10 in
  let placement = Dmn_core.Approx.solve inst in
  let events = Dmn_dynamic.Stream.stationary (Rng.create 8) inst ~length:300 in
  let config = { En.default_config with En.epoch = 100; En.dirty_eps = 0.3 } in
  let r = En.run ~config inst placement (List.to_seq events) in
  let v = Jsonx.parse_exn (En.metrics_json inst r) in
  Alcotest.(check (option int)) "version bumped for the incremental-resolve fields" (Some 4)
    (Option.bind (Jsonx.member "version" v) Jsonx.to_int);
  let totals = Jsonx.member_exn "totals" v in
  List.iter
    (fun field ->
      if Jsonx.member field totals = None then Alcotest.failf "totals.%s missing" field)
    [ "solve_skipped"; "cache_hits"; "cache_misses"; "cache_evictions" ];
  (* every epoch snapshot carries the new counters and gauges *)
  (match Jsonx.member_exn "epochs" v with
  | Jsonx.Arr (e :: _) ->
      List.iter
        (fun field ->
          if Jsonx.member field e = None then Alcotest.failf "epoch field %s missing" field)
        [
          "solve_skipped_total"; "solve_cache_hits_total"; "solve_cache_misses_total";
          "solve_cache_evictions_total"; "epoch_solve_skipped"; "dirty_objects";
          "epoch_cache_hits"; "epoch_cache_misses"; "epoch_cache_evictions";
        ];
      (* the solve-latency histogram is wall-clock and must stay out of
         the deterministic document *)
      if Jsonx.member "solve_epoch_s" e <> None then
        Alcotest.fail "solve_epoch_s leaked into the deterministic epochs"
  | _ -> Alcotest.fail "epochs is not a non-empty array");
  if Jsonx.member "solve_epoch_s" v <> None then
    Alcotest.fail "solve_epoch_s leaked into the deterministic document";
  (* the whole document survives a print/parse round trip *)
  Alcotest.(check bool) "print/parse fixpoint" true
    (Jsonx.equal v (Jsonx.parse_exn (Jsonx.to_string v)))

(* ---------- the metrics document, pinned byte-for-byte ---------- *)

(* Two small fixed-seed runs, each driven epoch by epoch through the
   incremental API: the resolve policy under node failures with
   incremental re-solve, and the cache policy on a drifting stream.
   Their whole metrics documents are compared with stored copies, so
   any change to the per-epoch timeline, the totals or the float
   rendering shows up as a diff against [test/fixtures]. *)
let pinned_runs () =
  let module En = Dmn_engine.Engine in
  let module St = Dmn_dynamic.Stream in
  let drive config inst items =
    let eng = En.create ~config inst (Dmn_core.Approx.solve inst) in
    let epoch = config.En.epoch in
    let rec go batch m seq =
      match Seq.uncons seq with
      | None -> if batch <> [] then En.step eng (List.rev batch)
      | Some ((St.Req _ as it), rest) ->
          if m + 1 = epoch then begin
            En.step eng (List.rev (it :: batch));
            go [] 0 rest
          end
          else go (it :: batch) (m + 1) rest
      | Some ((St.Topo _ as it), rest) -> go (it :: batch) m rest
    in
    go [] 0 items;
    (inst, eng)
  in
  let churn_inst = Util.random_graph_instance ~objects:3 (Rng.create 21) 12 in
  let drift_inst = Util.random_graph_instance ~objects:3 (Rng.create 31) 12 in
  [
    ( "resolve-failures",
      drive
        { En.default_config with En.policy = En.Resolve; epoch = 40; dirty_eps = 0.3 }
        churn_inst
        (Dmn_workload.Adversary.failure_repair (Rng.create 22) churn_inst ~phases:4
           ~phase_length:120 ~write_fraction:0.2) );
    ( "cache-drifting",
      drive
        { En.default_config with En.policy = En.Cache; epoch = 50 }
        drift_inst
        (St.items_of_events
           (St.drifting_seq (Rng.create 32) drift_inst ~phases:4 ~phase_length:100
              ~write_fraction:0.2)) );
  ]

(* next to the test binary in the build tree, whatever the working
   directory (dune runtest runs in the build tree, CI from the root) *)
let read_fixture name =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures" in
  In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all

let metrics_document_pinned () =
  let module En = Dmn_engine.Engine in
  List.iter
    (fun (name, (inst, eng)) ->
      let doc = En.metrics_json inst (En.finish eng) in
      let expected = read_fixture (Printf.sprintf "metrics-%s.json" name) in
      if doc ^ "\n" <> expected then
        Alcotest.failf "%s: the metrics document differs from fixtures/metrics-%s.json" name name;
      (* the live snapshot is the document's last epoch plus the
         request-cost and solve-latency histograms *)
      let live = En.live_snapshot eng in
      let scalars, hists =
        List.partition (fun (_, v) -> match v with Metrics.Hist _ -> false | _ -> true) live
      in
      Alcotest.(check (list string))
        (name ^ ": live histograms") [ "request_cost"; "solve_epoch_s" ] (List.map fst hists);
      let v = Jsonx.parse_exn doc in
      (match Jsonx.member_exn "epochs" v with
      | Jsonx.Arr epochs when epochs <> [] ->
          Alcotest.(check bool)
            (name ^ ": live scalars = last epoch entry") true
            (Jsonx.equal (List.nth epochs (List.length epochs - 1))
               (Jsonx.parse_exn (Metrics.snapshot_to_json scalars)))
      | _ -> Alcotest.failf "%s: no epochs" name);
      Alcotest.(check string)
        (name ^ ": live request_cost = the document's")
        (Jsonx.to_string (Jsonx.member_exn "request_cost" v))
        (Jsonx.to_string
           (Jsonx.parse_exn (Metrics.value_to_json (List.assoc "request_cost" hists)))))
    (pinned_runs ())

(* ---------- the accounting schema's table ---------- *)

(* Every output walks [Epoch_row.fields], so a record field missing from
   the table, or an entry whose accessors touch another field, would
   silently drop a number from the timeline, the totals and the
   checkpoint row. The record's size in words is its field count. *)
let epoch_row_table_covers_the_record () =
  let module Row = Dmn_core.Epoch_row in
  Alcotest.(check int) "one table entry per record field"
    (Obj.size (Obj.repr Row.zero))
    (List.length Row.fields);
  let read r (f : Row.field) =
    match f.kind with Row.Int (get, _) -> float_of_int (get r) | Row.Float (get, _) -> get r
  in
  (* setting one field is visible through its own getter and no other *)
  List.iteri
    (fun i (f : Row.field) ->
      let v = i + 1 in
      let r =
        match f.kind with
        | Row.Int (_, set) -> set Row.zero v
        | Row.Float (_, set) -> set Row.zero (float_of_int v)
      in
      List.iteri
        (fun j (g : Row.field) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s set, %s read" f.gauge g.gauge)
            (if i = j then float_of_int v else 0.0)
            (read r g))
        Row.fields)
    Row.fields

(* ---------- Jsonx parser edge cases ---------- *)

let jsonx_parses_edge_cases () =
  let ok s v =
    match Jsonx.parse s with
    | Ok got ->
        if not (Jsonx.equal got v) then
          Alcotest.failf "%S parsed to %s" s (Jsonx.to_string got)
    | Error e -> Alcotest.failf "%S rejected: %s" s (Err.to_string e)
  in
  ok "null" Jsonx.Null;
  ok " [ 1 , -2.5e3 , true ] " (Jsonx.Arr [ Jsonx.Num 1.0; Jsonx.Num (-2500.0); Jsonx.Bool true ]);
  ok "{\"a\":{\"b\":[]},\"c\":\"\"}"
    (Jsonx.Obj [ ("a", Jsonx.Obj [ ("b", Jsonx.Arr []) ]); ("c", Jsonx.Str "") ]);
  ok "\"\\u0041\\n\\\\\"" (Jsonx.Str "A\n\\");
  (* astral plane via surrogate pair: U+1F600 *)
  ok "\"\\ud83d\\ude00\"" (Jsonx.Str "\xf0\x9f\x98\x80");
  let bad s =
    match Jsonx.parse s with
    | Ok v -> Alcotest.failf "%S accepted as %s" s (Jsonx.to_string v)
    | Error e ->
        if e.Err.kind <> Err.Parse then
          Alcotest.failf "%S: expected a parse error, got %s" s (Err.to_string e)
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":1,}"; "nul"; "1 2"; "\"unterminated"; "\"\\q\"";
      "\"ctrl\n\""; "{\"a\" 1}"; "[1] tail" ]

let suite =
  [
    Alcotest.test_case "concurrent counters: monotonic, lossless, parseable" `Quick
      concurrent_counters;
    Alcotest.test_case "dump round-trips through Jsonx" `Quick dump_roundtrips;
    Alcotest.test_case "engine metrics document is v4" `Quick engine_metrics_json_v4;
    Alcotest.test_case "metrics document pinned to fixtures" `Quick metrics_document_pinned;
    Alcotest.test_case "epoch-row table covers the record" `Quick
      epoch_row_table_covers_the_record;
    Alcotest.test_case "Jsonx edge cases" `Quick jsonx_parses_edge_cases;
  ]
