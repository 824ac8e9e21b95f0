(* Helper executable for perfbench/run.py. Every subcommand reads
   [--key value] flags; all but [gen] write one JSON document to [--out].

     gen        the instance file and v1 wire trace of one workload, from a seed
     drive      the load generator: one data and one control connection to a
                running [dmnet serve]; paced open-loop stretches alternating
                with saturating ones; commits are observed with [stats]
     reference  [Engine.run_items] over the trace: the metrics JSON that every
                daemon and mirror run must reproduce byte for byte
     mirror     the daemon's layer calls, in the daemon's order, in this
                process; with [--traced 1] every call is a span *)

open Dmn_prelude
module I = Dmn_core.Instance
module A = Dmn_core.Approx
module Serial = Dmn_core.Serial
module Trace = Dmn_core.Serial.Trace
module Journal = Dmn_core.Serial.Trace.Journal
module Ckpt_store = Dmn_core.Ckpt_store
module En = Dmn_engine.Engine
module Stream = Dmn_dynamic.Stream
module Sc = Dmn_dynamic.Serve_cache
module Churn = Dmn_paths.Churn

(* ---------- flags, JSON, small helpers ---------- *)

let flags : (string, string) Hashtbl.t = Hashtbl.create 16

let flag_s k =
  match Hashtbl.find_opt flags k with Some v -> v | None -> failwith ("pb: missing --" ^ k)

let flag_i k = int_of_string (flag_s k)
let flag_f k = float_of_string (flag_s k)
let now = Unix.gettimeofday
let num x = Jsonx.Num x
let numi i = Jsonx.Num (float_of_int i)
let nums xs = Jsonx.Arr (List.map num xs)

let write_json path fields =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Jsonx.to_string (Jsonx.Obj fields));
      output_char oc '\n')

let read_all path = In_channel.with_open_bin path In_channel.input_all
let load_instance path = Err.get_ok (Serial.load_instance path)
let header_of inst = { Trace.nodes = I.n inst; objects = I.objects inst }

(* the CLI's default [--algo approx-mp] initial placement *)
let initial_placement inst =
  let config = { A.default_config with A.solver = A.Mettu_plaxton } in
  Dmn_core.Placement.make (Array.init (I.objects inst) (fun x -> A.place_object ~config inst ~x))

(* The engine configuration [dmnet serve] builds from the workload's
   flags. Two values differ from [En.default_config]: [--dirty-eps]
   defaults to 0.3 (the library's default is 0.0), and [attempts] is
   [--retries] (default 2) + 1. *)
let cli_config () =
  let policy =
    match En.policy_of_string (flag_s "policy") with
    | Some p -> p
    | None -> failwith "pb: unknown --policy"
  in
  {
    En.default_config with
    En.policy;
    epoch = flag_i "epoch";
    storage_period = None;
    attempts = 2 + 1;
    dirty_eps = 0.3;
    solve_cache = 0;
  }

(* Inclusive linear-interpolation quantile, as Python's
   [statistics.quantiles(method="inclusive")]. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sum = List.fold_left ( +. ) 0.0
let file_size path = (Unix.stat path).Unix.st_size

(* The stream alternates paced and saturating stretches, so that both
   phases sample the machine at several moments of the run rather than
   in one block each. Stretch [s] holds the [s]-th sixth of the paced
   epochs, then the [s]-th sixth of the saturating ones; [layout] gives
   each stretch's first epoch, first saturating epoch and end. *)
let stretches = 6

let layout ~paced ~total =
  let sat = total - paced in
  if paced < stretches || sat < stretches then
    failwith "pb: too few epochs for the paced and saturating stretches";
  let start s = (paced * s / stretches) + (sat * s / stretches) in
  List.init stretches (fun s ->
      (start s, start s + (paced * (s + 1) / stretches) - (paced * s / stretches), start (s + 1)))

let is_paced ~paced ~total k = List.exists (fun (a, b, _) -> a <= k && k < b) (layout ~paced ~total)

(* ---------- gen ---------- *)

let to_trace_item = function
  | Stream.Req { Stream.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = Stream.Write }
  | Stream.Topo t -> Trace.Topo t

(* The first [total] requests of [items] and the topology items among
   them. Nothing follows the last request, so every item falls in a
   full epoch: the daemon leaves a trailing partial batch unserved. *)
let take_requests total items =
  let rec go m seq () =
    if m >= total then Seq.Nil
    else
      match seq () with
      | Seq.Nil -> failwith (Printf.sprintf "pb gen: stream ended after %d of %d requests" m total)
      | Seq.Cons ((Stream.Req _ as it), rest) -> Seq.Cons (it, go (m + 1) rest)
      | Seq.Cons (it, rest) -> Seq.Cons (it, go m rest)
  in
  go 0 items

let gen () =
  let dir = flag_s "dir" and requests = flag_i "requests" in
  let write_share = flag_f "write-share" in
  let rng = Rng.create (flag_i "seed") in
  let g = Dmn_graph.Gen.random_geometric rng (flag_i "n") (flag_f "radius") in
  let n = Dmn_graph.Wgraph.n g in
  let cs = Array.init n (fun _ -> Rng.float_in rng (flag_f "fee-lo") (flag_f "fee-hi")) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.zipf rng ~objects:(flag_i "objects") ~n ~requests:(20 * n)
      ~s:(flag_f "zipf-s")
      ~write_ratio:(write_share /. (1.0 -. write_share))
  in
  let inst_path = Filename.concat dir "inst.dmn" in
  Serial.write_file inst_path (Serial.instance_to_string (I.of_graph g ~cs ~fr ~fw));
  (* draw the stream from the instance as the daemon will load it *)
  let inst = load_instance inst_path in
  let srng = Rng.split rng in
  let phase_length = flag_i "phase-length" in
  let phases = (requests + phase_length - 1) / phase_length in
  let items =
    match flag_s "stream" with
    | "stationary" -> Stream.items_of_events (Stream.stationary_seq srng inst ~length:requests)
    | "drifting" ->
        Stream.items_of_events
          (Stream.drifting_seq srng inst ~phases ~phase_length ~write_fraction:write_share)
    | "failure-repair" ->
        Dmn_workload.Adversary.failure_repair srng inst ~phases ~phase_length
          ~write_fraction:write_share
    | s -> failwith ("pb gen: unknown --stream " ^ s)
  in
  ignore
    (Trace.write_items (Filename.concat dir "stream.v1") (header_of inst)
       (Seq.map to_trace_item (take_requests requests items))
      : int)

(* ---------- drive ---------- *)

(* Byte offsets just past the newline of every [chunk]-th request line
   (v1 request lines start with 'r' or 'w'; topology, banner and count
   lines do not), and the request count. *)
let chunk_ends buf ~chunk =
  let ends = ref [] and reqs = ref 0 and pos = ref 0 in
  let len = String.length buf in
  while !pos < len do
    let nl = match String.index_from_opt buf !pos '\n' with Some i -> i | None -> len - 1 in
    (match buf.[!pos] with
    | 'r' | 'w' ->
        incr reqs;
        if !reqs mod chunk = 0 then ends := (nl + 1) :: !ends
    | _ -> ());
    pos := nl + 1
  done;
  (Array.of_list (List.rev !ends), !reqs)

(* an integer field of a parsed [stats] reply *)
let field_int reply key =
  match Jsonx.to_int (Jsonx.member_exn key reply) with
  | Some i -> i
  | None -> failwith ("pb drive: stats field " ^ key ^ " is not an integer")

(* the first integer on the line starting with [key] in a /proc file *)
let proc_field path key =
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith (Printf.sprintf "pb drive: no %s in %s" key path)
        | Some l when String.starts_with ~prefix:key l ->
            let rest = String.sub l (String.length key) (String.length l - String.length key) in
            Scanf.sscanf rest " %d" Fun.id
        | Some _ -> scan ()
      in
      scan ())

let drive () =
  let buf = read_all (flag_s "stream") in
  let epoch = flag_i "epoch" and chunk = flag_i "chunk" and rate = flag_f "paced-rate" in
  let paced_epochs = flag_i "paced-epochs" and pid = flag_i "pid" in
  if chunk <= 0 || epoch mod chunk <> 0 then failwith "pb drive: --chunk must divide --epoch";
  let ends, reqs = chunk_ends buf ~chunk in
  if reqs mod epoch <> 0 then failwith "pb drive: the stream is not a whole number of epochs";
  let per_epoch = epoch / chunk and total_epochs = reqs / epoch in
  let epoch_end k = ends.(((k + 1) * per_epoch) - 1) in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX (flag_s "socket"));
    fd
  in
  let data = connect () and ctl = connect () in
  Unix.set_nonblock data;
  let wpos = ref 0 and target = ref 0 in
  (* epochs whose closing request is fully written / observed committed *)
  let closed = ref 0 and committed = ref 0 in
  let inflight = ref false and stats_sent = ref 0 and ctl_bytes = ref 0 in
  let commit_at = Array.make total_epochs 0.0 in
  let qmax = ref 0 and shed = ref 0 and malformed = ref 0 and served = ref 0 in
  let last_progress = ref (now ()) in
  let write_some () =
    match Unix.write_substring data buf !wpos (min (!target - !wpos) 262144) with
    | w ->
        wpos := !wpos + w;
        last_progress := now ();
        while !closed < total_epochs && epoch_end !closed <= !wpos do
          incr closed
        done
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let send_ctl s =
    let off = ref 0 in
    while !off < String.length s do
      off := !off + Unix.write_substring ctl s !off (String.length s - !off)
    done
  in
  (* at most one [stats] in flight, and only while an epoch is pending *)
  let poll () =
    if (not !inflight) && !committed < !closed then begin
      send_ctl "stats\n";
      inflight := true;
      incr stats_sent
    end
  in
  let on_reply t line =
    ctl_bytes := !ctl_bytes + String.length line + 1;
    let reply = Jsonx.parse_exn line in
    let e = min (field_int reply "epochs") total_epochs in
    for k = !committed to e - 1 do
      commit_at.(k) <- t
    done;
    if e > !committed then last_progress := t;
    committed := max !committed e;
    served := field_int reply "served";
    qmax := max !qmax (field_int reply "queue_depth");
    shed := field_int reply "shed";
    malformed := field_int reply "malformed";
    inflight := false
  in
  let pending = Buffer.create 1024 and rbuf = Bytes.create 65536 in
  let read_ctl () =
    match Unix.read ctl rbuf 0 (Bytes.length rbuf) with
    | 0 -> failwith "pb drive: the daemon closed the control connection"
    | r ->
        let t = now () in
        Buffer.add_subbytes pending rbuf 0 r;
        let s = Buffer.contents pending in
        let start = ref 0 in
        (try
           while true do
             let i = String.index_from s !start '\n' in
             on_reply t (String.sub s !start (i - !start));
             start := i + 1
           done
         with Not_found -> ());
        Buffer.clear pending;
        Buffer.add_substring pending s !start (String.length s - !start)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let wait timeout =
    if now () -. !last_progress > 120.0 then failwith "pb drive: no progress for 120 s";
    let wr = if !wpos < !target then [ data ] else [] in
    match Unix.select [ ctl ] wr [] timeout with
    | r, _, _ -> if r <> [] then read_ctl ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* The daemon is idle between stretches. Say so on stdout and wait for
     a line on stdin: run.py times daemon start-ups there, so that
     [setup_s] samples the machine at the same moments as the load. *)
  let pause () =
    print_string "idle\n";
    flush stdout;
    ignore (In_channel.input_line stdin : string option)
  in
  let late = ref [] and closing_late = ref [] and lags = ref [] in
  let sat_s = ref 0.0 in
  List.iter
    (fun (a, b, c) ->
      pause ();
      (* Paced stretch, an open loop: chunk [j] (its last request) is
         due at t0 + (j - first + 1)·chunk/rate, and is written when due.
         Requests within a chunk go out together, at most chunk/rate
         before their own due time; epoch-closing requests always end a
         chunk. *)
      let first = a * per_epoch and stop = b * per_epoch in
      let t0 = now () +. 0.01 in
      let due j = t0 +. (float_of_int ((j - first + 1) * chunk) /. rate) in
      let released = ref first and acked = ref first in
      while !committed < b do
        let t = now () in
        while !released < stop && due !released <= t do
          target := ends.(!released);
          incr released
        done;
        if !wpos < !target then write_some ();
        let t = now () in
        while !acked < !released && ends.(!acked) <= !wpos do
          late := (t -. due !acked) :: !late;
          if (!acked + 1) mod per_epoch = 0 then closing_late := (t -. due !acked) :: !closing_late;
          incr acked
        done;
        poll ();
        (* Spin rather than sleep until the next chunk is due: the
           generator owns its core, and waking a halted virtual CPU from
           a timer can take milliseconds, which would show up as
           lateness. *)
        wait (if !released < stop then 0.0 else 0.05)
      done;
      for k = a to b - 1 do
        lags := (commit_at.(k) -. due (((k + 1) * per_epoch) - 1)) :: !lags
      done;
      (* Saturating stretch: its epochs as fast as the socket accepts
         them; backpressure closes the loop at capacity. *)
      let sat_start = now () in
      target := epoch_end (c - 1);
      while !committed < c do
        if !wpos < !target then write_some ();
        poll ();
        wait 0.05
      done;
      sat_s := !sat_s +. (commit_at.(c - 1) -. sat_start))
    (layout ~paced:paced_epochs ~total:total_epochs);
  pause ();
  let vmhwm_kb = proc_field (Printf.sprintf "/proc/%d/status" pid) "VmHWM:" in
  let wchar = proc_field (Printf.sprintf "/proc/%d/io" pid) "wchar:" in
  send_ctl "shutdown\n";
  let rec await_bye () =
    let s = Buffer.contents pending in
    if not (String.length s >= 4 && String.sub s 0 4 = "bye\n") then begin
      (match Unix.read ctl rbuf 0 (Bytes.length rbuf) with
      | 0 -> failwith "pb drive: no reply to shutdown"
      | r -> Buffer.add_subbytes pending rbuf 0 r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      await_bye ()
    end
  in
  await_bye ();
  Unix.close data;
  Unix.close ctl;
  let ms xs = nums (List.rev_map (fun x -> 1000.0 *. x) xs) in
  write_json (flag_s "out")
    [
      ("requests", numi reqs);
      ("sat_requests", numi (reqs - (paced_epochs * epoch)));
      ("sat_s", num !sat_s);
      ("lags_ms", ms !lags);
      ("late_ms", ms !late);
      ("closing_late_ms", ms !closing_late);
      ("served", numi !served);
      ("queue_depth_max", numi !qmax);
      ("shed", numi !shed);
      ("malformed", numi !malformed);
      ("vmhwm_kb", numi vmhwm_kb);
      ("wchar", numi wchar);
      ("ctl_bytes", numi !ctl_bytes);
      ("stats_sent", numi !stats_sent);
    ]

(* ---------- reference ---------- *)

let solver_calls (t : En.totals) = t.resolves + t.solve_retries + t.solve_fallbacks - t.cache_hits
let dirty_total (r : En.result) = List.fold_left (fun a (s : En.epoch_stats) -> a + s.dirty) 0 r.epochs

let engine_counts (r : En.result) =
  let t = r.totals in
  [
    ("events", numi t.events);
    ("epochs", numi (List.length r.epochs));
    ("solver_calls", numi (solver_calls t));
    ("dirty", numi (dirty_total r));
    ("solve_skipped", numi t.solve_skipped);
    ("topo_events", numi t.topo);
    ("emergency", numi t.emergency);
    ("dropped", numi t.dropped);
  ]

let reference () =
  let inst = load_instance (flag_s "inst") in
  let pool = Pool.create ~domains:(flag_i "domains") in
  let placement = initial_placement inst in
  let r =
    Trace.with_items (flag_s "stream") (fun _ items ->
        En.run_items ~pool ~config:(cli_config ()) inst placement (Seq.map En.of_trace_item items))
  in
  En.write_metrics (flag_s "metrics-out") inst r;
  write_json (flag_s "out") (engine_counts r)

(* ---------- mirror ---------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  epoch : int;  (** -1 outside the epoch loop *)
  t0 : float;
  t1 : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

(* spans that only group others: their self time is glue, not a layer *)
let containers = [ "run"; "setup"; "epoch"; "shutdown" ]

(* The lines of the next epoch, from [!pos] up to and including its
   [epoch]-th request line; advances [pos]. *)
let split_epoch buf pos epoch =
  let len = String.length buf in
  let acc = ref [] and reqs = ref 0 in
  while !reqs < epoch && !pos < len do
    let nl = match String.index_from_opt buf !pos '\n' with Some i -> i | None -> len in
    let line = String.sub buf !pos (nl - !pos) in
    (match line.[0] with 'r' | 'w' -> incr reqs | _ -> ());
    acc := line :: !acc;
    pos := nl + 1
  done;
  List.rev !acc

(* least-squares slope of ys against 0, 1, 2, ... *)
let slope ys =
  let n = float_of_int (List.length ys) in
  if n < 2.0 then 0.0
  else begin
    let xs = List.init (List.length ys) float_of_int in
    let mx = sum xs /. n and my = sum ys /. n in
    let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
    let sxx = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0.0 xs in
    sxy /. sxx
  end

let mirror () =
  let traced = flag_i "traced" = 1 in
  let every = flag_i "ckpt-every" and paced_epochs = flag_i "paced-epochs" in
  let jdir = flag_s "journal" and cdir = flag_s "ckpt" in
  let config = cli_config () in
  let epoch = config.En.epoch in
  (* the daemon reads these bytes off its socket: loading them is not
     part of the mirrored work *)
  let buf = read_all (flag_s "stream") in
  let pool = Pool.create ~domains:(flag_i "domains") in
  let spans = ref [] and next_id = ref 0 and stack = ref [ -1 ] in
  let span ?(epoch = -1) name f =
    if not traced then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = List.hd !stack in
      stack := id :: !stack;
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = f () in
      let t1 = now () in
      let w1 = Gc.minor_words () in
      stack := List.tl !stack;
      spans := { id; name; parent; epoch; t0; t1; words = w1 -. w0 } :: !spans;
      r
    end
  in
  let ckpt_bytes = ref [] and heap = ref [] in
  let journal_pruned = ref 0 and items = ref 0 in
  (* the daemon run's saturating epochs, and the time spent on them *)
  let total_epochs = snd (chunk_ends buf ~chunk:epoch) / epoch in
  let saturating k = not (is_paced ~paced:paced_epochs ~total:total_epochs k) in
  let sat_s = ref 0.0 in
  let ckpt_written () =
    match Ckpt_store.read_manifest_res cdir with
    | Ok m -> ckpt_bytes := file_size (Filename.concat cdir (Ckpt_store.gen_name m.Ckpt_store.latest)) :: !ckpt_bytes
    | Error e -> failwith (Err.to_string e)
  in
  let prune journal eng ~epoch =
    let b0 = Journal.bytes_on_disk journal in
    ignore (span ~epoch "journal.prune" (fun () -> Journal.prune journal ~covered:(En.items_consumed eng)) : int);
    journal_pruned := !journal_pruned + b0 - Journal.bytes_on_disk journal
  in
  let wall0 = now () in
  let inst, r, json, journal_bytes =
    span "run" (fun () ->
        let inst, eng, journal =
          span "setup" (fun () ->
              let inst = span "setup.load_instance" (fun () -> load_instance (flag_s "inst")) in
              let placement = span "setup.placement" (fun () -> initial_placement inst) in
              (* a checkpoint interval that never fires: [checkpoint_now]
                 writes the daemon's generations at the daemon's cadence,
                 so they can be timed apart from [step_commit] *)
              let eng =
                span "setup.engine_create" (fun () ->
                    En.create ~pool ~config ~ckpt:{ En.dir = cdir; every = max_int; keep = 3 } inst
                      placement)
              in
              let journal =
                span "setup.journal_create" (fun () -> Journal.create jdir (header_of inst))
              in
              (inst, eng, journal))
        in
        let header = header_of inst in
        let pos = ref 0 and k = ref 0 in
        while !pos < String.length buf do
          let epoch_id = !k in
          let e0 = now () in
          span ~epoch:epoch_id "epoch" (fun () ->
              let sp name f = span ~epoch:epoch_id name f in
              let lines = sp "server.split" (fun () -> split_epoch buf pos epoch) in
              let parsed =
                sp "trace.parse" (fun () ->
                    List.filter_map
                      (fun l ->
                        match Trace.item_of_line_res ~header l with
                        | Ok it -> it
                        | Error e -> failwith (Err.to_string e))
                      lines)
              in
              items := !items + List.length parsed;
              sp "journal.add" (fun () -> List.iter (Journal.add journal) parsed);
              let batch = sp "server.batch" (fun () -> List.map En.of_trace_item parsed) in
              if (En.epochs_done eng + 1) mod every = 0 then
                sp "journal.sync" (fun () -> Journal.sync journal);
              let p = sp "engine.begin" (fun () -> En.step_begin eng batch) in
              sp "engine.solve" (fun () -> En.solve_pending eng p);
              sp "engine.commit" (fun () -> En.step_commit eng p);
              if En.epochs_done eng mod every = 0 then begin
                sp "ckpt.write" (fun () -> En.checkpoint_now eng);
                ckpt_written ();
                prune journal eng ~epoch:epoch_id
              end);
          if saturating epoch_id then sat_s := !sat_s +. (now () -. e0);
          if traced then heap := float_of_int (Gc.quick_stat ()).Gc.heap_words :: !heap;
          incr k
        done;
        (* the daemon's graceful shutdown *)
        span "shutdown" (fun () ->
            span "journal.sync" (fun () -> Journal.sync journal);
            span "ckpt.write" (fun () -> En.checkpoint_now eng);
            ckpt_written ();
            prune journal eng ~epoch:(-1);
            span "journal.close" (fun () -> Journal.close journal));
        let r = span "metrics.finish" (fun () -> En.finish eng) in
        let json = span "metrics.json" (fun () -> En.metrics_json inst r) in
        (inst, r, json, !journal_pruned + Journal.bytes_on_disk journal))
  in
  let wall = now () -. wall0 in
  Serial.write_file (flag_s "metrics-out") (json ^ "\n");
  let sat_requests = r.En.totals.En.events - (paced_epochs * epoch) in
  let ckpt_bytes = List.rev !ckpt_bytes in
  let counts =
    engine_counts r
    @ [
        ("items", numi !items);
        ("journal_bytes", numi journal_bytes);
        ("ckpt_writes", numi (List.length ckpt_bytes));
        ("ckpt_bytes_first", numi (match ckpt_bytes with b :: _ -> b | [] -> 0));
        ("ckpt_bytes_last", numi (List.fold_left (fun _ b -> b) 0 ckpt_bytes));
        ("metrics_json_bytes", numi (String.length json));
      ]
  in
  let timing =
    [
      ("wall_s", num wall);
      ("sat_s", num !sat_s);
      ("sat_requests", numi sat_requests);
    ]
  in
  if not traced then write_json (flag_s "out") (counts @ timing)
  else begin
    let spans = List.rev !spans in
    (* self time: a span's duration minus its children's *)
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child s.parent (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      spans;
    let self s = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
    let root = List.find (fun s -> s.name = "run") spans in
    let traced_wall = root.t1 -. root.t0 in
    let named n = List.filter (fun s -> s.name = n) spans in
    let durs n = List.map (fun s -> s.t1 -. s.t0) (named n) in
    let total n = sum (List.map self (named n)) in
    let words n = sum (List.map (fun s -> s.words) (named n)) in
    let layers =
      List.sort_uniq compare (List.map (fun s -> s.name) spans)
      |> List.filter (fun n -> not (List.mem n containers))
    in
    let covered = sum (List.map total layers) in
    let events = float_of_int r.En.totals.En.events and nitems = float_of_int !items in
    let epochs = float_of_int (List.length r.En.epochs) in
    let ms = 1000.0 and per x d = if d > 0.0 then x /. d else 0.0 in
    let calls = solver_calls r.En.totals in
    (* the serve kernel alone: [Serve_cache.serve_cost] over the
       stream's requests against the fixed initial placement *)
    let kernel_ns, churn_us =
      let trace_items =
        Trace.with_items (flag_s "stream") (fun _ items -> List.of_seq items)
      in
      let placement = initial_placement inst in
      let metric = I.metric inst in
      let caches =
        Array.init (I.objects inst) (fun x -> Sc.create metric ~x (Dmn_core.Placement.copies placement ~x))
      in
      let reqs =
        Array.of_list
          (List.filter_map
             (function
               | Trace.Req { Trace.node; x; write } ->
                   Some (node, x, if write then Stream.Write else Stream.Read)
               | Trace.Topo _ -> None)
             trace_items)
      in
      let acc = ref 0.0 in
      let k0 = now () in
      Array.iter (fun (node, x, kind) -> acc := !acc +. Sc.serve_cost caches.(x) ~node kind) reqs;
      let kernel = now () -. k0 in
      ignore (Sys.opaque_identity !acc);
      (* topology repair alone: [Churn.apply] on the stream's topology
         events, in order, on a fresh handle *)
      let topo = List.filter_map (function Trace.Topo t -> Some t | Trace.Req _ -> None) trace_items in
      let churn_s =
        match I.graph inst with
        | Some g when topo <> [] ->
            let ch = Churn.create g metric in
            let c0 = now () in
            List.iter (Churn.apply ch) topo;
            now () -. c0
        | _ -> 0.0
      in
      ( per (kernel *. 1e9) (float_of_int (Array.length reqs)),
        per (churn_s *. 1e6) (float_of_int (List.length topo)) )
    in
    let begin_ms = List.map (fun d -> d *. ms) (durs "engine.begin") in
    let solve_ms = List.map (fun d -> d *. ms) (durs "engine.solve") in
    let commit_us = List.map (fun d -> d *. 1e6) (durs "engine.commit") in
    let ckpt_ms = List.map (fun d -> d *. ms) (durs "ckpt.write") in
    let layer_metrics =
      [
        ("trace.parse_ns_per_item", num (per (total "trace.parse" *. 1e9) nitems));
        ("trace.parse_words_per_item", num (per (words "trace.parse") nitems));
        ("journal.add_ns_per_item", num (per (total "journal.add" *. 1e9) nitems));
        ("journal.add_words_per_item", num (per (words "journal.add") nitems));
        ("journal.bytes_per_item", num (per (float_of_int journal_bytes) nitems));
        ("journal.sync_ms_p50", num (quantile (List.map (fun d -> d *. ms) (durs "journal.sync")) 0.5));
        ("journal.syncs", numi (List.length (named "journal.sync")));
        ("journal.prune_ms_total", num (total "journal.prune" *. ms));
        ("serve.kernel_ns_per_event", num kernel_ns);
        ("engine.begin_ns_per_event", num (per (total "engine.begin" *. 1e9) events));
        ("engine.begin_words_per_event", num (per (words "engine.begin") events));
        ("engine.begin_ms_p95", num (quantile begin_ms 0.95));
        ("engine.solve_ms_p50", num (quantile solve_ms 0.5));
        ("engine.solve_ms_p95", num (quantile solve_ms 0.95));
        ("engine.solver_calls", numi calls);
        ("engine.solve_ms_per_call", num (per (total "engine.solve" *. ms) (float_of_int calls)));
        ("engine.dirty", numi (dirty_total r));
        ("engine.solve_skipped", numi r.En.totals.En.solve_skipped);
        ("engine.commit_us_p50", num (quantile commit_us 0.5));
        ("engine.commit_words_per_epoch", num (per (words "engine.commit") epochs));
        ("ckpt.write_ms_p50", num (quantile ckpt_ms 0.5));
        ("ckpt.write_ms_max", num (List.fold_left Float.max 0.0 ckpt_ms));
        ( "ckpt.words_per_write",
          num (per (words "ckpt.write") (float_of_int (List.length ckpt_ms))) );
        ("ckpt.bytes_first", numi (match ckpt_bytes with b :: _ -> b | [] -> 0));
        ("ckpt.bytes_last", numi (List.fold_left (fun _ b -> b) 0 ckpt_bytes));
        ("churn.apply_us_per_event", num churn_us);
        ("engine.topo_events", numi r.En.totals.En.topo);
        ("engine.emergency", numi r.En.totals.En.emergency);
        ("engine.dropped", numi r.En.totals.En.dropped);
        ("metrics.json_ms", num ((total "metrics.finish" +. total "metrics.json") *. ms));
        ("metrics.json_bytes", numi (String.length json));
        ("gc.heap_words_per_epoch", num (slope (List.rev !heap)));
        ("setup.load_instance_ms", num (total "setup.load_instance" *. ms));
        ("setup.placement_ms", num (total "setup.placement" *. ms));
        ("setup.engine_create_ms", num (total "setup.engine_create" *. ms));
        ("tracing.coverage", num (covered /. traced_wall));
      ]
    in
    let shares =
      List.map
        (fun n ->
          Jsonx.Obj
            [
              ("layer", Jsonx.Str n);
              ("self_ms", num (total n *. ms));
              ("share", num (total n /. traced_wall));
              ("spans", numi (List.length (named n)));
            ])
        layers
    in
    Out_channel.with_open_bin (flag_s "spans-out") (fun oc ->
        List.iter
          (fun s ->
            output_string oc
              (Jsonx.to_string
                 (Jsonx.Obj
                    [
                      ("id", numi s.id);
                      ("name", Jsonx.Str s.name);
                      ("parent", numi s.parent);
                      ("epoch", numi s.epoch);
                      ("start_us", num (Float.round ((s.t0 -. root.t0) *. 1e7) /. 10.0));
                      ("end_us", num (Float.round ((s.t1 -. root.t0) *. 1e7) /. 10.0));
                      ("self_us", num (Float.round (self s *. 1e7) /. 10.0));
                      ("minor_words", num s.words);
                    ]));
            output_char oc '\n')
          spans);
    write_json (flag_s "out")
      (counts @ timing
      @ [
          ("traced_wall_s", num traced_wall);
          ("layers", Jsonx.Arr shares);
          ("metrics", Jsonx.Obj layer_metrics);
        ])
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest ->
      let rec go = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            Hashtbl.replace flags (String.sub k 2 (String.length k - 2)) v;
            go rest
        | [] -> ()
        | a :: _ -> failwith ("pb: unexpected argument " ^ a)
      in
      go rest;
      (match cmd with
      | "gen" -> gen ()
      | "drive" -> drive ()
      | "reference" -> reference ()
      | "mirror" -> mirror ()
      | c -> failwith ("pb: unknown subcommand " ^ c))
  | _ ->
      prerr_endline "usage: pb (gen|drive|reference|mirror) --key value ...";
      exit 2
