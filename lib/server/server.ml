module I = Dmn_core.Instance
module P = Dmn_core.Placement
module Serial = Dmn_core.Serial
module Trace = Dmn_core.Serial.Trace
module Cs = Dmn_core.Ckpt_store
module En = Dmn_engine.Engine
module Stream = Dmn_dynamic.Stream
module Metrics = Dmn_prelude.Metrics
module Err = Dmn_prelude.Err
module Pool = Dmn_prelude.Pool

type config = {
  engine : En.config;
  ckpt : En.checkpointing option;
  resume : Cs.loaded option;
  journal : string option;
  queue_cap : int;
  tick_s : float option;
  metrics_out : string option;
  max_events : int option;
  max_seconds : float option;
}

let default_config =
  {
    engine = En.default_config;
    ckpt = None;
    resume = None;
    journal = None;
    queue_cap = 16384;
    tick_s = None;
    metrics_out = None;
    max_events = None;
    max_seconds = None;
  }

let rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
                  let rest = String.sub line 6 (String.length line - 6) in
                  (* the field separator is a tab: "VmRSS:\t  123 kB" *)
                  let rest = String.map (fun c -> if c = '\t' then ' ' else c) rest in
                  match
                    String.split_on_char ' ' rest |> List.filter (fun s -> s <> "")
                  with
                  | num :: _ -> ( match int_of_string_opt num with Some v -> v | None -> 0)
                  | [] -> 0
                else scan ()
          in
          scan ())

module Core = struct
  type t = {
    cfg : config;
    inst : I.t;
    eng : En.t;
    journal : Trace.Journal.t option;
    queue : Stream.item Queue.t;
    mutable queued_reqs : int;
    reg : Metrics.t;
    c_accepted : Metrics.counter;
    c_shed : Metrics.counter;
    c_malformed : Metrics.counter;
    c_epochs : Metrics.counter;
    c_flushes : Metrics.counter;
    c_journal_syncs : Metrics.counter;
    c_ckpt_fallbacks : Metrics.counter;
    c_segments_pruned : Metrics.counter;
    g_queue : Metrics.gauge;
    g_uptime : Metrics.gauge;
    g_rss_kb : Metrics.gauge;
    g_journal_bytes : Metrics.gauge;
    g_journal_segments : Metrics.gauge;
    g_ckpt_gen : Metrics.gauge;
    header : Trace.header;
    started : float;
    mutable stopped : bool;
  }

  let instance t = t.inst
  let queue_depth t = t.queued_reqs
  let accepted t = Metrics.counter_value t.c_accepted
  let shed t = Metrics.counter_value t.c_shed
  let malformed t = Metrics.counter_value t.c_malformed
  let served t = En.events_consumed t.eng
  let epochs t = En.epochs_done t.eng
  let uptime_s t = Unix.gettimeofday () -. t.started
  let count_malformed t = Metrics.incr t.c_malformed
  let ckpt_fallbacks t = Metrics.counter_value t.c_ckpt_fallbacks
  let journal_bytes t = match t.journal with Some j -> Trace.Journal.bytes_on_disk j | None -> 0
  let journal_segments t = match t.journal with Some j -> Trace.Journal.segments j | None -> 0
  let durable_offset t = match t.journal with Some j -> Trace.Journal.durable j | None -> 0

  (* Newest generation in the checkpoint directory (-1 when not
     checkpointing or nothing written yet). Read from the directory so
     it stays honest across resumes and external fsck. *)
  let ckpt_generation t =
    match t.cfg.ckpt with
    | None -> -1
    | Some c -> (
        match Cs.read_manifest_res c.En.dir with
        | Ok m -> m.Cs.latest
        | Error _ -> -1)

  let create ?pool cfg inst placement =
    if cfg.queue_cap <= 0 then
      Err.fail Err.Validation "serve: queue capacity must be positive";
    (match (cfg.resume, cfg.journal) with
    | Some _, None ->
        Err.fail Err.Validation
          "serve: --resume needs the ingest journal that fed the checkpointed run (--journal)"
    | _ -> ());
    let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
    let eng = En.create ?pool ~config:cfg.engine ?ckpt:cfg.ckpt ?resume:cfg.resume inst placement in
    let queue = Queue.create () in
    let queued_reqs = ref 0 in
    (* Resume: the journal chain holds every event the checkpointed run
       accepted that is not yet pruned. Fast-forward its consumed part
       (fingerprint-checked when the chain is complete, positionally
       skipped past pruned segments) and re-queue the unserved tail —
       it re-enters the batcher exactly where it would have, so the
       resumed run's epoch boundaries (and metrics) match the
       uninterrupted run's. *)
    (match cfg.resume with
    | None -> ()
    | Some _ ->
        let dir = Option.get cfg.journal in
        let chain = Trace.Journal.read_chain ~tolerate_truncation:true dir in
        let h = chain.Trace.Journal.chain_header in
        if h <> header then
          Err.failf ~file:dir Err.Validation
            "journal header (%d nodes, %d objects) does not match the instance (%d nodes, %d \
             objects)"
            h.Trace.nodes h.Trace.objects header.Trace.nodes header.Trace.objects;
        let rest =
          En.fast_forward_from eng ~base:chain.Trace.Journal.base
            (Seq.map En.of_trace_item (List.to_seq chain.Trace.Journal.chain_items))
        in
        Seq.iter
          (fun item ->
            Queue.add item queue;
            match item with Stream.Req _ -> incr queued_reqs | Stream.Topo _ -> ())
          rest);
    let journal =
      match cfg.journal with
      | None -> None
      | Some dir ->
          (* a resumed run continues the existing chain; a fresh run
             starts a fresh one *)
          Some (Trace.Journal.create ~append:(Option.is_some cfg.resume) dir header)
    in
    (* registration order is the dump's field order *)
    let reg = Metrics.create () in
    let c_accepted = Metrics.counter reg "accepted_total" in
    let c_shed = Metrics.counter reg "shed_total" in
    let c_malformed = Metrics.counter reg "malformed_total" in
    let c_epochs = Metrics.counter reg "epochs_total" in
    let c_flushes = Metrics.counter reg "flushes_total" in
    let c_journal_syncs = Metrics.counter reg "journal_syncs_total" in
    let c_ckpt_fallbacks = Metrics.counter reg "ckpt_fallbacks_total" in
    let c_segments_pruned = Metrics.counter reg "journal_segments_pruned_total" in
    let g_queue = Metrics.gauge reg "queue_depth" in
    let g_uptime = Metrics.gauge reg "uptime_s" in
    let g_rss_kb = Metrics.gauge reg "rss_kb" in
    let g_journal_bytes = Metrics.gauge reg "journal_bytes" in
    let g_journal_segments = Metrics.gauge reg "journal_segments" in
    let g_ckpt_gen = Metrics.gauge reg "ckpt_generation" in
    Option.iter (fun l -> Metrics.add c_ckpt_fallbacks l.Cs.fallbacks) cfg.resume;
    {
      cfg;
      inst;
      eng;
      journal;
      queue;
      queued_reqs = !queued_reqs;
      reg;
      c_accepted;
      c_shed;
      c_malformed;
      c_epochs;
      c_flushes;
      c_journal_syncs;
      c_ckpt_fallbacks;
      c_segments_pruned;
      g_queue;
      g_uptime;
      g_rss_kb;
      g_journal_bytes;
      g_journal_segments;
      g_ckpt_gen;
      header;
      started = Unix.gettimeofday ();
      stopped = false;
    }

  let journal_sync t =
    match t.journal with
    | None -> ()
    | Some j ->
        Trace.Journal.sync j;
        Metrics.incr t.c_journal_syncs

  (* Sound only immediately after a checkpoint write: at that moment
     the engine's consumed item count {e is} the checkpoint's coverage,
     so every segment strictly below it is durably replaceable. *)
  let prune_covered t =
    match (t.cfg.ckpt, t.journal) with
    | Some _, Some j ->
        let removed = Trace.Journal.prune j ~covered:(En.items_consumed t.eng) in
        if removed > 0 then Metrics.add t.c_segments_pruned removed
    | _ -> ()

  let stream_to_trace_item = function
    | Stream.Req { Stream.node; x; kind } ->
        Trace.Req { Trace.node; x; write = kind = Stream.Write }
    | Stream.Topo tp -> Trace.Topo tp

  let push t item =
    match item with
    | Stream.Req _ when t.queued_reqs >= t.cfg.queue_cap ->
        Metrics.incr t.c_shed;
        `Shed
    | _ ->
        (* journal before queue: an event the engine can ever see is on
           its way to disk first *)
        (match t.journal with
        | None -> ()
        | Some j -> Trace.Journal.add j (stream_to_trace_item item));
        Queue.add item t.queue;
        (match item with Stream.Req _ -> t.queued_reqs <- t.queued_reqs + 1 | _ -> ());
        Metrics.incr t.c_accepted;
        `Accepted

  let push_line t line =
    match Trace.item_of_line_res ~header:t.header line with
    | Ok None -> `Ignored
    | Ok (Some item) -> (push t (En.of_trace_item item) :> [ `Accepted | `Shed | `Ignored | `Malformed of Err.t ])
    | Error e -> `Malformed e

  (* Dequeue one count-epoch: items in arrival order up to and
     including the [epoch]-th request; later items stay queued. This is
     the same chunking the one-shot replay wrapper does, so epoch
     boundaries — and therefore metrics — are byte-identical between a
     daemon and a replay fed the same stream. *)
  let pull_epoch t =
    let epoch = t.cfg.engine.En.epoch in
    let acc = ref [] in
    let reqs = ref 0 in
    while !reqs < epoch do
      match Queue.pop t.queue with
      | Stream.Req _ as it ->
          incr reqs;
          t.queued_reqs <- t.queued_reqs - 1;
          acc := it :: !acc
      | Stream.Topo _ as it -> acc := it :: !acc
    done;
    List.rev !acc

  (* One epoch. The journal is fsynced before a step that writes a
     checkpoint, so it covers everything that checkpoint claims as
     consumed; the segments the checkpoint covers are pruned once it
     is on disk, and only when the step recorded an epoch (a batch
     that applies nothing writes no checkpoint). *)
  let step_batch t batch =
    let due = En.checkpoint_due t.eng in
    if due then journal_sync t;
    let before = En.epochs_done t.eng in
    En.step t.eng batch;
    Metrics.incr t.c_epochs;
    if due && En.epochs_done t.eng > before then prune_covered t

  let maybe_step t =
    while t.queued_reqs >= t.cfg.engine.En.epoch do
      step_batch t (pull_epoch t)
    done

  let flush t =
    if not (Queue.is_empty t.queue) then begin
      let acc = ref [] in
      while not (Queue.is_empty t.queue) do
        acc := Queue.pop t.queue :: !acc
      done;
      t.queued_reqs <- 0;
      Metrics.incr t.c_flushes;
      step_batch t (List.rev !acc)
    end

  let refresh_gauges t =
    Metrics.set t.g_queue (float_of_int t.queued_reqs);
    Metrics.set t.g_uptime (uptime_s t);
    Metrics.set t.g_rss_kb (float_of_int (rss_kb ()));
    Metrics.set t.g_journal_bytes (float_of_int (journal_bytes t));
    Metrics.set t.g_journal_segments (float_of_int (journal_segments t));
    Metrics.set t.g_ckpt_gen (float_of_int (ckpt_generation t))

  let metrics_dump t =
    refresh_gauges t;
    let buf = Buffer.create 2048 in
    Buffer.add_string buf "{\"dmnet\":\"serve-metrics\",\"version\":1,\"server\":";
    Buffer.add_string buf (Metrics.snapshot_to_json (Metrics.snapshot t.reg));
    Buffer.add_string buf ",\"engine\":";
    Buffer.add_string buf (Metrics.snapshot_to_json (En.live_snapshot t.eng));
    Buffer.add_string buf ",\"ops\":";
    Buffer.add_string buf (Metrics.snapshot_to_json (En.live_ops t.eng));
    Buffer.add_char buf '}';
    Buffer.contents buf

  let health t =
    Printf.sprintf
      "ok uptime_s=%.1f epochs=%d served=%d queue=%d accepted=%d shed=%d rss_kb=%d \
       journal_bytes=%d segments=%d ckpt_gen=%d ckpt_fallbacks=%d"
      (uptime_s t) (epochs t) (served t) t.queued_reqs (accepted t) (shed t) (rss_kb ())
      (journal_bytes t) (journal_segments t) (ckpt_generation t) (ckpt_fallbacks t)

  let stats t =
    Printf.sprintf
      "{\"dmnet\":\"serve-stats\",\"version\":1,\"uptime_s\":%s,\"epochs\":%d,\"served\":%d,\"accepted\":%d,\"shed\":%d,\"malformed\":%d,\"queue_depth\":%d,\"rss_kb\":%d,\"journal_bytes\":%d,\"journal_segments\":%d,\"ckpt_generation\":%d,\"ckpt_fallbacks\":%d}"
      (Metrics.json_float (uptime_s t))
      (epochs t) (served t) (accepted t) (shed t) (malformed t) t.queued_reqs (rss_kb ())
      (journal_bytes t) (journal_segments t) (ckpt_generation t) (ckpt_fallbacks t)

  let result t = En.finish t.eng

  let shutdown ?(drain = false) t =
    if not t.stopped then begin
      t.stopped <- true;
      maybe_step t;
      if drain then flush t;
      (* durability order: the journal must cover everything the final
         checkpoint claims was consumed; pruning comes last, after the
         covering checkpoint is durably on disk *)
      journal_sync t;
      (match t.cfg.ckpt with
      | Some _ ->
          En.checkpoint_now t.eng;
          prune_covered t
      | None -> ());
      (match t.journal with None -> () | Some j -> Trace.Journal.close j);
      match t.cfg.metrics_out with
      | None -> ()
      | Some path -> En.write_metrics path t.inst (En.finish t.eng)
    end

  (* Model a crash between two steps: no final epoch, checkpoint or
     metrics. The journal was appended on push, so a resume replays
     every epoch since the last checkpoint and must land
     byte-identical to an uninterrupted run. *)
  let kill t =
    if not t.stopped then begin
      t.stopped <- true;
      match t.journal with None -> () | Some j -> Trace.Journal.close j
    end
end

type summary = {
  served_events : int;
  accepted_events : int;
  shed_events : int;
  malformed_lines : int;
  epochs_served : int;
  queued_unserved : int;
  elapsed_s : float;
  peak_rss_kb : int;
}

let summary ?peak_rss_kb (t : Core.t) =
  {
    served_events = Core.served t;
    accepted_events = Core.accepted t;
    shed_events = Core.shed t;
    malformed_lines = Core.malformed t;
    epochs_served = Core.epochs t;
    queued_unserved = Core.queue_depth t;
    elapsed_s = Core.uptime_s t;
    peak_rss_kb = (match peak_rss_kb with Some v -> v | None -> rss_kb ());
  }

(* ---------- the select loop ---------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; is_stdin : bool }

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | 0 -> off := len (* give up silently; the peer is gone *)
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let run_daemon ?pool cfg inst placement ~socket ~use_stdin =
  if socket = None && not use_stdin then
    Err.fail Err.Validation "serve: need at least one ingest source (--socket and/or --stdin)";
  let core = Core.create ?pool cfg inst placement in
  let listen_fd =
    match socket with
    | None -> None
    | Some path ->
        (match Unix.lstat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | _ -> Err.failf ~file:path Err.Io "refusing to replace a non-socket file"
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 16
         with Unix.Unix_error (err, op, _) ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           Err.failf ~file:path Err.Io "%s: %s" op (Unix.error_message err));
        Some (fd, path)
  in
  let stop_requested = ref false in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_requested := true)) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_requested := true)) in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let conns = ref [] in
  let stdin_open = ref use_stdin in
  let malformed_logged = ref 0 in
  let peak_rss = ref (rss_kb ()) in
  let last_rss_sample = ref (Unix.gettimeofday ()) in
  let last_tick = ref (Unix.gettimeofday ()) in
  let drain_on_stop = ref false in
  let finally () =
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigpipe prev_pipe;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
    match listen_fd with
    | None -> ()
    | Some (fd, path) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally (fun () ->
      let reply conn line =
        let out = line ^ "\n" in
        if conn.is_stdin then begin
          print_string out;
          flush stdout
        end
        else
          try write_all conn.fd out
          with Unix.Unix_error _ -> () (* peer vanished; reader side will reap *)
      in
      let handle_line conn line =
        match String.trim line with
        | "" -> ()
        | "metrics" -> reply conn (Core.metrics_dump core)
        | "health" -> reply conn (Core.health core)
        | "stats" -> reply conn (Core.stats core)
        | "sync" ->
            Core.journal_sync core;
            reply conn (Printf.sprintf "ok offset=%d" (Core.durable_offset core))
        | "shutdown" ->
            reply conn "bye";
            stop_requested := true
        | data -> (
            match Core.push_line core data with
            | `Accepted | `Shed | `Ignored -> ()
            | `Malformed e ->
                Core.count_malformed core;
                let msg = "err: " ^ Err.to_string e in
                if not conn.is_stdin then reply conn msg;
                if !malformed_logged < 5 then begin
                  incr malformed_logged;
                  Printf.eprintf "dmnet serve: %s\n%!" msg
                end)
      in
      let drain_buffer conn =
        (* consume complete lines; the tail stays buffered *)
        let s = Buffer.contents conn.buf in
        let n = String.length s in
        let start = ref 0 in
        (try
           while true do
             let i = String.index_from s !start '\n' in
             handle_line conn (String.sub s !start (i - !start));
             start := i + 1
           done
         with Not_found -> ());
        if !start > 0 then begin
          Buffer.clear conn.buf;
          if !start < n then Buffer.add_substring conn.buf s !start (n - !start)
        end
      in
      let close_conn conn =
        if conn.is_stdin then stdin_open := false
        else begin
          (try Unix.close conn.fd with Unix.Unix_error _ -> ());
          conns := List.filter (fun c -> c.fd != conn.fd) !conns
        end;
        (* a torn final line at EOF is data loss we can still report *)
        if Buffer.length conn.buf > 0 then begin
          handle_line conn (Buffer.contents conn.buf);
          Buffer.clear conn.buf
        end
      in
      let chunk = Bytes.create 65536 in
      let read_conn conn =
        match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
        | 0 -> close_conn conn
        | r ->
            Buffer.add_subbytes conn.buf chunk 0 r;
            drain_buffer conn
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn conn
      in
      let stdin_conn = { fd = Unix.stdin; buf = Buffer.create 4096; is_stdin = true } in
      let started = Unix.gettimeofday () in
      let stopping = ref false in
      while not !stopping do
        let now = Unix.gettimeofday () in
        (* stop conditions, checked at the loop head so signal delivery
           during serving is honored promptly *)
        (match cfg.max_seconds with
        | Some limit when now -. started >= limit -> stop_requested := true
        | _ -> ());
        (match cfg.max_events with
        | Some limit when Core.served core >= limit -> stop_requested := true
        | _ -> ());
        if !stop_requested then stopping := true
        else if (not !stdin_open) && listen_fd = None && !conns = [] then begin
          (* pure-stdin mode at end of input: drain and leave *)
          drain_on_stop := true;
          stopping := true
        end
        else begin
          let fds =
            (match listen_fd with Some (fd, _) -> [ fd ] | None -> [])
            @ (if !stdin_open then [ Unix.stdin ] else [])
            @ List.map (fun c -> c.fd) !conns
          in
          let timeout =
            match cfg.tick_s with Some t -> Float.min 0.25 (Float.max 0.01 t) | None -> 0.25
          in
          (match Unix.select fds [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
              List.iter
                (fun fd ->
                  match listen_fd with
                  | Some (lfd, _) when fd == lfd -> (
                      match Unix.accept lfd with
                      | cfd, _ ->
                          conns := { fd = cfd; buf = Buffer.create 4096; is_stdin = false } :: !conns
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
                  | _ ->
                      if fd == Unix.stdin && !stdin_open then read_conn stdin_conn
                      else
                        match List.find_opt (fun c -> c.fd == fd) !conns with
                        | Some conn -> read_conn conn
                        | None -> ())
                ready);
          Core.maybe_step core;
          (match cfg.tick_s with
          | Some tick when Unix.gettimeofday () -. !last_tick >= tick ->
              Core.flush core;
              last_tick := Unix.gettimeofday ()
          | _ -> ());
          let now = Unix.gettimeofday () in
          if now -. !last_rss_sample >= 0.5 then begin
            last_rss_sample := now;
            peak_rss := max !peak_rss (rss_kb ())
          end
        end
      done;
      Core.shutdown ~drain:!drain_on_stop core;
      peak_rss := max !peak_rss (rss_kb ());
      summary ~peak_rss_kb:!peak_rss core)
