module I = Dmn_core.Instance
module P = Dmn_core.Placement
module A = Dmn_core.Approx
module Serial = Dmn_core.Serial
module Ckpt = Dmn_core.Serial.Checkpoint
module Ckpt_store = Dmn_core.Ckpt_store
module Row = Dmn_core.Epoch_row
module Wgraph = Dmn_graph.Wgraph
module Sg = Dmn_dynamic.Strategy
module Sc = Dmn_dynamic.Serve_cache
module Stream = Dmn_dynamic.Stream
module Sim = Dmn_dynamic.Sim
module Pool = Dmn_prelude.Pool
module Metrics = Dmn_prelude.Metrics
module Stats = Dmn_prelude.Stats
module Err = Dmn_prelude.Err
open Dmn_paths

type policy = Static | Resolve | Cache

let policy_name = function Static -> "static" | Resolve -> "resolve" | Cache -> "cache"

let policy_of_string = function
  | "static" -> Some Static
  | "resolve" -> Some Resolve
  | "cache" -> Some Cache
  | _ -> None

type config = {
  policy : policy;
  epoch : int;
  storage_period : int option;
  attempts : int;
  serve_cache : bool;
  dirty_eps : float;
  solve_cache : int;
}

let default_config =
  {
    policy = Resolve;
    epoch = 1000;
    storage_period = None;
    attempts = 3;
    serve_cache = true;
    dirty_eps = 0.0;
    solve_cache = 0;
  }

(* Solve-cache keys carry the re-solve pipeline's fingerprint. *)
let solver_fp = Dmn_core.Solve_cache.solver_fingerprint A.default_config

type checkpointing = { dir : string; every : int; keep : int }

include Row.Record

type totals = epoch_stats

let total_cost = Row.total_cost

type result = {
  policy : policy;
  epoch_size : int;
  period : int;
  epochs : epoch_stats list;
  totals : totals;
  final : (string * Metrics.value) list;
  ops : (string * Metrics.value) list;
}

(* Deterministic kill point for crash-and-resume testing: after epoch N
   completes (and its checkpoint, if due, is on disk) the process exits
   with the injected-failure code. *)
let crash_after_epoch =
  lazy
    (match Sys.getenv_opt "DMNET_CRASH_AFTER_EPOCH" with
    | Some s -> int_of_string_opt (String.trim s)
    | None -> None)

let fp_event fp (e : Stream.event) =
  Ckpt.fingerprint_event fp
    { Serial.Trace.node = e.Stream.node; x = e.Stream.x; write = e.Stream.kind = Stream.Write }

(* The engine's whole mutable run state. One [t] is one replay — the
   one-shot [run]/[run_items] drivers and the serving daemon both build
   a [t] and feed it epochs through [step], so there is exactly one
   code path and metrics stay byte-identical between replay and live
   serving. *)
type t = {
  pool : Pool.t;
  config : config;
  (* the checkpoint cadence and the directory's store, which owns the
     epoch-row log *)
  ckpt : (checkpointing * Ckpt_store.t) option;
  inst : I.t;
  n : int;
  k : int;
  period : int;
  metric : Metric.t;
  churn : Churn.t option;
  caches : Sc.t array;
  cache_strategy : Sg.t option;
  (* the workload registry holds only the two histograms; every scalar
     metric is rendered from [epochs] and [sum] when read *)
  reg : Metrics.t;
  h_cost : Metrics.histogram;
  (* wall time, not workload: shown in the live snapshot but kept out of
     every deterministic artifact *)
  h_solve : Metrics.histogram;
  ops_reg : Metrics.t;
  ops_ckpts : Metrics.counter;
  ops_resumes : Metrics.counter;
  ops_serve_retries : Metrics.counter;
  (* epoch working state, reused across epochs *)
  mutable buffer : Stream.event array;
  mutable len : int;  (** requests buffered for the epoch in flight *)
  counts : int array;
  slot_of_x : int array;
  (* frequency-tabulation scratch, k x n, allocated once; each resolve
     boundary zeroes and refills only the rows of active objects, so
     inactive rows may hold stale counts — never read, because only
     active objects are solved *)
  fr_scratch : int array array;
  fw_scratch : int array array;
  (* incremental re-solve state: the frequency vector each object last
     solved against (valid only where [last_valid]), and the hash of
     the metric it solved on *)
  last_fr : int array array;
  last_fw : int array array;
  last_valid : bool array;
  last_mhash : int64 array;
  (* [Metric.hash64] of the live metric is O(n^2): memoized against the
     metric version, read through [live_mhash] *)
  mutable mhash_memo : int * int64;
  (* the clamped churned metric the re-solve places on, memoized
     against the live version: a fresh copy every epoch would rebuild
     its distance order every epoch *)
  mutable place_memo : int * Metric.t;
  solve_cache : Dmn_core.Solve_cache.t option;
  mutable seen : int;
  mutable fingerprint : int64;
  (* Topology items collected while ingesting wait here until the epoch
     boundary: an event takes effect at the start of the epoch in which
     it is consumed (the engine's time resolution is the epoch), so the
     queue is always drained before that epoch serves — at every
     checkpoint [topo_applied = topo_consumed]. *)
  pending_topo : Churn.event Queue.t;
  mutable topo_consumed : int;
  mutable topo_applied : int;
  mutable epochs : epoch_stats list;  (* newest first *)
  mutable sum : epoch_stats;  (* field-wise sum of [epochs] *)
  mutable next_index : int;
  (* a resumed engine must fast-forward its trace before stepping *)
  mutable pending_resume : Ckpt.t option;
}

let dummy_event = { Stream.node = 0; x = 0; kind = Stream.Read }

let current_copies t x =
  match t.cache_strategy with Some s -> s.Sg.copies ~x | None -> Sc.copies t.caches.(x)

let total_copies t =
  let acc = ref 0 in
  for x = 0 to t.k - 1 do
    acc :=
      !acc
      + (match t.cache_strategy with
        | Some s -> List.length (s.Sg.copies ~x)
        | None -> Sc.copy_count t.caches.(x))
  done;
  !acc

(* The live commit and resume both record rows here, so a resumed
   engine holds exactly the rows and sum of the uninterrupted one. *)
let record t (r : epoch_stats) =
  t.epochs <- r :: t.epochs;
  t.sum <- Row.add t.sum r

(* The hash that identifies the network the run now serves (the
   churned metric, or the pristine one without churn): the re-solve's
   dirty forcing and cache keys and the checkpoint's topology section
   all read it here. *)
let live_mhash t =
  let live = match t.churn with Some ch -> Churn.metric ch | None -> t.metric in
  let v = Metric.version live in
  let mv, h = t.mhash_memo in
  if mv = v then h
  else begin
    let h = Metric.hash64 live in
    t.mhash_memo <- (v, h);
    h
  end

let sparse_of_row row =
  let acc = ref [] in
  for v = Array.length row - 1 downto 0 do
    if row.(v) > 0 then acc := (v, row.(v)) :: !acc
  done;
  !acc

(* The rows no generation covers yet go to the store's log, then the
   generation naming the grown prefix is written. *)
let write_checkpoint t store =
  Metrics.incr t.ops_ckpts;
  let lo, base, nbuckets = Metrics.hist_params t.h_cost in
  let raw = Metrics.hist_buckets t.h_cost in
  let h_counts = ref [] in
  for i = nbuckets - 1 downto 0 do
    if raw.(i) > 0 then h_counts := (i, raw.(i)) :: !h_counts
  done;
  (* [t.epochs] is newest first: its head holds the unlogged rows *)
  let rec unlogged acc n rows =
    match rows with r :: older when n > 0 -> unlogged (r :: acc) (n - 1) older | _ -> acc
  in
  let log =
    Err.get_ok
      (Ckpt_store.append_res store (unlogged [] (t.next_index - Ckpt_store.logged store) t.epochs))
  in
  let ckpt : Ckpt.t =
    {
      policy = policy_name t.config.policy;
      epoch_size = t.config.epoch;
      period = t.period;
      dirty_eps = t.config.dirty_eps;
      next_epoch = t.next_index;
      events_consumed = t.seen;
      topo_consumed = t.topo_consumed;
      topo_applied = t.topo_applied;
      fingerprint = t.fingerprint;
      nodes = t.n;
      objects = t.k;
      placements = Array.init t.k (fun x -> Sc.copies t.caches.(x));
      resolve_state =
        Array.init t.k (fun x ->
            if not t.last_valid.(x) then Ckpt.no_obj_state
            else
              {
                Ckpt.o_valid = true;
                o_mhash = t.last_mhash.(x);
                o_fr = sparse_of_row t.last_fr.(x);
                o_fw = sparse_of_row t.last_fw.(x);
              });
      log;
      hist =
        {
          h_lo = lo;
          h_base = base;
          h_buckets = nbuckets;
          h_sum = Metrics.hist_sum t.h_cost;
          h_counts = !h_counts;
        };
      topo =
        (match t.churn with
        | Some ch when t.topo_applied > 0 ->
            {
              Ckpt.metric_version = Metric.version (Churn.metric ch);
              metric_hash = live_mhash t;
              down = Churn.down_nodes ch;
              edge_overrides = Churn.overrides ch;
            }
        | _ -> Ckpt.no_topo);
      checkpoints_written = Metrics.counter_value t.ops_ckpts;
      serve_retries = Metrics.counter_value t.ops_serve_retries;
    }
  in
  ignore (Err.get_ok (Ckpt_store.save_res store ckpt) : int)

let checkpoint_now t = match t.ckpt with None -> () | Some (_, store) -> write_checkpoint t store

let checkpoint_due t =
  match t.ckpt with Some (c, _) -> (t.next_index + 1) mod c.every = 0 | None -> false

(* A resumed run continues the checkpointed run's geometry, so the
   resume checks in [create] below hold by construction for a config
   derived here. *)
let resume_geometry config (l : Ckpt_store.loaded) =
  let c = l.ckpt in
  let policy =
    match policy_of_string c.policy with
    | Some p -> p
    | None -> Err.failf ~file:l.dir Err.Validation "unknown checkpoint policy %s" c.policy
  in
  let placement =
    try P.make (Array.copy c.placements)
    with Invalid_argument msg -> Err.fail ~file:l.dir Err.Validation msg
  in
  ( {
      config with
      policy;
      epoch = c.epoch_size;
      storage_period = Some c.period;
      dirty_eps = c.dirty_eps;
    },
    placement )

let create ?pool ?(config = default_config) ?ckpt ?resume inst placement =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  if config.epoch <= 0 then invalid_arg "Engine.run: epoch must be positive";
  if config.attempts < 1 then invalid_arg "Engine.run: attempts must be >= 1";
  if config.dirty_eps < 0.0 || Float.is_nan config.dirty_eps then
    invalid_arg "Engine.run: dirty_eps must be >= 0";
  if config.solve_cache < 0 then invalid_arg "Engine.run: solve_cache must be >= 0";
  (* Cached placements shortcut the supervised solve fan-out, so the
     sequence of fault coins a resumed run draws would depend on cache
     contents — which are not serialized. Refuse the combination rather
     than silently break the resume-identity contract. *)
  (match (config.solve_cache > 0, ckpt, resume) with
  | true, Some _, _ | true, _, Some _ ->
      Err.fail Err.Validation
        "checkpoint/resume is not supported with the solve cache (cache contents are not \
         serializable); disable --solve-cache or checkpointing"
  | _ -> ());
  (match ckpt with
  | Some c when c.every <= 0 -> invalid_arg "Engine.run: checkpoint interval must be positive"
  | Some c when c.keep < 1 -> invalid_arg "Engine.run: checkpoint keep must be >= 1"
  | _ -> ());
  let period =
    match config.storage_period with
    | Some p ->
        if p <= 0 then invalid_arg "Engine.run: storage_period must be positive";
        p
    | None -> Sim.default_period inst ~who:"Engine.run"
  in
  (match P.validate inst placement with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.run: initial placement: " ^ msg));
  (* The cache policy's per-event thresholds live in strategy closures
     and cannot be serialized, so it supports neither side of the
     checkpoint protocol. *)
  (match (config.policy, ckpt, resume) with
  | Cache, Some _, _ | Cache, _, Some _ ->
      Err.fail Err.Validation
        "checkpoint/resume is not supported for the cache policy (its per-event threshold \
         state is not serializable); use static or resolve"
  | _ -> ());
  let n = I.n inst and k = I.objects inst in
  let metric = I.metric inst in
  (* Topology churn state: a graph-backed instance gets a churn handle
     over a {e private copy} of its metric ([Churn.create] deep-copies),
     so [metric] itself stays pristine — resolve fallback distances and
     emergency-replica selection are measured against the network the
     placement was designed for. Until the first topology event the
     copy's distances are bit-identical to [metric], so churn-capable
     runs replay topology-free traces byte-identically to the old
     engine. Metric-only instances have no graph to repair, so any
     topology item is rejected at ingest. *)
  let churn = match I.graph inst with Some g -> Some (Churn.create g metric) | None -> None in
  let live_metric = match churn with Some ch -> Churn.metric ch | None -> metric in
  (* One versioned serve cache per object: nearest-copy tables and MST
     weights are memoized against the placement version, so the serving
     fan-out does O(1) reads per event instead of O(c) scans. With
     [serve_cache = false] the same structures recompute every query —
     the uncached baseline; costs are bit-identical either way. The
     caches read the churned metric: after a repair bumps
     {!Metric.version} the next query folds it into a placement-version
     bump, so no stale distance survives a topology event. *)
  let caches =
    Array.init k (fun x ->
        Sc.create ~cached:config.serve_cache live_metric ~x (P.copies placement ~x))
  in
  let cache_strategy =
    match config.policy with
    | Cache ->
        Some
          (Sg.threshold_caching ~initial:placement ~cached:config.serve_cache inst)
    | Static | Resolve -> None
  in
  let reg = Metrics.create () in
  let h_cost = Metrics.histogram reg "request_cost" in
  let h_solve = Metrics.histogram ~lo:1e-6 ~base:2.0 ~buckets:48 reg "solve_epoch_s" in
  (* Operational counters live in a registry of their own: they describe
     this process's life (how many checkpoints it wrote, whether it was
     resumed), not the replayed workload, so they must never leak into
     the metrics JSON — a resumed run's JSON is byte-identical to an
     uninterrupted one. *)
  let ops_reg = Metrics.create () in
  let ops_ckpts = Metrics.counter ops_reg "checkpoints_written" in
  let ops_resumes = Metrics.counter ops_reg "resumes" in
  let ops_serve_retries = Metrics.counter ops_reg "serve_retries" in
  let t =
    {
      pool;
      config;
      ckpt = None;
      inst;
      n;
      k;
      period;
      metric;
      churn;
      caches;
      cache_strategy;
      reg;
      h_cost;
      h_solve;
      ops_reg;
      ops_ckpts;
      ops_resumes;
      ops_serve_retries;
      buffer = Array.make config.epoch dummy_event;
      len = 0;
      counts = Array.make k 0;
      slot_of_x = Array.make k (-1);
      fr_scratch = Array.make_matrix k n 0;
      fw_scratch = Array.make_matrix k n 0;
      last_fr = Array.make_matrix k n 0;
      last_fw = Array.make_matrix k n 0;
      last_valid = Array.make k false;
      last_mhash = Array.make k 0L;
      mhash_memo = (-1, 0L);
      place_memo = (-1, metric);
      solve_cache =
        (if config.solve_cache > 0 then
           Some (Dmn_core.Solve_cache.create ~capacity:config.solve_cache)
         else None);
      seen = 0;
      fingerprint = Ckpt.fingerprint_init ~nodes:n ~objects:k;
      pending_topo = Queue.create ();
      topo_consumed = 0;
      topo_applied = 0;
      epochs = [];
      sum = Row.zero;
      next_index = 0;
      pending_resume = Option.map (fun (l : Ckpt_store.loaded) -> l.ckpt) resume;
    }
  in
  (* ----- resume: validate and restore state; the consumed trace
     prefix is fast-forwarded separately by {!fast_forward_from} ----- *)
  (match resume with
  | None -> ()
  | Some (l : Ckpt_store.loaded) ->
      let c = l.ckpt in
      if c.policy <> policy_name config.policy then
        Err.failf Err.Validation
          "resume: checkpoint was written by the %s policy but this run uses %s" c.policy
          (policy_name config.policy);
      if c.epoch_size <> config.epoch then
        Err.failf Err.Validation
          "resume: checkpoint epoch size %d does not match the configured %d" c.epoch_size
          config.epoch;
      if c.period <> period then
        Err.failf Err.Validation
          "resume: checkpoint storage period %d does not match the resolved %d" c.period period;
      if c.dirty_eps <> config.dirty_eps then
        Err.failf Err.Validation
          "resume: checkpoint dirty-eps %g does not match the configured %g — a different \
           threshold would re-solve a different object set than the run being continued"
          c.dirty_eps config.dirty_eps;
      if c.nodes <> n || c.objects <> k then
        Err.failf Err.Validation
          "resume: checkpoint shape (%d nodes, %d objects) does not match the instance (%d \
           nodes, %d objects)"
          c.nodes c.objects n k;
      let pl =
        try P.make (Array.copy c.placements)
        with Invalid_argument msg ->
          Err.fail Err.Validation ("resume: checkpoint placements: " ^ msg)
      in
      (match P.validate inst pl with
      | Ok () -> ()
      | Error msg ->
          Err.fail Err.Validation ("resume: checkpoint placements do not fit the instance: " ^ msg));
      for x = 0 to k - 1 do
        Sc.set_copies caches.(x) (P.copies pl ~x)
      done;
      if Array.length c.resolve_state <> k then
        Err.failf Err.Validation
          "resume: checkpoint resolve state covers %d objects but the instance has %d"
          (Array.length c.resolve_state) k;
      Array.iteri
        (fun x (o : Ckpt.obj_state) ->
          if o.o_valid then begin
            t.last_valid.(x) <- true;
            t.last_mhash.(x) <- o.o_mhash;
            List.iter (fun (v, cnt) -> t.last_fr.(x).(v) <- cnt) o.o_fr;
            List.iter (fun (v, cnt) -> t.last_fw.(x).(v) <- cnt) o.o_fw
          end)
        c.resolve_state;
      let lo, base, nbuckets = Metrics.hist_params h_cost in
      if c.hist.h_lo <> lo || c.hist.h_base <> base || c.hist.h_buckets <> nbuckets then
        Err.failf Err.Validation
          "resume: checkpoint histogram geometry (lo %g, base %g, %d buckets) does not match \
           this build (lo %g, base %g, %d buckets)"
          c.hist.h_lo c.hist.h_base c.hist.h_buckets lo base nbuckets;
      List.iter (record t) l.rows;
      let dense = Array.make nbuckets 0 in
      List.iter (fun (i, cnt) -> dense.(i) <- cnt) c.hist.h_counts;
      Metrics.hist_restore h_cost ~counts:dense ~sum:c.hist.h_sum;
      Metrics.add ops_ckpts c.checkpoints_written;
      Metrics.add ops_serve_retries c.serve_retries;
      Metrics.incr ops_resumes;
      t.next_index <- c.next_epoch);
  (* the directory is touched only once the resume passed the checks
     above: a fresh run starts a new log, a resumed one continues the
     resumed prefix *)
  let store (c : checkpointing) = Err.get_ok (Ckpt_store.create_res ?resume c.dir ~keep:c.keep) in
  { t with ckpt = Option.map (fun c -> (c, store c)) ckpt }

let fast_forward t items =
  match t.pending_resume with
  | None -> items
  | Some (c : Ckpt.t) ->
      (* fast-forward: skip the consumed prefix (requests and topology
         items both) while recomputing the trace-identity hash, then
         refuse a trace that differs. Consumed topology items are
         collected in order so the churn state can be replayed and
         checked against the checkpoint's topology section. *)
      let rec forward seq nreq ntopo acc fp =
        if nreq = c.events_consumed && ntopo = c.topo_consumed then (seq, List.rev acc, fp)
        else
          match Seq.uncons seq with
          | None ->
              Err.failf Err.Validation
                "resume: the trace ends after %d request and %d topology items but the \
                 checkpoint consumed %d and %d — wrong or truncated trace?"
                nreq ntopo c.events_consumed c.topo_consumed
          | Some (Stream.Req e, rest) ->
              if nreq = c.events_consumed then
                Err.failf Err.Validation
                  "resume: item mix diverges from the checkpoint — a request event arrives \
                   after all %d checkpointed requests but before topology item %d of %d"
                  c.events_consumed (ntopo + 1) c.topo_consumed;
              forward rest (nreq + 1) ntopo acc (fp_event fp e)
          | Some (Stream.Topo tp, rest) ->
              if ntopo = c.topo_consumed then
                Err.failf Err.Validation
                  "resume: item mix diverges from the checkpoint — a topology item arrives \
                   after all %d checkpointed topology items but before request %d of %d"
                  c.topo_consumed (nreq + 1) c.events_consumed;
              forward rest nreq (ntopo + 1) (tp :: acc) (Ckpt.fingerprint_topo fp tp)
      in
      let rest, topo_prefix, fp = forward items 0 0 [] t.fingerprint in
      if fp <> c.fingerprint then
        Err.failf Err.Validation
          "resume: trace fingerprint %016Lx does not match the checkpoint's %016Lx — the \
           first %d events differ from the run that wrote it"
          fp c.fingerprint c.events_consumed;
      t.fingerprint <- fp;
      t.seen <- c.events_consumed;
      (* replay the consumed topology events and prove the rebuilt
         network matches the checkpoint's recorded state exactly —
         version counter, distance-matrix hash, down set, overrides *)
      (if topo_prefix <> [] then
         match t.churn with
         | None ->
             Err.fail Err.Validation
               "resume: the checkpoint consumed topology events but this instance has no \
                graph to replay them against (metric-only instance)"
         | Some ch ->
             List.iter (Churn.apply ch) topo_prefix;
             let cm = Churn.metric ch in
             if Metric.version cm <> c.topo.Ckpt.metric_version
                || Metric.hash64 cm <> c.topo.Ckpt.metric_hash
             then
               Err.failf Err.Validation
                 "resume: replayed topology state (metric version %d, hash %016Lx) does not \
                  match the checkpoint's (version %d, hash %016Lx)"
                 (Metric.version cm) (Metric.hash64 cm) c.topo.Ckpt.metric_version
                 c.topo.Ckpt.metric_hash;
             if Churn.down_nodes ch <> c.topo.Ckpt.down then
               Err.fail Err.Validation
                 "resume: replayed down-node set does not match the checkpoint's";
             if Churn.overrides ch <> c.topo.Ckpt.edge_overrides then
               Err.fail Err.Validation
                 "resume: replayed edge overrides do not match the checkpoint's");
      t.topo_consumed <- c.topo_consumed;
      t.topo_applied <- c.topo_applied;
      t.pending_resume <- None;
      rest

(* Resume against a journal whose oldest segments have been pruned: the
   surviving chain begins at absolute item [base] (requests and
   topology items combined), so the fingerprint of the full consumed
   prefix cannot be recomputed. The checkpoint vouches for the pruned
   part — pruning only ever removes segments a durable checkpoint
   covers — so the chain's already-consumed tail is skipped
   positionally and the churn state is rebuilt by synthesizing events
   that reproduce the checkpoint's recorded overrides and down set
   against the pristine graph. Repairs are exact, so a matching
   distance-matrix hash proves the rebuilt network is the one the
   original run was serving. [base = 0] is exactly {!fast_forward}. *)
let fast_forward_from t ~base items =
  if base < 0 then invalid_arg "Engine.fast_forward_from: negative base";
  if base = 0 then fast_forward t items
  else
    match t.pending_resume with
    | None ->
        Err.failf Err.Validation
          "resume: the journal begins at item %d (older segments pruned) but there is no \
           checkpoint covering the pruned prefix"
          base
    | Some (c : Ckpt.t) ->
        let covered = c.events_consumed + c.topo_consumed in
        (* skip the chain's consumed tail; [reach] is where the chain
           ends if that is before [covered] *)
        let rec skip seq reach =
          if reach >= covered then (seq, reach)
          else
            match Seq.uncons seq with
            | None -> (Seq.empty, reach)
            | Some (_, rest) -> skip rest (reach + 1)
        in
        let rest, reach = skip items base in
        Err.get_ok (Ckpt_store.covers_res ~covered ~base ~reach ());
        t.fingerprint <- c.fingerprint;
        t.seen <- c.events_consumed;
        (match t.churn with
        | Some ch when c.topo <> Ckpt.no_topo ->
            let pristine =
              match I.graph t.inst with Some g -> g | None -> assert false (* churn implies graph *)
            in
            (* Edge events first, while every node is still alive, so
               each synthesized event passes [Churn.apply]'s liveness
               and presence validation; then fail the down set. *)
            List.iter
              (fun ((u, v), ov) ->
                match ov with
                | Some w ->
                    if Wgraph.has_edge pristine u v then
                      Churn.apply ch (Churn.Edge_weight { u; v; w })
                    else Churn.apply ch (Churn.Edge_up { u; v; w })
                | None ->
                    if Wgraph.has_edge pristine u v then Churn.apply ch (Churn.Edge_down { u; v })
                    else begin
                      (* an edge added then removed during the pruned
                         prefix: reproduce its Removed override *)
                      Churn.apply ch (Churn.Edge_up { u; v; w = 1.0 });
                      Churn.apply ch (Churn.Edge_down { u; v })
                    end)
              c.topo.Ckpt.edge_overrides;
            List.iter (fun z -> Churn.apply ch (Churn.Node_down z)) c.topo.Ckpt.down;
            let cm = Churn.metric ch in
            if Metric.hash64 cm <> c.topo.Ckpt.metric_hash then
              Err.failf Err.Validation
                "resume: rebuilt topology state (metric hash %016Lx) does not match the \
                 checkpoint's (%016Lx)"
                (Metric.hash64 cm) c.topo.Ckpt.metric_hash;
            if Churn.down_nodes ch <> c.topo.Ckpt.down then
              Err.fail Err.Validation "resume: rebuilt down-node set does not match the checkpoint's";
            if Churn.overrides ch <> c.topo.Ckpt.edge_overrides then
              Err.fail Err.Validation "resume: rebuilt edge overrides do not match the checkpoint's"
        | None when c.topo <> Ckpt.no_topo ->
            Err.fail Err.Validation
              "resume: the checkpoint records topology state but this instance has no graph to \
               rebuild it on (metric-only instance)"
        | _ -> ());
        t.topo_consumed <- c.topo_consumed;
        t.topo_applied <- c.topo_applied;
        t.pending_resume <- None;
        rest

let ensure_capacity t =
  if t.len = Array.length t.buffer then begin
    let bigger = Array.make (2 * Array.length t.buffer) dummy_event in
    Array.blit t.buffer 0 bigger 0 t.len;
    t.buffer <- bigger
  end

(* Ingest one item into the epoch in flight: a topology item queues for
   the next boundary, a request is validated, fingerprinted and
   buffered. Shared verbatim between the one-shot replay reader and the
   daemon's batcher, so both mark [seen] and the fingerprint in exactly
   the same order. *)
let ingest t = function
  | Stream.Topo tp ->
      (match (t.config.policy, t.churn) with
      | Cache, _ ->
          Err.failf Err.Validation
            "Engine.run: topology event (%s) under the cache policy: its per-event threshold \
             state cannot track a changing metric; use static or resolve"
            (Churn.event_to_string tp)
      | _, None ->
          Err.failf Err.Validation
            "Engine.run: topology event (%s) on a metric-only instance: there is no graph to \
             repair, so topology churn needs a graph-backed instance"
            (Churn.event_to_string tp)
      | _, Some _ -> ());
      t.fingerprint <- Ckpt.fingerprint_topo t.fingerprint tp;
      t.topo_consumed <- t.topo_consumed + 1;
      Queue.add tp t.pending_topo
  | Stream.Req ({ Stream.node; x; _ } as e) ->
      if node < 0 || node >= t.n then
        invalid_arg
          (Printf.sprintf "Engine.run: event %d: node %d out of range [0, %d)" t.seen node t.n);
      if x < 0 || x >= t.k then
        invalid_arg
          (Printf.sprintf "Engine.run: event %d: object %d out of range [0, %d)" t.seen x t.k);
      t.seen <- t.seen + 1;
      t.fingerprint <- fp_event t.fingerprint e;
      ensure_capacity t;
      t.buffer.(t.len) <- e;
      t.len <- t.len + 1

(* Drain the pending topology queue at the epoch boundary (after
   ingest, before serving): each event repairs the churned metric in
   place. Then scan for objects whose {e entire} copy set is now on
   dead nodes — they would be unreachable from everywhere — and
   emergency-re-replicate each onto the live node nearest its old
   copy set (by the pristine metric: the distances the data actually
   travels from wherever the copies physically were). The transfer is
   charged as migration. Replication runs under the same supervisor
   as serving, at its own fault point, so injected faults are retried
   and outcomes survive resume. Returns
   [(applied, emergencies, migration_charge)]. *)
let apply_pending t index =
  if Queue.is_empty t.pending_topo then (0, 0, 0.0)
  else
    match t.churn with
    | None -> Err.fail Err.Internal "Engine.run: pending topology events without churn state"
    | Some ch ->
        let applied = ref 0 in
        while not (Queue.is_empty t.pending_topo) do
          Churn.apply ch (Queue.pop t.pending_topo);
          incr applied;
          t.topo_applied <- t.topo_applied + 1
        done;
        let needy = ref [] in
        for x = t.k - 1 downto 0 do
          let cps = Sc.copies_array t.caches.(x) in
          if not (Array.exists (Churn.alive ch) cps) then needy := x :: !needy
        done;
        let needy = Array.of_list !needy in
        let nn = Array.length needy in
        if nn = 0 then (!applied, 0, 0.0)
        else begin
          let supervision =
            {
              Pool.attempts = t.config.attempts;
              point = "engine.replicate";
              salt = (fun s -> (index * 1_000_003) + needy.(s));
            }
          in
          let outcomes, _retries =
            Pool.supervised_init t.pool ~supervision nn (fun s ->
                let x = needy.(s) in
                let old = Sc.copies_array t.caches.(x) in
                let best = ref (-1) and bd = ref infinity in
                for v = 0 to t.n - 1 do
                  if Churn.alive ch v then begin
                    let d =
                      Array.fold_left
                        (fun acc o -> Float.min acc (Metric.d t.metric v o))
                        infinity old
                    in
                    if d < !bd then begin
                      best := v;
                      bd := d
                    end
                  end
                done;
                if !best < 0 then
                  Err.failf Err.Validation
                    "epoch %d: object %d lost every copy and no node is alive to host an \
                     emergency replica"
                    index x;
                (!best, !bd))
          in
          let charge = ref 0.0 in
          Array.iteri
            (fun s outcome ->
              match outcome with
              | Error (f : Pool.failure) ->
                  Err.failf f.error.Err.kind
                    "epoch %d: emergency re-replication of object %d failed after %d \
                     attempt%s: %s"
                    index needy.(s) f.attempts
                    (if f.attempts = 1 then "" else "s")
                    f.error.Err.msg
              | Ok (v, d) ->
                  Sc.set_copies t.caches.(needy.(s)) [ v ];
                  (* the placement changed outside the solver: treat the
                     object like a newborn so the next resolve boundary
                     is forced to re-solve it whatever its drift score *)
                  t.last_valid.(needy.(s)) <- false;
                  charge := !charge +. d)
            outcomes;
          (!applied, nn, !charge)
        end

(* Outcome of the dirty classification for one active object of a
   resolve boundary. *)
type obj_plan =
  | Plan_skip  (* clean: carry the previous placement without solving *)
  | Plan_hit of int list  (* solve-cache hit: apply the cached copy set *)
  | Plan_solve of int  (* re-solve: index into the pending solve list *)

(* One closed epoch between [step_begin] and [step_commit].
   [step_begin] does everything but the re-solve (topology, serving,
   rent, frequency tabulation, dirty classification, cache lookups),
   [solve_pending] runs the supervised fan-out and [step_commit]
   applies the solutions in object order. *)
type pending = {
  p_row : epoch_stats;
      (* the epoch's row, less what only the commit knows: solve
         outcomes, re-solve migration, evictions and the copy count *)
  p_active : int array;
  p_plan : obj_plan array;  (* per active slot; [||] for non-resolve *)
  p_solve_list : int array;  (* object ids to re-solve, ascending *)
  p_solve_keys : string option array;  (* cache key per solve-list slot *)
  p_einst : I.t option;  (* built only when the solve list is non-empty *)
  p_place_metric : Metric.t;
  p_churned : bool;
  p_mhash : int64;
  mutable p_solved : (int list, Pool.failure) Stdlib.result array;
  mutable p_solve_retries : int;
  mutable p_solve_s : float;
  mutable p_solved_done : bool;
}

(* Close the epoch in flight: apply pending topology, shard the
   buffered requests by object over the pool, merge sequentially,
   charge rent, tabulate frequencies and classify each active object
   as clean (carry), cache hit (apply) or dirty (re-solve). A batch of
   topology items alone closes an epoch of zero requests whose row
   carries the network change (and any emergency replication it
   forced). The supervised re-solve itself is deferred to
   {!solve_pending}/{!step_commit}. *)
let step_begin t items =
  List.iter (ingest t) items;
  if t.pending_resume <> None then
    Err.fail Err.Validation
      "Engine.step: this engine was created with ~resume; call fast_forward_from on the \
       trace before stepping";
  let index = t.next_index in
  let m = t.len in
  let topo, emergency, emg_migration = apply_pending t index in
  let base =
    {
      p_row = { Row.zero with index; events = m; topo; emergency; migration = emg_migration };
      p_active = [||];
      p_plan = [||];
      p_solve_list = [||];
      p_solve_keys = [||];
      p_einst = None;
      p_place_metric = t.metric;
      p_churned = false;
      p_mhash = 0L;
      p_solved = [||];
      p_solve_retries = 0;
      p_solve_s = 0.0;
      p_solved_done = false;
    }
  in
  if m = 0 then base
  else begin
    let buffer = t.buffer and counts = t.counts and slot_of_x = t.slot_of_x in
    let k = t.k in
    (* shard the epoch's events by object id *)
    Array.fill counts 0 k 0;
    for i = 0 to m - 1 do
      counts.(buffer.(i).Stream.x) <- counts.(buffer.(i).Stream.x) + 1
    done;
    let active = ref [] in
    for x = k - 1 downto 0 do
      if counts.(x) > 0 then active := x :: !active
    done;
    let active = Array.of_list !active in
    let na = Array.length active in
    Array.iteri (fun i x -> slot_of_x.(x) <- i) active;
    let obj_events = Array.map (fun x -> Array.make counts.(x) dummy_event) active in
    let fill_pos = Array.make na 0 in
    for i = 0 to m - 1 do
      let s = slot_of_x.(buffer.(i).Stream.x) in
      obj_events.(s).(fill_pos.(s)) <- buffer.(i);
      fill_pos.(s) <- fill_pos.(s) + 1
    done;
    (* parallel serving under supervision: one task per active object,
       each writing its private cost array. Attempt 0 draws the same
       "pool.task" fault coin an unsupervised run would, so outcomes
       stay independent of the domain count; injected faults are
       retried up to [attempts] times before aborting the run (there
       is no sound fallback for unserved requests). *)
    let serve_supervision =
      { Pool.default_supervision with attempts = t.config.attempts }
    in
    let serve_outcomes, serve_retries =
      Pool.supervised_init t.pool ~supervision:serve_supervision na (fun s ->
          let x = active.(s) in
          let evs = obj_events.(s) in
          match t.cache_strategy with
          | Some strat ->
              Array.map (fun e -> strat.Sg.serve ~x ~node:e.Stream.node e.Stream.kind) evs
          | None ->
              let tb = t.caches.(x) in
              (* drop sentinels, classified in the sequential merge: a
                 request from a dead node costs -1.0 (the requester is
                 gone); a request whose nearest copy is unreachable
                 costs infinity (the requester is partitioned away
                 from every copy) *)
              (match t.churn with
              | Some ch when Churn.churned ch ->
                  Array.map
                    (fun e ->
                      if not (Churn.alive ch e.Stream.node) then -1.0
                      else Sc.serve_cost tb ~node:e.Stream.node e.Stream.kind)
                    evs
              | _ ->
                  Array.map (fun e -> Sc.serve_cost tb ~node:e.Stream.node e.Stream.kind) evs))
    in
    Metrics.add t.ops_serve_retries serve_retries;
    let costs_per_obj =
      Array.mapi
        (fun s outcome ->
          match outcome with
          | Ok a -> a
          | Error (f : Pool.failure) ->
              Err.failf f.error.Err.kind
                "epoch %d: serving object %d failed after %d attempt%s: %s" index active.(s)
                f.attempts
                (if f.attempts = 1 then "" else "s")
                f.error.Err.msg)
        serve_outcomes
    in
    (* sequential merge in object order: served costs feed the sums, the
       histogram and the percentile sample, in a scheduling-independent
       order; dropped requests (dead requester -1.0, partitioned
       requester infinity) are counted and excluded from every cost
       aggregate. Reads/writes count all consumed requests either way —
       demand does not vanish because the network ate it. *)
    let epoch_costs = Array.make m 0.0 in
    let pos = ref 0 in
    let serving = ref 0.0 and reads = ref 0 and dropped = ref 0 in
    for s = 0 to na - 1 do
      let evs = obj_events.(s) and cs = costs_per_obj.(s) in
      for i = 0 to Array.length cs - 1 do
        let c = cs.(i) in
        if evs.(i).Stream.kind = Stream.Read then incr reads;
        if c < 0.0 || not (Float.is_finite c) then incr dropped
        else begin
          serving := !serving +. c;
          epoch_costs.(!pos) <- c;
          incr pos;
          Metrics.observe t.h_cost c
        end
      done
    done;
    (* rent on the copy sets held after serving, pro-rated by the
       epoch's share of the storage period *)
    let frac = float_of_int m /. float_of_int t.period in
    let storage = ref 0.0 in
    for x = 0 to k - 1 do
      List.iter (fun c -> storage := !storage +. (I.cs t.inst c *. frac)) (current_copies t x)
    done;
    (* percentiles over served requests only; an epoch whose every
       request was dropped has no cost sample at all. One in-place sort
       serves all three: costs are non-negative sums started from +0.0,
       so the sorted values match [Stats.percentile]'s bit for bit *)
    let served = if !pos = m then epoch_costs else Array.sub epoch_costs 0 !pos in
    Stats.sort_in_place served;
    let pct p = if !pos = 0 then 0.0 else Stats.percentile_sorted served p in
    let p50 = pct 50.0 and p95 = pct 95.0 and p99 = pct 99.0 in
    (* epoch re-optimization, phase 1: tabulate the observed
       frequencies and classify every active object. An object is
       dirty — re-solved on this epoch's demand — when the threshold
       is zero (full re-solve, the byte-compatible default), when it
       has no valid solve history (birth, or an emergency
       re-replication rewrote its placement outside the solver), when
       the network changed under it (metric hash), or when the
       normalized L1 drift of its frequency vector since the last
       solve exceeds [dirty_eps]. Clean objects carry their placement;
       their reference vector is left alone so drift keeps
       accumulating across skipped epochs. The classification reads
       only the trace and prior solves, so the dirty set is identical
       at any domain count. *)
    let plan = ref [||]
    and dirty = ref 0
    and skipped = ref 0
    and hits = ref 0
    and misses = ref 0
    and solve_list = ref [||]
    and solve_keys = ref [||]
    and einst = ref None
    and place_metric_out = ref t.metric
    and churned_out = ref false
    and mh_out = ref 0L in
    (match t.config.policy with
    | Static | Cache -> ()
    | Resolve ->
        (* Under churn the re-solve sees the network as it now is: the
           churned metric (with unreachable pairs clamped to a finite
           penalty — 4x the largest finite distance — because the
           solver's cost sums must not meet infinity), storage
           forbidden on dead nodes via infinite cs, and dead
           requesters' demand excluded. Without churn every input
           below reduces to exactly the pristine path. *)
        let churned = match t.churn with Some ch -> Churn.churned ch | None -> false in
        let is_dead v = match t.churn with Some ch -> not (Churn.alive ch v) | None -> false in
        let fr = t.fr_scratch and fw = t.fw_scratch in
        (* persistent scratch: zero and refill only the active rows —
           stale rows of inactive objects are never read because only
           active objects are scored or solved *)
        for s = 0 to na - 1 do
          Array.fill fr.(active.(s)) 0 t.n 0;
          Array.fill fw.(active.(s)) 0 t.n 0
        done;
        for i = 0 to m - 1 do
          let { Stream.node; x; kind } = buffer.(i) in
          if not (churned && is_dead node) then
            match kind with
            | Stream.Read -> fr.(x).(node) <- fr.(x).(node) + 1
            | Stream.Write -> fw.(x).(node) <- fw.(x).(node) + 1
        done;
        let place_metric =
          match t.churn with
          | Some ch when Churn.churned ch ->
              let cm = Churn.metric ch in
              let v = Metric.version cm in
              let mv, pm = t.place_memo in
              if mv = v then pm
              else begin
                let pm = Metric.clamp_infinite cm ~limit:((4.0 *. Metric.max_finite cm) +. 1.0) in
                t.place_memo <- (v, pm);
                pm
              end
          | _ -> t.metric
        in
        (* the un-clamped live metric identifies the network for dirty
           forcing and cache keys; resume paths validate its hash, so
           hash (not the version counter) is the durable identity *)
        let mh = live_mhash t in
        let eps = t.config.dirty_eps in
        let pl = Array.make na Plan_skip in
        let sl = ref [] and sk = ref [] and nsolve = ref 0 in
        for s = 0 to na - 1 do
          let x = active.(s) in
          let is_dirty =
            eps <= 0.0
            || (not t.last_valid.(x))
            || t.last_mhash.(x) <> mh
            ||
            let num = ref 0 and cur = ref 0 and last = ref 0 in
            let frx = fr.(x) and fwx = fw.(x) in
            let lfr = t.last_fr.(x) and lfw = t.last_fw.(x) in
            for v = 0 to t.n - 1 do
              num := !num + abs (frx.(v) - lfr.(v)) + abs (fwx.(v) - lfw.(v));
              cur := !cur + frx.(v) + fwx.(v);
              last := !last + lfr.(v) + lfw.(v)
            done;
            float_of_int !num /. float_of_int (max 1 (!cur + !last)) > eps
          in
          if not is_dirty then incr skipped
          else begin
            incr dirty;
            match t.solve_cache with
            | None ->
                pl.(s) <- Plan_solve !nsolve;
                sl := x :: !sl;
                sk := None :: !sk;
                incr nsolve
            | Some cache -> (
                let key =
                  Dmn_core.Solve_cache.key ~mhash:mh ~solver:solver_fp ~epoch_events:m
                    ~period:t.period ~fr:fr.(x) ~fw:fw.(x)
                in
                match Dmn_core.Solve_cache.find cache key with
                | Some cps ->
                    incr hits;
                    pl.(s) <- Plan_hit cps
                | None ->
                    incr misses;
                    pl.(s) <- Plan_solve !nsolve;
                    sl := x :: !sl;
                    sk := Some key :: !sk;
                    incr nsolve)
          end
        done;
        let sl = Array.of_list (List.rev !sl) in
        let skeys = Array.of_list (List.rev !sk) in
        (* a boundary with nothing to solve skips the epoch-instance
           build entirely *)
        if Array.length sl > 0 then begin
          let scaled_cs =
            Array.init t.n (fun v ->
                if churned && is_dead v then infinity else I.cs t.inst v *. frac)
          in
          einst := Some (I.of_metric place_metric ~cs:scaled_cs ~fr ~fw)
        end;
        plan := pl;
        solve_list := sl;
        solve_keys := skeys;
        place_metric_out := place_metric;
        churned_out := churned;
        mh_out := mh);
    (* the buffer's epoch is fully extracted: free it for the next
       epoch's ingest *)
    t.len <- 0;
    {
      base with
      p_row =
        {
          base.p_row with
          reads = !reads;
          writes = m - !reads;
          dropped = !dropped;
          serving = !serving;
          storage = !storage;
          solve_skipped = !skipped;
          dirty = !dirty;
          cache_hits = !hits;
          cache_misses = !misses;
          p50;
          p95;
          p99;
        };
      p_active = active;
      p_plan = !plan;
      p_solve_list = !solve_list;
      p_solve_keys = !solve_keys;
      p_einst = !einst;
      p_place_metric = !place_metric_out;
      p_churned = !churned_out;
      p_mhash = !mh_out;
    }
  end

(* Epoch re-optimization, phase 2: the supervised solve fan-out over
   the dirty misses. Re-solves run at the "engine.resolve" fault point
   salted by (epoch, object), so outcomes are independent of both
   scheduling and the dirty filtering that selected them, and survive
   resume. Idempotent — [step_commit] calls it again harmlessly. *)
let solve_pending t p =
  if not p.p_solved_done then begin
    let nl = Array.length p.p_solve_list in
    (if nl > 0 then
       match p.p_einst with
       | None -> Err.fail Err.Internal "Engine.solve_pending: missing epoch instance"
       | Some einst ->
           let solve_supervision =
             {
               Pool.attempts = t.config.attempts;
               point = "engine.resolve";
               salt = (fun s -> (p.p_row.index * 1_000_003) + p.p_solve_list.(s));
             }
           in
           let t0 = Unix.gettimeofday () in
           let solved, retries =
             Pool.supervised_init t.pool ~supervision:solve_supervision nl (fun s ->
                 A.place_object einst ~x:p.p_solve_list.(s))
           in
           p.p_solve_s <- Unix.gettimeofday () -. t0;
           p.p_solved <- solved;
           p.p_solve_retries <- retries);
    p.p_solved_done <- true
  end

(* Epoch re-optimization, phase 3: apply solutions in object order —
   clean objects carry, cache hits and fresh solves install their copy
   sets (refusing dead nodes), failures fall back to the previous
   placement — then record the epoch and checkpoint if due. *)
let step_commit t p =
  solve_pending t p;
  let row = p.p_row in
  (* an empty batch is no epoch; requests or applied topology make one *)
  if row.events > 0 || row.topo > 0 then begin
    let active = p.p_active in
    let na = Array.length active in
    let migration = ref 0.0 and resolves = ref 0 and solve_fallbacks = ref 0 in
    let evictions0 =
      match t.solve_cache with
      | Some c -> (Dmn_core.Solve_cache.stats c).evictions
      | None -> 0
    in
    let is_dead v = match t.churn with Some ch -> not (Churn.alive ch v) | None -> false in
    (* install one solution: filter dead nodes (defense in depth — the
       infinite storage cost should already keep the solver off them,
       and cache keys change with the metric hash), charge migration
       from the nearest old copy, update the object's solve history,
       and memoize a fresh solve *)
    let apply_solution x ~key cps =
      let cps = if p.p_churned then List.filter (fun c -> not (is_dead c)) cps else cps in
      match cps with
      | [] -> incr solve_fallbacks
      | cps ->
          incr resolves;
          let tb = t.caches.(x) in
          let old = Sc.copies_array tb in
          List.iter
            (fun c ->
              if not (Sc.mem tb c) then
                let d =
                  Array.fold_left
                    (fun acc o -> Float.min acc (Metric.d p.p_place_metric c o))
                    infinity old
                in
                migration := !migration +. d)
            cps;
          Sc.set_copies tb cps;
          Array.blit t.fr_scratch.(x) 0 t.last_fr.(x) 0 t.n;
          Array.blit t.fw_scratch.(x) 0 t.last_fw.(x) 0 t.n;
          t.last_valid.(x) <- true;
          t.last_mhash.(x) <- p.p_mhash;
          (match (t.solve_cache, key) with
          | Some cache, Some k -> Dmn_core.Solve_cache.add cache k cps
          | _ -> ())
    in
    if Array.length p.p_plan > 0 then
      for s = 0 to na - 1 do
        let x = active.(s) in
        match p.p_plan.(s) with
        | Plan_skip -> ()
        | Plan_hit cps -> apply_solution x ~key:None cps
        | Plan_solve j -> (
            match p.p_solved.(j) with
            | Error _ ->
                (* graceful degradation: keep the previous epoch's
                   placement for this object *)
                incr solve_fallbacks
            | Ok cps -> apply_solution x ~key:p.p_solve_keys.(j) cps)
      done;
    let cache_evictions =
      match t.solve_cache with
      | Some c -> (Dmn_core.Solve_cache.stats c).evictions - evictions0
      | None -> 0
    in
    (match t.config.policy with
    | Resolve -> Metrics.observe t.h_solve p.p_solve_s
    | Static | Cache -> ());
    record t
      {
        row with
        migration = !migration +. row.migration;
        resolves = !resolves;
        solve_retries = p.p_solve_retries;
        solve_fallbacks = !solve_fallbacks;
        cache_evictions;
        copies = total_copies t;
      };
    let due = checkpoint_due t in
    t.next_index <- row.index + 1;
    if due then checkpoint_now t;
    match Lazy.force crash_after_epoch with
    | Some after when after = row.index ->
        Printf.eprintf "dmnet: injected crash after epoch %d (DMNET_CRASH_AFTER_EPOCH)\n%!"
          row.index;
        Stdlib.exit 70
    | _ -> ()
  end

let step t items =
  let p = step_begin t items in
  solve_pending t p;
  step_commit t p

let epochs_done t = t.next_index
let events_consumed t = t.seen
let items_consumed t = t.seen + t.topo_consumed
let last_row t = match t.epochs with r :: _ -> r | [] -> Row.zero
let live_snapshot t = Row.snapshot ~sum:t.sum (last_row t) @ Metrics.snapshot t.reg
let live_ops t = Metrics.snapshot t.ops_reg

let finish t : result =
  {
    policy = t.config.policy;
    epoch_size = t.config.epoch;
    period = t.period;
    epochs = List.rev t.epochs;
    totals = { t.sum with copies = total_copies t };
    final = live_snapshot t;
    ops = Metrics.snapshot t.ops_reg;
  }

let run_items ?pool ?config ?ckpt ?resume ?(base = 0) inst placement items =
  let eng = create ?pool ?config ?ckpt ?resume inst placement in
  let items = fast_forward_from eng ~base items in
  let epoch = eng.config.epoch in
  (* Pull one epoch's worth of items — [epoch] requests plus any
     interleaved topology items — forcing the sequence no further than
     the old single-pass reader did. *)
  let rec pull seq m acc =
    if m = epoch then (List.rev acc, m, seq)
    else
      match Seq.uncons seq with
      | None -> (List.rev acc, m, Seq.empty)
      | Some ((Stream.Topo _ as it), rest) -> pull rest m (it :: acc)
      | Some ((Stream.Req _ as it), rest) -> pull rest (m + 1) (it :: acc)
  in
  let rec go seq =
    let chunk, m, rest = pull seq 0 [] in
    if chunk <> [] then begin
      step eng chunk;
      if m = epoch then go rest
    end
  in
  go items;
  finish eng

let run ?pool ?config ?ckpt ?resume inst placement events =
  run_items ?pool ?config ?ckpt ?resume inst placement (Stream.items_of_events events)

let of_trace_event { Serial.Trace.node; x; write } =
  { Stream.node; x; kind = (if write then Stream.Write else Stream.Read) }

let of_trace_item = function
  | Serial.Trace.Req e -> Stream.Req (of_trace_event e)
  | Serial.Trace.Topo t -> Stream.Topo t

let check_trace_header ~path header inst =
  if header.Serial.Trace.nodes <> I.n inst || header.Serial.Trace.objects <> I.objects inst then
    Err.failf ~file:path Err.Validation
      "trace header (%d nodes, %d objects) does not match the instance (%d nodes, %d objects)"
      header.Serial.Trace.nodes header.Serial.Trace.objects (I.n inst) (I.objects inst)

let run_trace ?pool ?config ?ckpt ?resume ?tolerate_truncation inst placement path =
  if Sys.file_exists path && Sys.is_directory path then begin
    (* a segmented journal directory: replay the surviving chain; its
       base can be > 0 when covered segments were pruned, in which case
       [resume] must carry a checkpoint covering the pruned prefix *)
    let chain = Serial.Trace.Journal.read_chain ?tolerate_truncation path in
    check_trace_header ~path chain.Serial.Trace.Journal.chain_header inst;
    run_items ?pool ?config ?ckpt ?resume ~base:chain.Serial.Trace.Journal.base inst placement
      (Seq.map of_trace_item (List.to_seq chain.Serial.Trace.Journal.chain_items))
  end
  else
    Serial.Trace.with_items ?tolerate_truncation path (fun header items ->
        check_trace_header ~path header inst;
        run_items ?pool ?config ?ckpt ?resume inst placement (Seq.map of_trace_item items))

let metrics_json inst r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"dmnet\":\"replay-metrics\",\"version\":4";
  Buffer.add_string buf (Printf.sprintf ",\"policy\":%S" (policy_name r.policy));
  Buffer.add_string buf (Printf.sprintf ",\"epoch_size\":%d" r.epoch_size);
  Buffer.add_string buf (Printf.sprintf ",\"storage_period\":%d" r.period);
  Buffer.add_string buf (Printf.sprintf ",\"nodes\":%d" (I.n inst));
  Buffer.add_string buf (Printf.sprintf ",\"objects\":%d" (I.objects inst));
  Buffer.add_string buf ",\"epochs\":[";
  let sum = ref Row.zero in
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      sum := Row.add !sum row;
      Buffer.add_string buf (Metrics.snapshot_to_json (Row.snapshot ~sum:!sum row)))
    r.epochs;
  Buffer.add_string buf "],\"totals\":{";
  Row.add_totals_json buf r.totals;
  Buffer.add_char buf '}';
  (match List.assoc_opt "request_cost" r.final with
  | Some (Metrics.Hist _ as h) ->
      Buffer.add_string buf ",\"request_cost\":";
      Buffer.add_string buf (Metrics.value_to_json h)
  | _ -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let write_metrics path inst r = Serial.write_file path (metrics_json inst r ^ "\n")
