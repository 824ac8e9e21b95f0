(** Streaming replay engine: serves a request trace against a live
    placement, incrementally, in parallel, and crash-safely.

    The paper's motivating applications (Section 1 — WWW content
    distribution, virtual shared memory, distributed file systems) are
    request-serving systems; this engine turns the repository's static
    constant-factor pipeline into an online serving loop:

    - {b Sharded serving.} Requests are consumed from a [Seq.t] in
      epochs of [epoch] events (the trace is never materialized:
      memory is O(epoch + n·k)). Within an epoch, per-object work is
      fanned out over a {!Dmn_prelude.Pool}; objects are independent in
      the paper's cost model, so sharding by object id is {e exact},
      and shard results are merged in object order — the engine's
      costs, states and metrics are bit-identical at every domain
      count.
    - {b Epoch re-optimization} ([Resolve] policy). At each epoch
      boundary the engine re-tabulates the epoch's observed
      frequencies, scales storage fees by the epoch's share of the
      storage period, re-solves each active object with the paper's
      3-phase algorithm ({!Dmn_core.Approx.place_object} in its default
      configuration) on the observed instance, and charges each added
      copy the object transfer distance from the nearest previous copy.
      Objects with no traffic in the epoch keep their copy sets.
    - {b Supervision.} Both the serving fan-out and the re-solve
      fan-out run under {!Dmn_prelude.Pool.supervised_init}: task
      crashes and injected faults are retried at once, up to
      [attempts] times (attempt 0 draws the exact fault coin an
      unsupervised run would, so outcomes stay independent of the
      domain count). A re-solve that still fails {e degrades
      gracefully}: the object keeps its previous placement and the
      epoch records a [solve_fallbacks] tick instead of aborting.
      Serving failures have no sound fallback and abort with a
      structured error after the retries.
    - {b Checkpoint/resume.} With [?ckpt] the engine persists a
      {!Dmn_core.Serial.Checkpoint} (atomic write, per-section CRC)
      after every [every]-th epoch, handing the directory's store
      ({!Dmn_core.Ckpt_store}) only the epoch rows no generation covers
      yet: each row enters the store's append-only log once, and every
      generation names the log prefix it covers, so a generation's size
      does not grow with the run. [?resume] validates a loaded
      checkpoint (its generation and the rows of its prefix) against
      the configuration, the instance, and a trace-identity fingerprint
      recomputed while fast-forwarding the event stream, then continues
      where the checkpoint left off, continuing the log from the
      resumed prefix. A
      resumed run's {!metrics_json} is {e byte-identical} to an
      uninterrupted run's at any domain count. Supported for the
      [Static] and [Resolve] policies ([Cache] keeps per-event state
      inside strategy closures and refuses both sides with a
      structured error).
    - {b Topology churn and degraded serving.} Traces may interleave
      topology items (edge reweight/removal/addition, node
      failure/recovery — {!Dmn_paths.Churn.event}) with requests. On a
      graph-backed instance the engine keeps a {!Dmn_paths.Churn}
      handle over a private copy of the metric and repairs it
      incrementally; topology items collected while reading an epoch
      take effect {e at the start of that epoch} (the engine's time
      resolution), before any of its requests are served. Requests from
      dead nodes, and requests partitioned away from every copy, are
      {e dropped and counted} rather than served; an object whose whole
      copy set dies is emergency-re-replicated onto the nearest live
      node under supervision (charged as migration). The [Resolve]
      policy re-solves against the churned network — unreachable
      distances clamped to a finite penalty, storage forbidden on dead
      nodes — while [Cache] refuses topology items (its threshold state
      cannot track a changing metric), as do metric-only instances
      (nothing to repair). Checkpoints record the topology delta
      (overrides, down set, metric version and hash), and resume
      replays and verifies it, so kill-and-resume stays byte-identical
      under churn.
    - {b Telemetry.} Each epoch records one accounting row
      ({!Dmn_core.Epoch_row}); the per-epoch snapshots (cumulative
      counters and per-epoch gauges), the totals and the live snapshot
      are rendered from the rows when read, next to a log-scale
      histogram of per-request serving cost. {!metrics_json} renders
      the timeline as machine-readable JSON and {!write_metrics} stores
      it atomically via {!Dmn_core.Serial.write_file}. Operational
      counters that describe the process rather than the workload
      ([checkpoints_written], [resumes], [serve_retries]) live in the
      separate {!result.ops} snapshot and never enter the JSON.

    Accounting conventions: serving costs follow
    {!Dmn_dynamic.Strategy.serve_cost}; storage rent is charged per
    epoch on the copy sets held at the end of the epoch's serving pass
    (before any re-solve), scaled by [epoch events / storage_period];
    migration covers [Resolve] copy transfers (the [Cache] policy's
    replication transfers are embedded in its serving costs, as in
    {!Dmn_dynamic.Strategy.threshold_caching}). *)

type policy =
  | Static  (** never touch the initial placement *)
  | Resolve  (** re-solve from observed frequencies every epoch *)
  | Cache
      (** per-event threshold caching seeded with the placement, at
          {!Dmn_dynamic.Strategy.threshold_caching}'s default thresholds *)

val policy_name : policy -> string
val policy_of_string : string -> policy option

type config = {
  policy : policy;
  epoch : int;  (** events per epoch (> 0) *)
  storage_period : int option;
      (** events per full storage-rent charge; [None] = the instance's
          request volume, matching {!Dmn_dynamic.Sim.run} *)
  attempts : int;  (** max executions per supervised task (>= 1) *)
  serve_cache : bool;
      (** memoize nearest-copy tables and MST weights per placement
          version ({!Dmn_dynamic.Serve_cache}); [false] recomputes
          every query — the benchmark baseline. Either way the costs,
          states and metrics are bit-identical. *)
  dirty_eps : float;
      (** incremental re-solve threshold for the [Resolve] policy
          (>= 0). At each boundary an active object's change score is
          the normalized L1 distance between the epoch's frequency
          vector and the one it last solved against —
          [Σ|Δfr| + |Δfw| / max 1 (cur + last)], in [0, 1] — and only
          objects with score > [dirty_eps] are re-solved; the rest
          carry their placement ([solve_skipped]). Objects are forced
          dirty on their first active epoch, after an emergency
          re-replication, and when the network's
          {!Dmn_paths.Metric.hash64} changed since their last solve.
          [0.0] (the default) re-solves every active object — {e
          byte-identical} to the pre-incremental engine. The dirty set
          is a pure function of the trace: identical at any domain
          count and across kill-and-resume. *)
  solve_cache : int;
      (** capacity of the per-object solve cache ([Resolve] policy): a
          bounded LRU ({!Dmn_core.Solve_cache}) memoizing placements
          keyed by (metric hash, solver fingerprint, epoch geometry,
          log-quantized frequency vector), so recurring demand regimes
          skip the solver. [0] (the default) disables it.
          Deterministic at any domain count, but {e not} compatible
          with checkpoint/resume (cache contents are not serialized):
          the combination is refused with a [Validation] error. *)
}

(** [Resolve], epoch 1000, 3 supervised attempts, full re-solve
    ([dirty_eps = 0]), solve cache off. *)
val default_config : config

(** Periodic checkpointing: write the engine state into the generation
    directory [dir] ({!Dmn_core.Ckpt_store}: each generation an atomic
    file naming a prefix of the directory's epoch-row log, the newest
    [keep] retained) after every [every]-th epoch (1-based: [every = 1]
    checkpoints after each epoch). A run without [?resume] starts a new
    history in [dir], deleting generations an earlier run left there;
    a resumed run continues the resumed generation's log prefix, in
    [dir] itself or, when [dir] is another directory, in a copy. *)
type checkpointing = { dir : string; every : int; keep : int }

(** {2 Accounting}

    One row per epoch, declared once in {!Dmn_core.Epoch_row}: costs
    are per epoch (not cumulative) and [copies] is the total copy count
    over all objects at the end of the epoch (after any re-solve). The
    per-epoch metrics snapshots, the totals, the live snapshot and the
    checkpoint directory's row log are all rendered from these rows
    (each row enters the log once, when the first checkpoint covering
    it is written). *)

include module type of struct
  include Dmn_core.Epoch_row.Record
end

(** The run totals: the field-wise sum of the epoch rows, except
    [copies], the copy count at the end of the run (rendered as
    [final_copies]). The sums of [index], [dirty] and the percentiles
    are not part of the metrics document. *)
type totals = epoch_stats

(** [total_cost t] is serving + storage + migration. *)
val total_cost : totals -> float

type result = {
  policy : policy;
  epoch_size : int;
  period : int;  (** the resolved storage period *)
  epochs : epoch_stats list;  (** in order; empty for an empty trace *)
  totals : totals;
  final : (string * Dmn_prelude.Metrics.value) list;
      (** {!live_snapshot} at the end of the run: the last epoch's
          counters and gauges, then the request-cost and solve-latency
          histograms *)
  ops : (string * Dmn_prelude.Metrics.value) list;
      (** operational counters — [checkpoints_written], [resumes],
          [serve_retries] — kept out of {!metrics_json} so a resumed
          run's JSON stays byte-identical to an uninterrupted one *)
}

(** [run ?pool ?config ?ckpt ?resume inst placement events] replays
    [events] (a {e one-shot} sequence, forced exactly once) against
    [inst] starting from [placement]. Deterministic: equal inputs give
    equal results — including every float — at any [pool] size ([pool]
    defaults to {!Dmn_prelude.Pool.default}), whether or not the run
    was resumed.

    With [?ckpt], a checkpoint is written after every [every]-th epoch
    (counted from epoch 0 of the whole replay, so a resumed run
    checkpoints at the same epochs as an uninterrupted one). With
    [?resume], [placement] supplies the instance-shape contract but the
    engine's state — placements, cumulative metrics, epoch index — is
    restored from the loaded checkpoint and its epoch rows, and
    [events] must be the {e same full
    trace} the original run consumed: the consumed prefix is
    fast-forwarded and verified by fingerprint.

    The environment variable [DMNET_CRASH_AFTER_EPOCH=N] installs a
    deterministic kill point: the process exits with code 70
    immediately after epoch [N] completes (and its checkpoint, when
    due, is durably on disk) — the hook CI uses to rehearse
    kill-and-resume.

    @raise Invalid_argument on a non-positive [epoch], [storage_period],
    [attempts] or checkpoint interval, on a placement that does not fit
    the instance, on an event whose node or object is out of range, or
    (matching {!Dmn_dynamic.Sim.run}) when [storage_period] is omitted
    on an instance with zero request volume.
    @raise Dmn_prelude.Err.Error (kind [Validation]) when
    checkpoint/resume is requested under the [Cache] policy, or when a
    resume checkpoint disagrees with the configuration, the instance,
    or the trace fingerprint; (kind [Fault]/[Internal]) when serving
    still fails after all supervised attempts. *)
val run :
  ?pool:Dmn_prelude.Pool.t ->
  ?config:config ->
  ?ckpt:checkpointing ->
  ?resume:Dmn_core.Ckpt_store.loaded ->
  Dmn_core.Instance.t ->
  Dmn_core.Placement.t ->
  Dmn_dynamic.Stream.event Seq.t ->
  result

(** [run_items] is {!run} over a mixed stream of requests and topology
    items ({!Dmn_dynamic.Stream.item}); [run events] is
    [run_items (Stream.items_of_events events)]. Topology items do not
    count toward the epoch size — an epoch is [epoch] {e requests}.
    [?base] (default 0) is the absolute item index [items] starts at,
    for replaying a partially-pruned journal chain with [?resume] —
    see {!fast_forward_from}.
    @raise Dmn_prelude.Err.Error (kind [Validation]) additionally on a
    topology item under the [Cache] policy or on a metric-only
    instance, and on resume when the replayed topology state disagrees
    with the checkpoint's recorded delta. *)
val run_items :
  ?pool:Dmn_prelude.Pool.t ->
  ?config:config ->
  ?ckpt:checkpointing ->
  ?resume:Dmn_core.Ckpt_store.loaded ->
  ?base:int ->
  Dmn_core.Instance.t ->
  Dmn_core.Placement.t ->
  Dmn_dynamic.Stream.item Seq.t ->
  result

(** {2 Incremental epoch API}

    The one-shot {!run}/{!run_items} drivers above are thin wrappers
    over this interface: build an engine with {!create}, feed it one
    epoch at a time with {!step}, and assemble the {!result} with
    {!finish}. The serving daemon ({!Dmn_server}) drives the same
    functions on live traffic, so replay and online serving share one
    code path — equal event batches produce byte-identical metrics
    whichever driver consumed them. *)

(** A live engine: one [t] is one (possibly resumed) replay in
    progress. Not thread-safe — drive it from a single thread; the
    parallelism lives inside {!step}'s pool fan-out. *)
type t

(** [resume_geometry config l] is the configuration and initial
    placement of a run resuming from [l]: [config] with the policy,
    epoch size, storage period and dirty-eps the checkpoint recorded
    (the geometry {!create}'s resume checks compare), and the
    checkpoint's copy sets as the placement ({!create} restores them
    either way; the placement carries the instance-shape contract).
    Every other field of [config] is kept.
    @raise Dmn_prelude.Err.Error (kind [Validation], naming [l.dir])
    on an unknown policy name or malformed copy sets. *)
val resume_geometry :
  config -> Dmn_core.Ckpt_store.loaded -> config * Dmn_core.Placement.t

(** [create ?pool ?config ?ckpt ?resume inst placement] validates the
    configuration and the placement and builds an idle engine. With
    [?resume] the checkpoint is validated against the configuration and
    the instance and the engine state (placements, cumulative metrics,
    epoch index) is restored — but the trace prefix is {e not} yet
    fast-forwarded: call {!fast_forward_from} before the first {!step}.
    With [?ckpt] the checkpoint directory is then opened for the run
    ({!Dmn_core.Ckpt_store.create_res}: a new history, or the resumed
    log prefix). Raises exactly as {!run} does for configuration
    errors, and with the store's error when the directory cannot be
    opened. *)
val create :
  ?pool:Dmn_prelude.Pool.t ->
  ?config:config ->
  ?ckpt:checkpointing ->
  ?resume:Dmn_core.Ckpt_store.loaded ->
  Dmn_core.Instance.t ->
  Dmn_core.Placement.t ->
  t

(** [fast_forward_from t ~base items] skips the checkpoint's consumed
    prefix of [items], which begin at absolute item index [base]
    (requests and topology items combined; a trace file, or a journal
    chain no prune has touched, begins at 0, a pruned chain at
    {!Dmn_core.Serial.Trace.Journal.read_chain}'s [base]), and returns
    the remainder. Must be called (once) before {!step} on a resumed
    engine; on an engine created without [?resume] it returns [items]
    unchanged when [base = 0].
    - At [base = 0] the prefix is skipped while the trace fingerprint
      is recomputed and verified, and consumed topology events are
      replayed and checked against the checkpoint's recorded network
      state.
    - At [base > 0] the full-prefix fingerprint cannot be recomputed.
      The chain must satisfy the coverage rule
      ({!Dmn_core.Ckpt_store.covers_res}): pruning only removes what a
      durable checkpoint vouches for. Its consumed tail is skipped
      positionally, and the network state is rebuilt from the
      checkpoint's topology section and verified against its
      distance-matrix hash.
    @raise Dmn_prelude.Err.Error (kind [Validation]) when the trace
    disagrees with the checkpoint, when the chain breaks the coverage
    rule, when [base > 0] without [?resume], or when the rebuilt
    network disagrees with the checkpoint. *)
val fast_forward_from :
  t -> base:int -> Dmn_dynamic.Stream.item Seq.t -> Dmn_dynamic.Stream.item Seq.t

(** [step t items] consumes one epoch: topology items queue for the
    boundary, requests are validated, fingerprinted and buffered, then
    the whole batch is served as a single epoch — pending topology
    applied first, serving sharded over the pool, rent charged,
    [Resolve] re-solving, metrics recorded, a checkpoint written when
    due. The batch {e is} the epoch: callers control the epoch size by
    how many requests they pass (the one-shot wrapper passes exactly
    [config.epoch]; a wall-clock tick may pass fewer). A batch with
    topology items but no requests is an epoch of zero requests whose
    row carries the network change ([topo], [emergency] and the
    emergency [migration]); an empty batch is a no-op.
    Raises as {!run_items} does for malformed events.
    @raise Dmn_prelude.Err.Error (kind [Validation]) when the engine
    was created with [?resume] but {!fast_forward_from} has not run. *)
val step : t -> Dmn_dynamic.Stream.item list -> unit

(** {2 Stepping in phases}

    [step t items] is
    [let p = step_begin t items in solve_pending t p; step_commit t p].
    The phases are exported so a per-layer tracer (perfbench's
    mirror of the daemon) can time them apart; every other caller
    uses {!step}. *)

(** A closed epoch whose re-solve has not yet been applied. *)
type pending

(** [step_begin t items] ingests [items] and closes the epoch: pending
    topology applied, serving sharded over the pool and merged, rent
    charged, frequencies tabulated, each active object classified as
    clean / cache hit / dirty (see [config.dirty_eps]) — everything
    except the supervised solve fan-out and its application. The engine
    must not be stepped again until the returned epoch is committed.
    Raises as {!step}. *)
val step_begin : t -> Dmn_dynamic.Stream.item list -> pending

(** [solve_pending t p] runs the supervised re-solve of [p]'s dirty
    misses on the pool. Idempotent; a no-op when [p] has nothing to
    solve or was already solved. *)
val solve_pending : t -> pending -> unit

(** [step_commit t p] applies the epoch's solutions in object order —
    carries, cache hits, fresh solves, fallbacks — then records the
    epoch's metrics, writes a checkpoint when {!checkpoint_due}, and
    honors the [DMNET_CRASH_AFTER_EPOCH] kill point. Calls
    {!solve_pending} itself if the caller has not. *)
val step_commit : t -> pending -> unit

(** [checkpoint_now t] writes a checkpoint at the current epoch
    boundary (a no-op without [?ckpt]). Sound only between {!step}
    calls — which is the only time a caller can run. The daemon uses
    it for the final checkpoint on graceful shutdown. *)
val checkpoint_now : t -> unit

(** [checkpoint_due t] is whether the next epoch a {!step} records
    writes a checkpoint: after every [every]-th epoch of the run
    ([false] without [?ckpt]). The daemon asks before each step, to
    fsync its journal ahead of that checkpoint and to prune the
    segments it covers afterwards. *)
val checkpoint_due : t -> bool

(** Epochs served so far (equivalently: the index the next non-empty
    {!step} will record). After resume this starts at the checkpoint's
    [next_epoch]. *)
val epochs_done : t -> int

(** Requests consumed so far, including a resumed prefix. *)
val events_consumed : t -> int

(** Total items consumed so far — requests plus topology events — i.e.
    the absolute journal offset the engine has processed. At every
    checkpoint this is exactly what the checkpoint covers, so it is the
    [~covered] bound for {!Dmn_core.Serial.Trace.Journal.prune}. *)
val items_consumed : t -> int

(** Current workload metrics snapshot — the daemon's live [/metrics]
    source: the cumulative counters and the last epoch's gauges, exactly
    the last entry of {!metrics_json}'s timeline (all zero before the
    first epoch), then the request-cost and solve-latency histograms. *)
val live_snapshot : t -> (string * Dmn_prelude.Metrics.value) list

(** Current operational counters ([checkpoints_written], [resumes],
    [serve_retries]) — see {!result.ops}. *)
val live_ops : t -> (string * Dmn_prelude.Metrics.value) list

(** [finish t] assembles the {!result} from the state accumulated so
    far. Idempotent; reads the engine without disturbing it. *)
val finish : t -> result

(** [of_trace_item it] converts a stored trace item (request or
    topology event) to a stream item. *)
val of_trace_item : Dmn_core.Serial.Trace.item -> Dmn_dynamic.Stream.item

(** [run_trace ?pool ?config ?ckpt ?resume ?tolerate_truncation inst
    placement path] streams the trace at [path] — requests and
    topology events both — through {!run_items}, first checking the
    trace header against the instance shape. When [path] is a
    {e directory} it is read as a segmented journal chain
    ({!Dmn_core.Serial.Trace.Journal.read_chain}, which tolerates a
    torn final line by default) and its base is forwarded, so an
    offline replay of a daemon's partially-pruned journal works with
    the matching [?resume] checkpoint. For a plain file,
    [tolerate_truncation] is forwarded to
    {!Dmn_core.Serial.Trace.with_items}.
    @raise Dmn_prelude.Err.Error on a malformed trace, a header that
    does not match the instance, a checkpoint/resume violation, or I/O
    failure. *)
val run_trace :
  ?pool:Dmn_prelude.Pool.t ->
  ?config:config ->
  ?ckpt:checkpointing ->
  ?resume:Dmn_core.Ckpt_store.loaded ->
  ?tolerate_truncation:bool ->
  Dmn_core.Instance.t ->
  Dmn_core.Placement.t ->
  string ->
  result

(** [metrics_json inst r] renders the run as one JSON document: header
    (policy, epoch size, period, instance shape), the per-epoch
    timeline, totals, and the final request-cost histogram. Field order
    and float rendering are fixed, so equal results give byte-identical
    JSON — across domain counts and across kill-and-resume. *)
val metrics_json : Dmn_core.Instance.t -> result -> string

(** [write_metrics path inst r] writes {!metrics_json} atomically.
    @raise Dmn_prelude.Err.Error on I/O failure. *)
val write_metrics : string -> Dmn_core.Instance.t -> result -> unit
