(** Online serving daemon over the replay engine.

    The paper's dynamic model (Section 4) is inherently online —
    requests arrive one at a time and the algorithm must serve and
    migrate without knowing the future. This module turns the
    repository's epoch replay engine into a long-running service:
    request and topology events arrive as lines of the
    {!Dmn_core.Serial.Trace} v1 grammar over a Unix-domain socket or a
    stdin pipe, are journaled, batched into epochs by count (or served
    early on a wall-clock tick), and run through the exact
    {!Dmn_engine.Engine.step} code path the offline replay uses — so a
    daemon fed a trace produces metrics byte-identical to [dmnet
    replay] over the same file.

    Layering: {!Core} is the sans-I/O heart — bounded ingest queue,
    shedding, epoch batcher, journal, checkpoints, metrics — driveable
    in-process by tests and benchmarks; {!run_daemon} wraps it in a
    [select] loop with socket/stdin ingest, a line-oriented control
    protocol, and signal-driven graceful shutdown.

    {2 Wire protocol}

    Data lines are v1 trace items ([r|w <node> <x>], [ew|eu <u> <v>
    <w>], [ed <u> <v>], [nd|nu <node>]); blank lines, [#] comments and
    (matching) trace headers are ignored, so [cat trace.v1 | dmnet
    serve --stdin] and repeated concatenations both work. Control
    lines — [metrics], [health], [stats], [sync], [shutdown] — answer
    with exactly one line on the same connection: [metrics] and
    [stats] reply with a JSON document, [health] with a space-separated
    [key=value] line, [sync] forces a journal fsync, [shutdown]
    initiates graceful shutdown. Anything else is counted as malformed
    (never silently dropped) and answered with [err: ...].

    {2 Overload}

    The ingest queue is bounded by [queue_cap] {e requests}: a request
    arriving while the queue is full is {e shed} — counted in
    [shed_total] and dropped before it reaches the journal or the
    engine. Topology events are never shed (they are state, not load).

    {2 Durability}

    Accepted items are appended to the journal (when configured)
    before they can reach the engine, and the journal is [fsync]ed
    before any checkpoint is written and again at shutdown — so a
    checkpoint never references an event the journal might lose, and
    kill-and-restart with [--resume] replays the journal tail through
    the same batcher, byte-identically.

    The journal is a segmented directory
    ({!Dmn_core.Serial.Trace.Journal}) and checkpoints live in a
    generation directory ({!Dmn_core.Ckpt_store}): after each
    checkpoint the segments it fully covers are pruned, so journal
    disk usage stays bounded over a soak; loading falls back past a
    corrupt newest generation, and a resumed server counts the
    fallbacks in [ckpt_fallbacks_total] and surfaces them by
    [health]. The [sync] control line replies
    [ok offset=N] with the durable journal offset (items on disk). *)

module En := Dmn_engine.Engine

type config = {
  engine : En.config;
  ckpt : En.checkpointing option;
  resume : Dmn_core.Ckpt_store.loaded option;
      (** the checkpoint to resume from, as the caller loaded it
          ({!Dmn_core.Ckpt_store.load_res}: the newest valid generation
          of a checkpoint directory). The server does not read the
          directory itself; it counts the loaded [fallbacks] in
          [ckpt_fallbacks_total] and leaves warning about them to the
          caller. Pair it with an [engine] config from
          {!Dmn_engine.Engine.resume_geometry}. Requires [journal]:
          the consumed prefix is fast-forwarded out of the journal
          chain and the unserved tail re-queued. *)
  journal : string option;
      (** ingest journal {e directory} (segmented v1 trace,
          {!Dmn_core.Serial.Trace.Journal}), appended, fsynced, and
          pruned as checkpoints cover its segments *)
  queue_cap : int;  (** max queued unserved requests before shedding (> 0) *)
  tick_s : float option;
      (** wall-clock flush: serve a partial epoch when this much time
          passed since the last one. Trades byte-identical batching
          for bounded latency — leave [None] when determinism matters. *)
  metrics_out : string option;  (** write the final engine metrics JSON here on shutdown *)
  max_events : int option;  (** stop after this many served requests (tests, benches) *)
  max_seconds : float option;  (** stop after this much wall-clock time *)
}

(** [engine = En.default_config], no checkpointing/journal/resume,
    [queue_cap = 16384], no tick, no limits. *)
val default_config : config

(** Resident set size of this process in kB ([/proc/self/status]
    VmRSS; 0 where unavailable). *)
val rss_kb : unit -> int

module Core : sig
  (** A live serving core. Not thread-safe: drive from one thread
      (parallelism lives inside the engine's pool fan-out). *)
  type t

  (** Builds the engine (resuming from [config.resume] if set —
      fast-forwarding the journal's consumed prefix and re-queueing
      its unserved tail), opens or continues the journal, and
      registers the server metrics.
      @raise Dmn_prelude.Err.Error as {!Dmn_engine.Engine.create} and
      {!Dmn_engine.Engine.fast_forward_from} do, and (kind
      [Validation]) when [resume] is set without [journal]. *)
  val create : ?pool:Dmn_prelude.Pool.t -> config -> Dmn_core.Instance.t -> Dmn_core.Placement.t -> t

  (** [push t item] offers one item: journaled and queued, or shed
      when it is a request and the queue is full. Requests are
      validated by the engine at serve time; use {!push_line} for
      untrusted input. *)
  val push : t -> Dmn_dynamic.Stream.item -> [ `Accepted | `Shed ]

  (** [push_line t line] parses one wire line
      ({!Dmn_core.Serial.Trace.item_of_line_res}) and pushes the item;
      [`Ignored] for blank/comment/header lines, [`Malformed] (with
      the structured error) for garbage — counted, never raised. *)
  val push_line :
    t -> string -> [ `Accepted | `Shed | `Ignored | `Malformed of Dmn_prelude.Err.t ]

  (** Serve as many full count-epochs as are queued (zero or more
      {!Dmn_engine.Engine.step} calls). The journal is fsynced before
      any step whose checkpoint is due
      ({!Dmn_engine.Engine.checkpoint_due}), and the segments that
      checkpoint covers are pruned after it. *)
  val maybe_step : t -> unit

  (** Serve everything queued as one (partial) epoch — the wall-clock
      tick path and the end-of-stream drain. A no-op on an empty
      queue. *)
  val flush : t -> unit

  val queue_depth : t -> int  (** unserved queued requests *)

  val accepted : t -> int
  val shed : t -> int
  val malformed : t -> int

  (** Engine events consumed, resumed prefix included. *)
  val served : t -> int

  val epochs : t -> int
  val uptime_s : t -> float

  (** Checkpoint-generation fallbacks taken by the load [config.resume]
      came from (corrupt newer generations skipped). *)
  val ckpt_fallbacks : t -> int

  val journal_bytes : t -> int  (** journal bytes on disk (0 without a journal) *)

  val journal_segments : t -> int  (** live journal segment count *)

  (** Durable journal offset: items fsynced to disk — what a crash
      right now is guaranteed not to lose. *)
  val durable_offset : t -> int

  (** Newest checkpoint generation on disk, [-1] when not
      checkpointing (or nothing written yet). *)
  val ckpt_generation : t -> int

  (** Count a malformed line (the daemon loop calls this on
      [`Malformed] so overload and garbage are both observable). *)
  val count_malformed : t -> unit

  (** One-line JSON document: [{"dmnet":"serve-metrics","version":1,
      "server":{...},"engine":{...},"ops":{...}}] — the server
      registry (ingest counters, queue depth, uptime, RSS), the
      engine's live workload snapshot (histogram included) and its
      operational counters. Round-trips through
      {!Dmn_prelude.Jsonx.parse}. *)
  val metrics_dump : t -> string

  (** One-line [ok key=value ...] health summary. *)
  val health : t -> string

  (** One-line JSON ingest/progress summary (a cheap [stats] probe —
      no histogram). *)
  val stats : t -> string

  (** Force a journal fsync now (no-op without a journal). *)
  val journal_sync : t -> unit

  (** Graceful shutdown: serve remaining full epochs ([drain = true]
      also flushes the partial tail — the end-of-stream case; the
      default [false] leaves the tail journaled for a resume), fsync
      and close the journal, write a final checkpoint and the final
      metrics file when configured. Idempotent. *)
  val shutdown : ?drain:bool -> t -> unit

  (** Abrupt stop for crash testing: no final epoch, checkpoint or
      metrics file — only the journal is closed. Models a crash
      between two steps, which loses the epochs served since the last
      checkpoint; a fresh core resuming from the same directories
      replays them from the journal and must reach the same bytes as
      an uninterrupted run. Idempotent with {!shutdown} (whichever
      runs first wins). *)
  val kill : t -> unit

  (** The engine result so far (call after {!shutdown} for finals). *)
  val result : t -> En.result

  val instance : t -> Dmn_core.Instance.t
end

type summary = {
  served_events : int;
  accepted_events : int;
  shed_events : int;
  malformed_lines : int;
  epochs_served : int;
  queued_unserved : int;  (** journaled but unserved at shutdown (await resume) *)
  elapsed_s : float;
  peak_rss_kb : int;
}

val summary : ?peak_rss_kb:int -> Core.t -> summary

(** [run_daemon ?pool config inst placement ~socket ~use_stdin] runs
    the serving loop until SIGTERM/SIGINT, a [shutdown] control
    command, a configured limit, or — in pure-stdin mode — end of
    input (which drains the partial tail so a piped trace reproduces
    the replay totals). Opens a Unix-domain listener at [socket] when
    given (replacing a stale socket file), reads data and control
    lines from any connection, and answers on the same connection;
    with [use_stdin] data also flows from stdin (control replies to
    stdout). At least one ingest source is required. Installs
    SIGTERM/SIGINT/SIGPIPE handlers for the duration and restores the
    previous ones on exit. Returns the final {!summary}.
    @raise Dmn_prelude.Err.Error on setup or I/O failure (the CLI maps
    kinds to sysexits codes). *)
val run_daemon :
  ?pool:Dmn_prelude.Pool.t ->
  config ->
  Dmn_core.Instance.t ->
  Dmn_core.Placement.t ->
  socket:string option ->
  use_stdin:bool ->
  summary
