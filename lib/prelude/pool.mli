(** Fixed-size domain pool for deterministic data parallelism.

    The library's algorithms are embarrassingly parallel per object (and
    per source node for metric closures): every task writes one private
    result slot, so a pool run returns results {e bit-identical} to the
    sequential [Array.init] order no matter how tasks are scheduled.

    Execution is {e batched}: an index range is split into contiguous
    chunks (about [4 x domains] by default) claimed off a single atomic
    cursor, so each domain grabs whole batches and dispatch overhead is
    paid per chunk, not per element. All per-element entry points
    ({!parallel_init}, {!parallel_map}, {!parallel_iter},
    {!supervised_init}) are expressed on top of {!parallel_chunks};
    fault-injection coins and supervision salts stay indexed per
    {e element}, so fault outcomes are independent of the chunking and
    the domain count.

    Built directly on [Domain]/[Mutex]/[Condition] (OCaml >= 5.0); one
    job runs at a time and the submitting domain participates in the
    work. Pools are driven from one domain at a time; a chunk body that
    calls back into a pool (any pool) runs its sub-tasks sequentially
    rather than deadlocking. *)

type t

(** [create ~domains] spawns [domains - 1] worker domains (the caller is
    the last one). @raise Invalid_argument if [domains < 1]. *)
val create : domains:int -> t

(** Number of domains (including the submitting one). *)
val size : t -> int

(** [shutdown t] joins the workers. The pool must be idle; further jobs
    on it run nothing. Idempotent. *)
val shutdown : t -> unit

(** [parallel_chunks t ?chunks n body] splits [0, n) into [?chunks]
    (default about [4 x size t], clamped to [1, n]) contiguous chunks
    and runs [body lo hi] once per chunk over the pool, each chunk
    claimed by exactly one domain off an atomic cursor. Bodies must
    write disjoint state. Empty ranges return immediately; singleton
    ranges and single-domain pools run [body 0 n] directly on the
    submitting domain with no pool round-trip. The first exception
    raised by a chunk abandons unclaimed chunks and is re-raised in the
    submitter once in-flight chunks drain.

    [parallel_chunks] rolls no fault coins itself — bodies that need
    the ["pool.task"] injection point roll it per element (as
    {!parallel_init} does), keeping fault outcomes independent of the
    chunk count.
    @raise Invalid_argument if [n < 0] or [chunks < 1]. *)
val parallel_chunks : t -> ?chunks:int -> int -> (int -> int -> unit) -> unit

(** [chunk_plan t ?chunks n] is the [(chunks, chunk_size)] split that
    {!parallel_chunks} would use for a range of [n] elements: [(0, 0)]
    for an empty range, [(1, n)] when the range would run sequentially
    on the submitting domain. *)
val chunk_plan : t -> ?chunks:int -> int -> int * int

(** [parallel_init t n f] is [Array.init n f] with the calls distributed
    over the pool in chunks. The first exception raised by a task is
    re-raised after in-flight chunks drain; remaining unclaimed tasks
    are skipped.

    Task execution carries the {!Fault} injection point ["pool.task"],
    salted with the task index: under fault injection a given seed
    fails the same tasks regardless of scheduling, chunking, or domain
    count. *)
val parallel_init : t -> int -> (int -> 'a) -> 'a array

(** [parallel_map t f a] is [Array.map f a] over the pool. Empty and
    singleton arrays short-circuit on the submitting domain. *)
val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_iter t n f] runs [f 0 .. f (n-1)] for side effects. Tasks
    must write disjoint state. *)
val parallel_iter : t -> int -> (int -> unit) -> unit

(** {2 Utilization counters}

    Cumulative per-pool dispatch counters, updated once per executed
    chunk: [chunks_claimed] counts chunk claims (including sequential
    short-circuits, which count as one chunk) and [tasks_run] counts
    elements covered by those chunks. Their ratio is the realized batch
    size — the observable evidence that dispatch is amortized. Chunks
    abandoned by a failure are not counted. *)

type stats = { chunks_claimed : int; tasks_run : int }

val stats : t -> stats
val reset_stats : t -> unit

(** [with_pool ~domains f] runs [f] with a fresh pool and always shuts
    it down. *)
val with_pool : domains:int -> (t -> 'a) -> 'a

(** {2 Supervised execution}

    A supervisor layer that never lets a task abort the job: each task
    runs under a per-attempt fault coin with bounded, immediate
    retries; crashes and injected faults are converted into structured
    {!Err.t} values carrying the task index instead of propagating.
    Nothing here reads the clock, so outcomes are a pure function of
    the fault seed. *)

(** A task that still failed after all attempts. [attempts] is the
    number of executions (>= 1); [error] keeps the last attempt's
    structured error ([Err.Internal] for crashes, the original kind
    for [Err.Error] — e.g. [Err.Fault] for injected faults). *)
type failure = { index : int; attempts : int; error : Err.t }

type supervision = {
  attempts : int;  (** max executions per task, >= 1 (default 3) *)
  point : string;
      (** {!Fault} injection point rolled once per attempt
          (default ["pool.task"]) *)
  salt : int -> int;  (** base fault salt per task index (default [Fun.id]) *)
}

(** [{attempts = 3; point = "pool.task"; salt = Fun.id}] *)
val default_supervision : supervision

(** [attempt_salt base a] is the fault-coin salt for attempt [a]
    (0-based) of a task whose base salt is [base]: attempt 0 draws the
    exact coin an unsupervised run would, retries draw fresh coins from
    a disjoint salt band. Exposed for tests. *)
val attempt_salt : int -> int -> int

(** [supervised_init t ?supervision n f] is {!parallel_init} under a
    supervisor: the result array holds [Ok (f i)] per task, or [Error
    failure] for tasks that failed every attempt. Also returns the
    total number of retries performed. Under fault injection, attempt 0
    of each task draws the same coin as {!parallel_init} would (same
    point, same salt), so a supervised run with [attempts = 1] fails
    exactly where an unsupervised one does — and with [attempts > 1]
    outcomes remain independent of scheduling and domain count.
    @raise Invalid_argument if [supervision.attempts < 1] or [n < 0]. *)
val supervised_init :
  t -> ?supervision:supervision -> int -> (int -> 'a) -> ('a, failure) result array * int

(** Pool size used by {!default}: the [DMNET_DOMAINS] environment
    variable if set to a positive integer, else
    [Domain.recommended_domain_count ()], else an explicit
    {!set_default_domains}. *)
val default_domains : unit -> int

(** [set_default_domains n] overrides {!default_domains} (e.g. from a
    CLI flag) and recreates the default pool at the new size on next
    use. @raise Invalid_argument if [n < 1]. *)
val set_default_domains : int -> unit

(** The lazily-created process-wide pool sized by {!default_domains};
    shut down automatically at exit. *)
val default : unit -> t
