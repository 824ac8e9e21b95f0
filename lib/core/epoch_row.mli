(** The replay engine's per-epoch accounting schema.

    In the paper's cost model an epoch's cost splits into serving
    (reads to the nearest copy, writes multicast to every copy),
    storage and migration; the engine reports that split per epoch
    next to its solver and churn counters. This module is the only
    declaration of that row: the record below and one table, {!fields},
    that gives each field its kind, its per-epoch gauge name, its
    cumulative-counter name (if any) and its key in the metrics
    document's [totals] object (if any). Every output walks the table:

    - the per-epoch metrics snapshot ({!snapshot}): the counters, each
      the running sum of its field, then one gauge per field;
    - the [totals] object ({!add_totals_json});
    - the checkpoint directory's epoch-row log (rendered and parsed by
      {!Ckpt_store}, one line per epoch, one token per field in table
      order).

    Adding a counter is one record field plus one table entry. *)

(** The record, in its own module so that {!Dmn_engine.Engine} can
    re-export it, labels included, with [include]. *)
module Record : sig
  type epoch_stats = {
    index : int;  (** 0-based epoch number *)
    events : int;
    reads : int;
    writes : int;  (** reads/writes count all consumed requests, dropped included *)
    serving : float;  (** served requests only *)
    storage : float;
    migration : float;  (** re-solve transfers plus emergency replication *)
    resolves : int;  (** objects successfully re-solved (cache hits included) *)
    solve_retries : int;  (** supervised re-solve retries *)
    solve_fallbacks : int;
        (** objects that kept their previous placement after every
            attempt failed *)
    solve_skipped : int;
        (** active objects carried without re-solving (change score
            within [dirty_eps]); [resolves + solve_fallbacks +
            solve_skipped] is the epoch's active-object count under
            the [Resolve] policy *)
    dirty : int;  (** objects classified dirty ([= resolves + solve_fallbacks]) *)
    cache_hits : int;  (** dirty objects satisfied from the solve cache *)
    cache_misses : int;
    cache_evictions : int;
    dropped : int;
        (** requests not served: the requester was dead, or partitioned
            away from every copy of the object *)
    emergency : int;  (** objects emergency-re-replicated at this boundary *)
    topo : int;  (** topology events applied at the start of this epoch *)
    copies : int;  (** copies over all objects at the end of the epoch *)
    p50 : float;  (** percentiles over served requests; 0 if none was served *)
    p95 : float;
    p99 : float;
  }
end

include module type of struct
  include Record
end

type t = epoch_stats

(** Every field 0. *)
val zero : t

(** A field's kind, with its accessors: [get] reads the field, [set r v]
    is [r] with the field replaced by [v]. *)
type kind = Int of (t -> int) * (t -> int -> t) | Float of (t -> float) * (t -> float -> t)

type field = {
  kind : kind;
  gauge : string;  (** per-epoch gauge name *)
  counter : string option;  (** cumulative counter name; [Int] fields only *)
  total : (int * string) option;
      (** position and key in the [totals] object; the document
          predates the table, so its order is pinned here *)
}

(** The schema, in the row's field order — which is also the order of
    the gauges, of the counters and of a checkpoint row's tokens. *)
val fields : field list

(** [add a b] is the field-wise sum — the running totals of a run. *)
val add : t -> t -> t

(** [total_cost r] is [r.serving +. r.storage +. r.migration]. *)
val total_cost : t -> float

(** [snapshot ~sum r] is the metrics snapshot after epoch [r] when
    [sum] is the running sum up to and including it: the cumulative
    counters read from [sum], then every gauge read from [r]. *)
val snapshot : sum:t -> t -> (string * Dmn_prelude.Metrics.value) list

(** [add_totals_json buf t] appends the [totals] object's members —
    ["events":...,"reads":...,...] without braces — for the field-wise
    sum [t], followed by ["total_cost"]. *)
val add_totals_json : Buffer.t -> t -> unit
