(** Stream simulator: folds a strategy over an event list, charging
    serving costs per event and storage rent once every
    [storage_period] events (so a stationary stream whose length equals
    the instance's request volume reproduces the static objective for
    the static strategy, storage included). *)

type result = {
  name : string;
  serving : float;  (** summed per-event costs *)
  storage : float;  (** summed storage rent *)
  total : float;
  final_copies : int;  (** copy count over all objects at the end *)
}

(** [default_period inst ~who] is the default storage period: the
    instance's total request volume, so a stream of exactly one table's
    worth of events pays exactly one round of rent. Shared with
    {!Dmn_engine.Engine}.
    @raise Invalid_argument (naming [who]) on a zero-volume instance,
    which has no meaningful default. *)
val default_period : Dmn_core.Instance.t -> who:string -> int

(** [run ?storage_period inst strategy events] — [storage_period]
    defaults to the instance's total request volume (one "period"); a
    trailing partial period is charged rent proportionally to its
    length.

    @raise Invalid_argument if [storage_period] is non-positive, or if
    it is omitted on an instance with zero request volume (there is no
    meaningful default period then — supply one explicitly). *)
val run :
  ?storage_period:int -> Dmn_core.Instance.t -> Strategy.t -> Stream.event list -> result

val pp : Format.formatter -> result -> unit

(** [competitive_ratio ?storage_period inst strategy events
    ~phase_length] compares the strategy's total against the {e offline
    clairvoyant} cost: the stream is cut into phases of [phase_length]
    events, each phase is re-tabulated into frequencies, solved
    statically with the greedy-add baseline, and charged its own
    serving cost plus storage rent scaled by the phase's {e actual}
    length over the storage period. The trailing partial phase (when
    [phase_length] does not divide the stream length) is charged the
    same way, scaled by its true length — it is never dropped, so the
    offline cost covers exactly the events the online strategy served.
    [storage_period] follows the {!run} default and is applied to both
    sides. The returned ratio [>= ~1] measures how far the online
    strategy is from a per-phase optimal static planner.

    @raise Invalid_argument under the same conditions as {!run}, or if
    [phase_length] is non-positive. *)
val competitive_ratio :
  ?storage_period:int ->
  Dmn_core.Instance.t ->
  Strategy.t ->
  Stream.event list ->
  phase_length:int ->
  float
