(** Descriptive statistics over float samples. All functions raise
    [Invalid_argument] on empty input unless noted. *)

val mean : float array -> float
val variance : float array -> float

(** Population standard deviation. *)
val stddev : float array -> float

val min : float array -> float
val max : float array -> float

(** [median a] does not modify [a]. *)
val median : float array -> float

(** [percentile a p] with [p] in [0, 100], linear interpolation between
    order statistics. Does not modify [a]. *)
val percentile : float array -> float -> float

(** [sort_in_place a] sorts [a] ascending with a heap sort specialised
    to floats: no closure call, no allocation. [a] must hold no NaN.
    Unlike {!percentile}, it does not copy. *)
val sort_in_place : float array -> unit

(** [percentile_sorted a p] is [percentile a p] for an [a] already
    sorted ascending, so several percentiles share one sort. *)
val percentile_sorted : float array -> float -> float

(** [geo_mean a] requires strictly positive samples. *)
val geo_mean : float array -> float

(** [summary a] is [(mean, stddev, min, median, max)]. *)
val summary : float array -> float * float * float * float * float
