(** Write and storage radii (paper Section 2.1).

    For a node [v] and object [x], let [R^z_v] be the [z] requests
    (reads and writes both count) closest to [v] and
    [d(v, z) = avg_{r in R^z_v} ct(h(r), v)]. Then

    - the {b write radius} is [rw(v) = d(v, W)] with [W] the total
      number of writes;
    - the {b storage number} [zs(v)] and {b storage radius} [rs(v)]
      satisfy [(zs - 1) * rs <= cs(v) < zs * rs] and
      [d(v, zs - 1) <= rs <= d(v, zs)]. (The paper's upper bound is
      strict; with tied request distances [d(v, zs - 1) = d(v, zs)] no
      strict choice exists, and the analysis only uses
      [d(v, zs) >= rs], so we relax it.)

    Degenerate conventions (documented deviations for cases the paper
    leaves implicit): [d(v, 0) = 0]; [d(v, z) = infinity] when fewer
    than [z] requests exist; [rw = 0] when [W = 0]; [rs = 0] when
    [cs(v) = 0] (free storage always merits a copy); [rs = infinity]
    when [cs(v) = infinity] or the object has no requests at all (no
    request volume ever justifies a copy at [v], so phase 2 never adds
    one). *)

type node_radii = {
  rw : float;  (** write radius *)
  rs : float;  (** storage radius *)
  zs : int;  (** storage number; 0 in the degenerate [rs = 0 or infinity] cases *)
}

(** [avg_dist inst ~x v z] is [d(v, z)] as above. *)
val avg_dist : Instance.t -> x:int -> int -> int -> float

(** [prefix_sum inst ~x v z] is [z * d(v, z)], the summed distance of
    the [z] closest requests ([S(z)] in the analysis). *)
val prefix_sum : Instance.t -> x:int -> int -> int -> float

(** Reusable profile buffers for {!compute_ws}: four arrays sized for
    the instance, reset implicitly per node. One workspace serves one
    domain at a time. *)
type workspace

(** [workspace inst] allocates buffers sized for [inst]. *)
val workspace : Instance.t -> workspace

(** [compute inst ~x] evaluates radii for every node. [O(n^2)] per
    object: the per-node distance sort is the metric's
    {!Dmn_paths.Metric.order}, shared across objects. *)
val compute : Instance.t -> x:int -> node_radii array

(** [compute_ws ws inst ~x] is {!compute} using caller-owned buffers,
    the allocation-free variant for chunked solves: bit-identical
    results, no per-node array churn.
    @raise Invalid_argument if [ws] is smaller than [inst]. *)
val compute_ws : workspace -> Instance.t -> x:int -> node_radii array

(** [compute_reference inst ~x] is the [O(n^2 log n)] seed
    implementation (one full sort per node per object), kept as the
    ground truth for {!compute}'s equality property tests and as the
    micro-benchmark baseline. *)
val compute_reference : Instance.t -> x:int -> node_radii array

(** [check inst ~x r] verifies the defining inequalities of all radii
    (used by tests); returns the first violation. *)
val check : Instance.t -> x:int -> node_radii array -> (unit, string) result
