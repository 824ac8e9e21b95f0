(** A static data management instance (paper Section 1.1).

    Nodes are [0 .. n-1]. For each of the [k] shared objects, every node
    has integer read and write request counts; storage cost is per node
    (uniform object size, as in the paper — the non-uniform extension
    multiplies [cs]/[ct] per object and changes nothing structurally,
    because objects are placed independently). *)

open Dmn_graph
open Dmn_paths

type t

(** [of_metric m ~cs ~fr ~fw] builds an instance over an explicit
    metric. [fr] and [fw] are indexed [fr.(x).(v)]; all counts must be
    non-negative, [cs] non-negative (allowing [infinity] to forbid
    storage on a node). Construction also builds [m]'s
    {!Metric.order} if it is stale, on the calling domain, so solves
    over the instance only read it. @raise Invalid_argument on shape or
    value errors. *)
val of_metric : Metric.t -> cs:float array -> fr:int array array -> fw:int array array -> t

(** [of_graph g ~cs ~fr ~fw] derives the metric as the shortest-path
    closure of [g] (the paper's [ct]); [g] must be connected. The graph
    is retained for graph-level primitives (exact nearest-copy reads via
    multi-source Dijkstra, Steiner expansion).

    By default the graph is checked for connectivity up front and a
    disconnected graph raises [Invalid_argument] naming an unreachable
    node — rather than letting [infinity] distances poison radii and
    costs downstream. Pass [~require_connected:false] only when the
    caller has already established connectivity; the metric closure
    still rejects unreachable pairs as a backstop. *)
val of_graph :
  ?require_connected:bool ->
  Wgraph.t ->
  cs:float array ->
  fr:int array array ->
  fw:int array array ->
  t

val n : t -> int

(** [objects t] is the number of shared objects. *)
val objects : t -> int

val metric : t -> Metric.t

(** [graph t] is the underlying graph when built with {!of_graph}. *)
val graph : t -> Wgraph.t option

val cs : t -> int -> float
val reads : t -> x:int -> int -> int
val writes : t -> x:int -> int -> int

(** [requests t ~x v] is [reads + writes] — both request kinds count
    toward the paper's [R^z_v] multiset. *)
val requests : t -> x:int -> int -> int

(** [total_writes t ~x] is the paper's [W] for object [x]. *)
val total_writes : t -> x:int -> int

val total_reads : t -> x:int -> int

(** [total_requests t ~x] is the number of requests for [x]. *)
val total_requests : t -> x:int -> int

(** [read_only t ~x] holds when object [x] has no writes. *)
val read_only : t -> x:int -> bool

(** [related_flp t ~x] is the facility location instance of phase 1:
    writes recast as reads (demand [fr + fw]), opening costs [cs]. *)
val related_flp : t -> x:int -> Dmn_facility.Flp.instance

(** [restrict_object t ~x] is a single-object copy of the instance. *)
val restrict_object : t -> x:int -> t

(** [scale_object t ~x ~storage ~transmission] is the single-object
    instance of [x] with storage fees multiplied by [storage] and link
    fees by [transmission] — the paper's non-uniform cost model
    (Section 1.1 claims all results carry over): objects are placed
    independently, so an instance with per-object cost functions
    decomposes into one scaled instance per object. Both factors must be
    positive. Graph-backed instances stay graph-backed. *)
val scale_object : t -> x:int -> storage:float -> transmission:float -> t
