(** Finite metric spaces over node ids [0 .. n-1].

    The paper's cost function [ct] induces a metric as the shortest-path
    closure of the edge costs (Section 1.1); all placement algorithms
    are phrased against this abstraction so they also run on matrices
    and point sets. *)

open Dmn_graph

type t

(** A borrowed view of one source row of the flat distance storage (see
    {!row}); indexing through it is branch-free. *)
type row

val size : t -> int

(** [version m] is the metric's repair version: 1 at construction,
    bumped by every in-place repair ({!recompute_rows}, {!relax_edge},
    {!relax_via}, {!touch}). Consumers that memoize derived distance
    data key it on this counter so a topology change can never serve a
    stale table. *)
val version : t -> int

(** [touch m] bumps {!version} without changing any distance — for
    churn events that alter the network state but provably leave every
    shortest path intact. *)
val touch : t -> unit

(** [copy m] is a private deep copy (same distances, version and
    {!order}); in-place repairs on the copy leave [m] untouched. *)
val copy : t -> t

(** [d m u v] is the distance; [d m v v = 0]. *)
val d : t -> int -> int -> float

(** [unsafe_d m u v] is [d m u v] without bounds checks. Both indices
    must be in [0, size m). *)
val unsafe_d : t -> int -> int -> float

(** [row m v] is the source row of [v]: distances are stored row-major
    in a single flat unboxed array, so a row is a contiguous slice.
    @raise Invalid_argument if [v] is out of range. *)
val row : t -> int -> row

(** [row_get r u] is [d m v u] for the row of [v] — unsafe-indexed: [u]
    must be in [0, size m). This is the serve path's inner read. *)
val row_get : row -> int -> float

(** [order m] is the distance order: [(order m).(v)] lists every node
    sorted by [(d m v u, u)] ascending, ties broken by node id. Every
    per-node walk of [d(v, ·)] reads it: the radii profiles, the
    Mettu–Plaxton charge radii and the greedy facility scan.

    The table is built on first use and memoized on {!version}, so it
    is rebuilt only after an in-place repair. A build sorts the rows in
    chunks over {!Dmn_prelude.Pool.default}, rolling the ["pool.task"]
    fault coin per row. Force it on the submitting domain before fanning
    work out, as instance construction does; workers then only read.
    The arrays are shared: do not mutate. *)
val order : t -> int array array

(** [of_graph ?pool ?chunks g] is the shortest-path closure computed
    with one Dijkstra per node, fanned out in chunked batches over
    [?pool] (default {!Dmn_prelude.Pool.default}); each chunk reuses one
    Dijkstra scratch and writes its rows directly into the flat storage.
    [?chunks] tunes the batch count (see
    {!Dmn_prelude.Pool.parallel_chunks}). [g] must be connected. The
    result is bit-identical to the sequential closure at any domain or
    chunk count. *)
val of_graph : ?pool:Dmn_prelude.Pool.t -> ?chunks:int -> Wgraph.t -> t

(** [of_graph_floyd g] computes the same closure with Floyd–Warshall
    (used to cross-check the Dijkstra closure in tests). *)
val of_graph_floyd : Wgraph.t -> t

(** [of_matrix mat] wraps an explicit distance matrix.
    @raise Invalid_argument if it is not square, has a non-zero
    diagonal, negative entries, is asymmetric, or violates the triangle
    inequality beyond float slack. *)
val of_matrix : float array array -> t

(** [of_points pts] is the Euclidean metric over 2-d points.
    @raise Invalid_argument if any coordinate is NaN or infinite, naming
    the offending point index. *)
val of_points : (float * float) array -> t

(** [scale c m] multiplies every distance by [c >= 0]. *)
val scale : float -> t -> t

(** [to_matrix m] materializes the full matrix (row-major copy of the
    flat storage). *)
val to_matrix : t -> float array array

(** [nearest m v nodes] is [(u, d m v u)] minimizing the distance over
    [nodes]. @raise Invalid_argument on an empty list. *)
val nearest : t -> int -> int list -> int * float

(** [nearest_dists m nodes] is, for every node [v], the distance from
    [v] to the nearest element of [nodes] — the shared nearest-copy
    primitive of cost evaluation and phase 2.
    @raise Invalid_argument on an empty list. *)
val nearest_dists : t -> int list -> float array

(** [nearest_dists_into m nodes out] is {!nearest_dists} written into
    the first [size m] cells of a caller-owned buffer — the
    allocation-free variant for scratch-space reuse in chunked solves.
    @raise Invalid_argument on an empty list or a buffer shorter than
    [size m]. *)
val nearest_dists_into : t -> int list -> float array -> unit

(** [is_metric mat] checks the {!of_matrix} requirements and returns an
    explanation on failure. *)
val is_metric : float array array -> (unit, string) result

(** {2 Incremental repair under topology churn}

    In-place updates used by {!Churn} to keep a metric consistent with
    a changing graph without paying a full {!of_graph} recompute per
    event. All three write both the affected rows and (by symmetry) the
    matching columns, permit [infinity] for pairs a partition has
    disconnected, and bump {!version}. *)

(** [recompute_rows m g rows] re-runs one Dijkstra per listed source on
    the {e current} graph [g] and overwrites those rows and columns.
    One {!Dijkstra.scratch} is reused across the batch. Unreachable
    targets are stored as [infinity] (unlike {!of_graph}, which rejects
    them — a repaired metric is allowed to describe a partitioned
    network). @raise Invalid_argument on a size mismatch or an
    out-of-range row. *)
val recompute_rows : t -> Wgraph.t -> int list -> unit

(** [relax_edge m ~u ~v ~w] applies the decrease-only all-pairs
    relaxation through an edge [(u, v)] of weight [w] — the exact
    repair for a new or cheapened edge: [d'(i,j) = min(d(i,j),
    d'(i,u) + w + d'(v,j), d'(i,v) + w + d'(u,j))], O(n²) with no
    Dijkstra. @raise Invalid_argument on out-of-range endpoints or a
    non-finite or negative weight. *)
val relax_edge : t -> u:int -> v:int -> w:float -> unit

(** [relax_via m z] relaxes every pair through node [z], whose row must
    already hold current distances ([recompute_rows m g [z]] first) —
    the repair for a revived node: all new shortest paths pass through
    it. *)
val relax_via : t -> int -> unit

(** [max_finite m] is the largest finite distance (0 for an empty or
    fully disconnected metric). *)
val max_finite : t -> float

(** [clamp_infinite m ~limit] is a fresh metric with every non-finite
    distance replaced by [limit] — the finite stand-in handed to the
    placement solver when re-optimizing over a partitioned network
    (the solver's cost sums must not see [infinity], which poisons
    zero-frequency products into NaN). *)
val clamp_infinite : t -> limit:float -> t

(** [hash64 m] is an order-sensitive 64-bit digest of the exact float
    bits of the distance matrix — the integrity stamp checkpoints use
    to prove a resumed run reconstructed the churned metric
    byte-identically. *)
val hash64 : t -> int64
