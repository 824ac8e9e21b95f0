open Dmn_graph
open Dmn_prelude

(* Row-major flat storage: d(u, v) lives at [u * n + v]. A single
   unboxed float array keeps every row contiguous — the nearest-copy
   scans and MST subset loops of the serve path walk rows without
   chasing a per-row pointer, and the whole metric is one allocation.

   [version] supports topology churn: every in-place repair
   ({!recompute_rows}, {!relax_edge}, {!relax_via}, {!touch}) bumps it,
   so consumers that memoize derived data (the per-placement serve
   caches) can key their state on (placement version × metric version)
   and can never serve a distance that predates a network change.

   [ord] memoizes the distance order (see {!order}) on [version]. It is
   published by one write of an immutable pair, so a reader on another
   domain sees either the old pair or the new one, never a table paired
   with the wrong version. *)
type order = { at : int; rows : int array array }

type t = { n : int; flat : float array; mutable version : int; mutable ord : order }

type row = { data : float array; off : int }

(* version starts at 1, so this never matches *)
let no_order = { at = 0; rows = [||] }
let make n flat = { n; flat; version = 1; ord = no_order }
let size m = m.n
let version m = m.version
let touch m = m.version <- m.version + 1

(* same distances and version, so the copy shares the order table *)
let copy m = { m with flat = Array.copy m.flat }
let d m u v = m.flat.((u * m.n) + v)
let unsafe_d m u v = Array.unsafe_get m.flat ((u * m.n) + v)

let row m v =
  if v < 0 || v >= m.n then invalid_arg "Metric.row: node out of range";
  { data = m.flat; off = v * m.n }

let row_get r u = Array.unsafe_get r.data (r.off + u)

let of_rows n rows =
  let flat = Array.make (n * n) 0.0 in
  Array.iteri (fun v r -> Array.blit r 0 flat (v * n) n) rows;
  make n flat

(* One Dijkstra per source row; rows are independent, so fan out over
   the domain pool in chunked batches (bit-identical to the sequential
   closure). Each chunk reuses one Dijkstra scratch and writes its rows
   straight into the flat storage — no per-row intermediate arrays. *)
let of_graph ?pool ?chunks g =
  let n = Wgraph.n g in
  let flat = Array.make (n * n) 0.0 in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Pool.parallel_chunks pool ?chunks n (fun lo hi ->
      let s = Dijkstra.scratch n in
      for v = lo to hi - 1 do
        (* Same per-row injection point as [Pool.parallel_init]: fault
           outcomes stay independent of the chunking and domain count. *)
        Fault.check_at "pool.task" v;
        let dist = Dijkstra.run_scratch s g v in
        let base = v * n in
        for u = 0 to n - 1 do
          let d = Array.unsafe_get dist u in
          if d = infinity then
            invalid_arg (Printf.sprintf "Metric.of_graph: node %d unreachable from %d" u v);
          Array.unsafe_set flat (base + u) d
        done
      done);
  make n flat

let of_graph_floyd g =
  let n = Wgraph.n g in
  let mat = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    mat.(v).(v) <- 0.0
  done;
  List.iter
    (fun (u, v, w) ->
      if w < mat.(u).(v) then begin
        mat.(u).(v) <- w;
        mat.(v).(u) <- w
      end)
    (Wgraph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = mat.(i).(k) +. mat.(k).(j) in
        if via < mat.(i).(j) then mat.(i).(j) <- via
      done
    done
  done;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j x ->
          if x = infinity then
            invalid_arg (Printf.sprintf "Metric.of_graph_floyd: %d unreachable from %d" j i))
        row)
    mat;
  of_rows n mat

let is_metric mat =
  let n = Array.length mat in
  let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.exists (fun row -> Array.length row <> n) mat then bad "matrix is not square"
  else
    let exception Found of string in
    try
      for i = 0 to n - 1 do
        if not (Floatx.approx mat.(i).(i) 0.0) then
          raise (Found (Printf.sprintf "non-zero diagonal at %d" i));
        for j = 0 to n - 1 do
          if mat.(i).(j) < 0.0 then raise (Found (Printf.sprintf "negative entry (%d,%d)" i j));
          if not (Floatx.approx mat.(i).(j) mat.(j).(i)) then
            raise (Found (Printf.sprintf "asymmetric at (%d,%d)" i j))
        done
      done;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if not (Floatx.leq ~tol:1e-6 mat.(i).(j) (mat.(i).(k) +. mat.(k).(j))) then
              raise (Found (Printf.sprintf "triangle violation %d-%d via %d" i j k))
          done
        done
      done;
      Ok ()
    with Found s -> Error s

let of_matrix mat =
  (match is_metric mat with Ok () -> () | Error e -> invalid_arg ("Metric.of_matrix: " ^ e));
  let n = Array.length mat in
  of_rows n mat

let of_points pts =
  let n = Array.length pts in
  Array.iteri
    (fun i (x, y) ->
      if not (Float.is_finite x && Float.is_finite y) then
        invalid_arg
          (Printf.sprintf "Metric.of_points: point %d has non-finite coordinates (%g, %g)" i x y))
    pts;
  let flat = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    let xi, yi = pts.(i) in
    for j = 0 to n - 1 do
      let xj, yj = pts.(j) in
      flat.((i * n) + j) <- Float.hypot (xi -. xj) (yi -. yj)
    done
  done;
  make n flat

let scale c m =
  if c < 0.0 then invalid_arg "Metric.scale: negative factor";
  make m.n (Array.map (fun x -> c *. x) m.flat)

let to_matrix m = Array.init m.n (fun v -> Array.sub m.flat (v * m.n) m.n)

(* Row v's nodes sorted by (d(v, u), u): a total order, so the result
   does not depend on the sort algorithm. *)
let sorted_row m v =
  let base = v * m.n in
  let idx = Array.init m.n Fun.id in
  Array.sort
    (fun a b ->
      let c =
        Float.compare (Array.unsafe_get m.flat (base + a)) (Array.unsafe_get m.flat (base + b))
      in
      if c <> 0 then c else Int.compare a b)
    idx;
  idx

(* Rebuilt on first use after a repair. Chunked fill over the default
   pool; the per-row fault coin keeps injection outcomes independent of
   the chunking. *)
let order m =
  let o = m.ord and v = m.version in
  if o.at = v then o.rows
  else begin
    let rows = Array.make m.n [||] in
    Pool.parallel_chunks (Pool.default ()) m.n (fun lo hi ->
        for u = lo to hi - 1 do
          Fault.check_at "pool.task" u;
          rows.(u) <- sorted_row m u
        done);
    m.ord <- { at = v; rows };
    rows
  end

let nearest_dists_into m nodes out =
  if nodes = [] then invalid_arg "Metric.nearest_dists: empty node list";
  if Array.length out < m.n then invalid_arg "Metric.nearest_dists_into: buffer too small";
  for v = 0 to m.n - 1 do
    let base = v * m.n in
    out.(v) <- List.fold_left (fun acc u -> Float.min acc m.flat.(base + u)) infinity nodes
  done

let nearest_dists m nodes =
  let out = Array.make (max 1 m.n) 0.0 in
  nearest_dists_into m nodes out;
  if Array.length out = m.n then out else [||]

(* ----- incremental repair under topology churn -----

   A full [of_graph] recompute runs one Dijkstra per node. A single
   churn event invalidates far fewer rows: an edge-weight decrease (or
   a restored edge) is a pure all-pairs relaxation through that edge
   (O(n^2), no Dijkstra at all), and an increase/removal only touches
   sources whose shortest-path tree used the edge — the caller
   ({!Churn}) selects those rows and hands them here for targeted
   re-computation, reusing one {!Dijkstra.scratch} across the batch.
   Unlike [of_graph], repaired rows permit [infinity]: an unreachable
   pair is exactly what a partition looks like, and the serve layer
   treats a non-finite cost as "drop and count". Each repair writes
   both the row and (by symmetry) the column, so the matrix stays
   exactly symmetric, and bumps [version]. *)

let recompute_rows m g rows =
  if Wgraph.n g <> m.n then invalid_arg "Metric.recompute_rows: graph size mismatch";
  let n = m.n in
  let s = Dijkstra.scratch n in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Metric.recompute_rows: row out of range";
      let dist = Dijkstra.run_scratch s g v in
      Array.blit dist 0 m.flat (v * n) n;
      for u = 0 to n - 1 do
        m.flat.((u * n) + v) <- Array.unsafe_get dist u
      done)
    rows;
  touch m

let relax_edge m ~u ~v ~w =
  if u < 0 || u >= m.n || v < 0 || v >= m.n then invalid_arg "Metric.relax_edge: out of range";
  if not (Float.is_finite w) || w < 0.0 then
    invalid_arg "Metric.relax_edge: weight must be finite and non-negative";
  let n = m.n in
  (* distances to the endpoints after using the cheaper edge once *)
  let du = Array.make n 0.0 and dv = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let diu = m.flat.((i * n) + u) and div_ = m.flat.((i * n) + v) in
    du.(i) <- Float.min diu (div_ +. w);
    dv.(i) <- Float.min div_ (diu +. w)
  done;
  for i = 0 to n - 1 do
    let base = i * n in
    let diu = du.(i) and div_ = dv.(i) in
    for j = 0 to n - 1 do
      let cand = Float.min (diu +. w +. dv.(j)) (div_ +. w +. du.(j)) in
      if cand < Array.unsafe_get m.flat (base + j) then Array.unsafe_set m.flat (base + j) cand
    done
  done;
  touch m

let relax_via m z =
  if z < 0 || z >= m.n then invalid_arg "Metric.relax_via: node out of range";
  let n = m.n in
  let dz = Array.sub m.flat (z * n) n in
  for i = 0 to n - 1 do
    let base = i * n in
    let diz = dz.(i) in
    if Float.is_finite diz then
      for j = 0 to n - 1 do
        let cand = diz +. Array.unsafe_get dz j in
        if cand < Array.unsafe_get m.flat (base + j) then Array.unsafe_set m.flat (base + j) cand
      done
  done;
  touch m

let max_finite m =
  Array.fold_left (fun acc x -> if Float.is_finite x && x > acc then x else acc) 0.0 m.flat

let clamp_infinite m ~limit =
  if not (Float.is_finite limit && limit >= 0.0) then
    invalid_arg "Metric.clamp_infinite: limit must be finite and non-negative";
  make m.n (Array.map (fun x -> if Float.is_finite x then x else limit) m.flat)

let hash64 m =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  Array.fold_left
    (fun h x -> mix (Int64.add (Int64.mul h 0x100000001b3L) (Int64.bits_of_float x)))
    (mix (Int64.of_int m.n)) m.flat

let nearest m v nodes =
  match nodes with
  | [] -> invalid_arg "Metric.nearest: empty node list"
  | first :: rest ->
      let base = v * m.n in
      List.fold_left
        (fun ((_, bd) as best) u ->
          let du = m.flat.(base + u) in
          if du < bd then (u, du) else best)
        (first, d m v first)
        rest
