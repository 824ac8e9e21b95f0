open Dmn_paths

type node_radii = { rw : float; rs : float; zs : int }

(* Sorted request-distance profile of node v: distances ascending with
   multiplicities, plus prefix sums.  S z = sum of the z smallest
   request distances; infinity once z exceeds the request count.
   Only the first [k] entries (k + 1 for the prefix sums) are
   meaningful: the arrays may be oversized workspace buffers. *)
type profile = {
  k : int;
  counts : int array;
  cum_count : int array;
  cum_dist : float array;
  dists : float array;
}

(* Reusable profile buffers, sized for [n] nodes. One workspace serves
   one domain at a time; chunked solves allocate one per chunk instead
   of four arrays per node per object. *)
type workspace = {
  w_counts : int array;
  w_cum_count : int array;
  w_cum_dist : float array;
  w_dists : float array;
}

let workspace_n n =
  {
    w_counts = Array.make (max 1 n) 0;
    w_cum_count = Array.make (n + 1) 0;
    w_cum_dist = Array.make (n + 1) 0.0;
    w_dists = Array.make (max 1 n) 0.0;
  }

let workspace inst = workspace_n (Instance.n inst)

(* The ascending order of d(v, .) is object-independent, so the sort
   lives with the metric ({!Metric.order}) and building a per-object
   profile is a single linear scan over that order into the
   workspace. *)
let profile_ws ws inst ~x v =
  let m = Instance.metric inst in
  let n = Instance.n inst in
  if Array.length ws.w_cum_count < n + 1 then invalid_arg "Radii.profile_ws: workspace too small";
  let order = (Metric.order m).(v) in
  let counts = ws.w_counts and dists = ws.w_dists in
  let cum_count = ws.w_cum_count and cum_dist = ws.w_cum_dist in
  cum_count.(0) <- 0;
  cum_dist.(0) <- 0.0;
  let j = ref 0 in
  for i = 0 to n - 1 do
    let u = order.(i) in
    let c = Instance.requests inst ~x u in
    if c > 0 then begin
      let d = Metric.d m v u in
      let idx = !j in
      dists.(idx) <- d;
      counts.(idx) <- c;
      cum_count.(idx + 1) <- cum_count.(idx) + c;
      cum_dist.(idx + 1) <- cum_dist.(idx) +. (float_of_int c *. d);
      incr j
    end
  done;
  { k = !j; counts; cum_count; cum_dist; dists }

let profile inst ~x v = profile_ws (workspace inst) inst ~x v

(* Uncached per-call sort, kept as the validation/bench reference. *)
let reference_profile inst ~x v =
  let m = Instance.metric inst in
  let n = Instance.n inst in
  let entries = ref [] in
  for u = 0 to n - 1 do
    let c = Instance.requests inst ~x u in
    if c > 0 then entries := (Metric.d m v u, c) :: !entries
  done;
  let arr = Array.of_list !entries in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  let k = Array.length arr in
  let counts = Array.make k 0 and dists = Array.make k 0.0 in
  let cum_count = Array.make (k + 1) 0 and cum_dist = Array.make (k + 1) 0.0 in
  Array.iteri
    (fun i (d, c) ->
      dists.(i) <- d;
      counts.(i) <- c;
      cum_count.(i + 1) <- cum_count.(i) + c;
      cum_dist.(i + 1) <- cum_dist.(i) +. (float_of_int c *. d))
    arr;
  { k; counts; cum_count; cum_dist; dists }

let s_of_profile p z =
  if z <= 0 then 0.0
  else begin
    let k = p.k in
    let total = p.cum_count.(k) in
    if z > total then infinity
    else begin
      (* binary search for the segment holding the z-th request *)
      let lo = ref 0 and hi = ref k in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if p.cum_count.(mid) < z then lo := mid else hi := mid
      done;
      (* after the loop, cum_count lo < z <= cum_count hi, hi = lo+1 *)
      let seg = !lo in
      p.cum_dist.(seg) +. (float_of_int (z - p.cum_count.(seg)) *. p.dists.(seg))
    end
  end

let avg_of_profile p z = if z <= 0 then 0.0 else s_of_profile p z /. float_of_int z

let prefix_sum inst ~x v z = s_of_profile (profile inst ~x v) z
let avg_dist inst ~x v z = avg_of_profile (profile inst ~x v) z

(* Choose (zs, rs) satisfying the paper's two chained inequalities.
   With zs = min { z : S(z) > cs }, the value
   rs = min(cs / (zs - 1), d(v, zs)) always satisfies
     (zs-1) * rs <= cs < zs * rs  and  d(v, zs-1) <= rs <= d(v, zs).
   The second chain's upper bound is non-strict here (the paper uses a
   strict one); strictness is impossible when d(v, zs-1) = d(v, zs)
   (tied request distances), and every use of the bound in the analysis
   only needs d(v, zs) >= rs. Assumes 0 < cs < infinity and at least
   one request. *)
let storage_radius p cs total =
  (* zs = min { z >= 1 : S(z) > cs }, possibly total + 1 *)
  let zs =
    let rec search lo hi =
      (* invariant: S(lo) <= cs < S(hi) with hi possibly total+1 *)
      if hi - lo <= 1 then hi
      else
        let mid = (lo + hi) / 2 in
        if s_of_profile p mid > cs then search lo mid else search mid hi
    in
    if s_of_profile p total > cs then search 0 total else total + 1
  in
  let d_hi = if zs > total then infinity else avg_of_profile p zs in
  let upper_closed = if zs = 1 then infinity else cs /. float_of_int (zs - 1) in
  (zs, Float.min upper_closed d_hi)

let compute_with profile inst ~x =
  let n = Instance.n inst in
  let w = Instance.total_writes inst ~x in
  let total = Instance.total_requests inst ~x in
  Array.init n (fun v ->
      let p = profile inst ~x v in
      let rw = if w = 0 then 0.0 else avg_of_profile p w in
      let cs = Instance.cs inst v in
      if cs = 0.0 then { rw; rs = 0.0; zs = 0 }
      else if cs = infinity || total = 0 then { rw; rs = infinity; zs = 0 }
      else begin
        let zs, rs = storage_radius p cs total in
        { rw; rs; zs }
      end)

let compute_ws ws inst ~x = compute_with (profile_ws ws) inst ~x
let compute inst ~x = compute_ws (workspace inst) inst ~x
let compute_reference inst ~x = compute_with reference_profile inst ~x

let check inst ~x r =
  let n = Instance.n inst in
  let w = Instance.total_writes inst ~x in
  let total = Instance.total_requests inst ~x in
  let ws = workspace inst in
  let exception Bad of string in
  try
    for v = 0 to n - 1 do
      let p = profile_ws ws inst ~x v in
      let rw_expect = if w = 0 then 0.0 else avg_of_profile p w in
      if not (Dmn_prelude.Floatx.approx r.(v).rw rw_expect) then
        raise (Bad (Printf.sprintf "node %d: rw mismatch" v));
      let cs = Instance.cs inst v in
      if cs > 0.0 && cs < infinity && total > 0 then begin
        let zs = r.(v).zs and rs = r.(v).rs in
        if zs < 1 then raise (Bad (Printf.sprintf "node %d: zs < 1" v));
        let zf = float_of_int zs in
        if not ((zf -. 1.0) *. rs <= cs +. 1e-9) then
          raise (Bad (Printf.sprintf "node %d: (zs-1)rs <= cs fails" v));
        if not (cs < zf *. rs) then raise (Bad (Printf.sprintf "node %d: cs < zs*rs fails" v));
        let d_lo = avg_of_profile p (zs - 1) in
        let d_hi = if zs > total then infinity else avg_of_profile p zs in
        if not (d_lo <= rs +. 1e-9) then
          raise (Bad (Printf.sprintf "node %d: d(zs-1) <= rs fails" v));
        (* non-strict upper bound; see storage_radius *)
        if not (rs <= d_hi +. 1e-9) then
          raise (Bad (Printf.sprintf "node %d: rs <= d(zs) fails" v))
      end
    done;
    Ok ()
  with Bad s -> Error s
