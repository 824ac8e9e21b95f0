open Dmn_paths

type flp_solver = Local_search | Jain_vazirani | Mettu_plaxton | Greedy | Trivial | Sta_lp

let solver_name = function
  | Local_search -> "local-search"
  | Jain_vazirani -> "jain-vazirani"
  | Mettu_plaxton -> "mettu-plaxton"
  | Greedy -> "greedy"
  | Trivial -> "trivial"
  | Sta_lp -> "sta-lp"

type config = {
  solver : flp_solver;
  phase2_factor : float;
  phase3_factor : float;
  run_phase2 : bool;
  run_phase3 : bool;
}

let default_config =
  { solver = Mettu_plaxton; phase2_factor = 5.0; phase3_factor = 4.0; run_phase2 = true; run_phase3 = true }

let flp_solve solver flp =
  match solver with
  | Local_search -> Dmn_facility.Local_search.solve flp
  | Jain_vazirani -> Dmn_facility.Jain_vazirani.solve flp
  | Mettu_plaxton -> Dmn_facility.Mettu_plaxton.solve flp
  | Greedy -> Dmn_facility.Greedy.solve flp
  | Sta_lp -> Dmn_facility.Sta.solve flp
  | Trivial ->
      let opening = flp.Dmn_facility.Flp.opening in
      let best = ref (-1) in
      Array.iteri
        (fun v c -> if c < infinity && (!best < 0 || c < opening.(!best)) then best := v)
        opening;
      if !best < 0 then
        invalid_arg "Approx.phase1: every node has infinite storage cost, no copy can be placed";
      [ !best ]

let phase1 ~config inst ~x = flp_solve config.solver (Instance.related_flp inst ~x)

(* Reusable per-object buffers: radii profile workspace plus the
   nearest-copy distance array of phase 2. One scratch serves one
   domain at a time; chunked solves allocate one per chunk. *)
type scratch = { ws : Radii.workspace; near : float array }

let scratch inst = { ws = Radii.workspace inst; near = Array.make (max 1 (Instance.n inst)) 0.0 }

let phase2_into ~config inst radii copies dist =
  let m = Instance.metric inst in
  let n = Instance.n inst in
  Metric.nearest_dists_into m copies dist;
  let result = ref (List.rev copies) in
  for v = 0 to n - 1 do
    let bound = config.phase2_factor *. radii.(v).Radii.rs in
    if dist.(v) > bound && Instance.cs inst v < infinity then begin
      result := v :: !result;
      (* a new copy on v can only shrink nearest-copy distances *)
      for u = 0 to n - 1 do
        let duv = Metric.d m u v in
        if duv < dist.(u) then dist.(u) <- duv
      done
    end
  done;
  List.rev !result

let phase2 ~config inst ~x radii copies =
  ignore x;
  phase2_into ~config inst radii copies (Array.make (max 1 (Instance.n inst)) 0.0)

let phase3 ~config inst radii copies =
  let m = Instance.metric inst in
  let holders = Array.of_list (List.sort_uniq compare copies) in
  (* ascending write radii; ties broken by node id for determinism *)
  Array.sort
    (fun u v -> compare (radii.(u).Radii.rw, u) (radii.(v).Radii.rw, v))
    holders;
  let alive = Hashtbl.create (Array.length holders) in
  Array.iter (fun v -> Hashtbl.replace alive v ()) holders;
  Array.iter
    (fun v ->
      if Hashtbl.mem alive v then
        Array.iter
          (fun u ->
            if u <> v && Hashtbl.mem alive u
               && Metric.d m u v <= config.phase3_factor *. radii.(u).Radii.rw
            then Hashtbl.remove alive u)
          holders)
    holders;
  Array.to_list holders |> List.filter (Hashtbl.mem alive) |> List.sort compare

let place_object ?(config = default_config) ?scratch:s inst ~x =
  let s = match s with Some s -> s | None -> scratch inst in
  let copies = phase1 ~config inst ~x in
  let radii = Radii.compute_ws s.ws inst ~x in
  let copies = if config.run_phase2 then phase2_into ~config inst radii copies s.near else copies in
  let copies = if config.run_phase3 then phase3 ~config inst radii copies else copies in
  List.sort_uniq compare copies

(* Objects are independent, so the pipeline runs contiguous chunks of
   objects per pool claim, one scratch per chunk. Each object writes a
   private result slot and rolls the per-object "pool.task" fault coin,
   so the placement — and any injected failure — is bit-identical to
   the sequential map for any pool size or chunking. *)
let solve ?(config = default_config) ?pool ?chunks inst =
  let pool = match pool with Some p -> p | None -> Dmn_prelude.Pool.default () in
  let k = Instance.objects inst in
  let slots = Array.make k [] in
  Dmn_prelude.Pool.parallel_chunks pool ?chunks k (fun lo hi ->
      let s = scratch inst in
      for x = lo to hi - 1 do
        Dmn_prelude.Fault.check_at "pool.task" x;
        slots.(x) <- place_object ~config ~scratch:s inst ~x
      done);
  Placement.make slots
