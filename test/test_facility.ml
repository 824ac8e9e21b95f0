open Dmn_prelude
open Dmn_graph
open Dmn_paths
open Dmn_facility

let random_flp rng n =
  let g = Gen.erdos_renyi rng n 0.3 in
  let m = Metric.of_graph g in
  let opening = Array.init n (fun _ -> Rng.float_in rng 0.5 20.0) in
  let demand = Array.init n (fun _ -> float_of_int (Rng.int rng 5)) in
  Flp.create m ~opening ~demand

let cost_decomposition () =
  let m = Metric.of_graph (Gen.path 4) in
  let inst = Flp.create m ~opening:[| 5.0; 5.0; 5.0; 5.0 |] ~demand:[| 1.0; 1.0; 1.0; 1.0 |] in
  Util.check_float "opening" 5.0 (Flp.opening_cost inst [ 1 ]);
  Util.check_float "connection" 4.0 (Flp.connection_cost inst [ 1 ]);
  Util.check_float "total" 9.0 (Flp.cost inst [ 1 ]);
  Util.check_float "duplicates in open set" 5.0 (Flp.opening_cost inst [ 1; 1 ]);
  let assign = Flp.assignment inst [ 0; 3 ] in
  Alcotest.(check (array int)) "assignment" [| 0; 0; 3; 3 |] assign

let validate_checks () =
  let m = Metric.of_graph (Gen.path 3) in
  let inst = Flp.create m ~opening:[| 1.0; infinity; 1.0 |] ~demand:[| 1.0; 1.0; 1.0 |] in
  (match Flp.validate inst [] with Error _ -> () | Ok () -> Alcotest.fail "empty accepted");
  (match Flp.validate inst [ 1 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forbidden site accepted");
  match Flp.validate inst [ 0; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid solution rejected: %s" e

let solvers = [ ("greedy", Greedy.solve); ("local-search", fun i -> Local_search.solve i);
                ("jain-vazirani", Jain_vazirani.solve); ("mettu-plaxton", Mettu_plaxton.solve) ]

let solvers_return_valid () =
  let rng = Rng.create 41 in
  for _ = 1 to 15 do
    let n = 2 + Rng.int rng 15 in
    let inst = random_flp rng n in
    List.iter
      (fun (name, solve) ->
        let opens = solve inst in
        match Flp.validate inst opens with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: invalid solution: %s" name e)
      solvers
  done

(* Empirical approximation factors vs exhaustive optimum. The proven
   factors are 3 (JV, MP), 5+eps (local search), O(log n) (greedy); we
   assert the proven bound plus slack for greedy. *)
let solver_quality () =
  let rng = Rng.create 42 in
  for _ = 1 to 12 do
    let n = 3 + Rng.int rng 9 in
    let inst = random_flp rng n in
    let opt = Exact.opt_cost inst in
    List.iter
      (fun (name, solve, bound) ->
        let c = Flp.cost inst (solve inst) in
        Util.check_leq (Printf.sprintf "%s within factor %.1f" name bound) c
          ((bound *. opt) +. 1e-6))
      [
        ("local-search", (fun i -> Local_search.solve i), 5.2);
        ("jain-vazirani", Jain_vazirani.solve, 3.0);
        ("mettu-plaxton", Mettu_plaxton.solve, 3.0);
        ("greedy", Greedy.solve, 2.0 *. log (float_of_int n +. 2.0));
      ]
  done

let local_search_local_optimality () =
  (* no single add or drop improves the local search solution *)
  let rng = Rng.create 43 in
  for _ = 1 to 8 do
    let n = 3 + Rng.int rng 10 in
    let inst = random_flp rng n in
    let opens = Local_search.solve inst in
    let c = Flp.cost inst opens in
    for v = 0 to n - 1 do
      if not (List.mem v opens) then
        Util.check_leq "add does not improve much" c (Flp.cost inst (v :: opens) +. c *. 1e-2)
    done;
    List.iter
      (fun v ->
        let rest = List.filter (fun u -> u <> v) opens in
        if rest <> [] then
          Util.check_leq "drop does not improve much" c (Flp.cost inst rest +. c *. 1e-2))
      opens
  done

let mettu_plaxton_radii () =
  (* the defining equation: sum_j w_j max(0, r - d) = f *)
  let rng = Rng.create 44 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 12 in
    let inst = random_flp rng n in
    let r = Mettu_plaxton.radii inst in
    for v = 0 to n - 1 do
      if r.(v) < infinity then begin
        let paid = ref 0.0 in
        for j = 0 to n - 1 do
          paid :=
            !paid
            +. (inst.Flp.demand.(j) *. Float.max 0.0 (r.(v) -. Metric.d inst.Flp.metric v j))
        done;
        Util.check_cost "radius equation" inst.Flp.opening.(v) !paid
      end
    done
  done

let jain_vazirani_duals () =
  (* weak duality sanity: the duals cover the solution's connection cost
     scale; alpha_j >= d(j, nearest open) for served clients. *)
  let rng = Rng.create 45 in
  for _ = 1 to 8 do
    let n = 3 + Rng.int rng 9 in
    let inst = random_flp rng n in
    let opens, alpha = Jain_vazirani.duals inst in
    let opt = Exact.opt_cost inst in
    (* each client with demand reaches some open facility within alpha *)
    for j = 0 to n - 1 do
      if inst.Flp.demand.(j) > 0.0 then begin
        let _, d = Metric.nearest inst.Flp.metric j opens in
        Util.check_leq "client reaches opened facility within alpha" d (alpha.(j) +. 1e-6)
      end
    done;
    Util.check_leq "3-approximation" (Flp.cost inst opens) ((3.0 *. opt) +. 1e-6)
  done

let exact_brute_force_small () =
  (* hand instance: path of 3, expensive middle *)
  let m = Metric.of_graph (Gen.path 3) in
  let inst = Flp.create m ~opening:[| 1.0; 100.0; 1.0 |] ~demand:[| 10.0; 1.0; 10.0 |] in
  let opens = Exact.solve inst in
  Alcotest.(check (list int)) "both ends" [ 0; 2 ] (List.sort compare opens)

let zero_demand_instances () =
  let m = Metric.of_graph (Gen.path 3) in
  let inst = Flp.create m ~opening:[| 3.0; 1.0; 2.0 |] ~demand:[| 0.0; 0.0; 0.0 |] in
  List.iter
    (fun (name, solve) ->
      let opens = solve inst in
      match Flp.validate inst opens with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s zero-demand: %s" name e)
    solvers

let qcheck_mp_within_3 =
  QCheck.Test.make ~name:"Mettu-Plaxton within 3x optimum" ~count:40
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = random_flp rng n in
      let c = Flp.cost inst (Mettu_plaxton.solve inst) in
      c <= (3.0 *. Exact.opt_cost inst) +. 1e-6)

let qcheck_jv_within_3 =
  QCheck.Test.make ~name:"Jain-Vazirani within 3x optimum" ~count:40
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = random_flp rng n in
      let c = Flp.cost inst (Jain_vazirani.solve inst) in
      c <= (3.0 *. Exact.opt_cost inst) +. 1e-6)

(* ---------- one distance order: the seed's per-call sorts as oracles ----------

   Mettu-Plaxton and Greedy sorted each distance row per call; they now
   walk [Metric.order]. The seed code stays here as the oracle, run on
   tie-heavy integer-weight metrics and on geometric ones, all with
   integer demands (request counts, as every caller passes). *)

let seed_mp_radius inst v =
  let n = Flp.size inst in
  let pairs = Array.init n (fun j -> (Metric.d inst.Flp.metric v j, inst.Flp.demand.(j))) in
  Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
  let f = inst.Flp.opening.(v) in
  if f = 0.0 then 0.0
  else begin
    let rec go idx paid slope last_d =
      if idx >= n then if slope > 0.0 then last_d +. ((f -. paid) /. slope) else infinity
      else begin
        let d, w = pairs.(idx) in
        let paid' = paid +. (slope *. (d -. last_d)) in
        if paid' >= f && slope > 0.0 then last_d +. ((f -. paid) /. slope)
        else go (idx + 1) paid' (slope +. w) d
      end
    in
    go 0 0.0 0.0 0.0
  end

let seed_mp_solve inst =
  let n = Flp.size inst in
  let r = Array.init n (seed_mp_radius inst) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (r.(a), a) (r.(b), b)) order;
  let chosen = ref [] in
  Array.iter
    (fun v ->
      if inst.Flp.opening.(v) < infinity && r.(v) < infinity then begin
        let blocked =
          List.exists (fun u -> Metric.d inst.Flp.metric u v <= 2.0 *. r.(v)) !chosen
        in
        if not blocked then chosen := v :: !chosen
      end)
    order;
  if !chosen = [] then begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    chosen := [ !best ]
  end;
  List.rev !chosen

let seed_greedy_solve inst =
  let n = Flp.size inst in
  let d = Metric.d inst.Flp.metric in
  let covered = Array.make n false in
  Array.iteri (fun j dm -> if dm = 0.0 then covered.(j) <- true) inst.Flp.demand;
  let opened = Array.make n false in
  let result = ref [] in
  let sorted_clients =
    Array.init n (fun i ->
        let order = Array.init n (fun j -> j) in
        Array.sort (fun a b -> compare (d i a) (d i b)) order;
        order)
  in
  while Array.exists not covered do
    let best = ref (infinity, -1, 0.0) in
    for i = 0 to n - 1 do
      if inst.Flp.opening.(i) < infinity then begin
        let fee = if opened.(i) then 0.0 else inst.Flp.opening.(i) in
        let acc_cost = ref fee and acc_dem = ref 0.0 in
        Array.iter
          (fun j ->
            if not covered.(j) then begin
              acc_cost := !acc_cost +. (inst.Flp.demand.(j) *. d i j);
              acc_dem := !acc_dem +. inst.Flp.demand.(j);
              let eff = !acc_cost /. !acc_dem in
              let beff, _, _ = !best in
              if eff < beff then best := (eff, i, d i j)
            end)
          sorted_clients.(i)
      end
    done;
    let _, i, radius = !best in
    if not opened.(i) then begin
      opened.(i) <- true;
      result := i :: !result
    end;
    for j = 0 to n - 1 do
      if (not covered.(j)) && d i j <= radius then covered.(j) <- true
    done
  done;
  if !result = [] then begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    result := [ !best ]
  end;
  List.rev !result

(* Integer weights in [1, k] with k itself random (k = 1: all unit)
   make distance ties common; geometric graphs have almost none. At
   least one site is always open, zero and forbidden sites occur. *)
let tie_heavy_flp seed =
  let rng = Rng.create seed in
  let k = 1 + Rng.int rng 3 in
  let integer g = Wgraph.map_weights (fun _ _ _ -> float_of_int (1 + Rng.int rng k)) g in
  let g =
    match Rng.int rng 5 with
    | 0 -> integer (Gen.grid (2 + Rng.int rng 4) (2 + Rng.int rng 4))
    | 1 -> integer (Gen.hypercube (1 + Rng.int rng 4))
    | 2 -> integer (Gen.complete (2 + Rng.int rng 12))
    | 3 -> integer (Gen.star (2 + Rng.int rng 14))
    | _ -> Gen.random_geometric rng (2 + Rng.int rng 16) 0.4
  in
  let n = Wgraph.n g in
  let opening =
    Array.init n (fun _ ->
        match Rng.int rng 8 with
        | 0 -> 0.0
        | 1 -> infinity
        | 2 | 3 -> float_of_int (1 + Rng.int rng 10)
        | _ -> Rng.float_in rng 0.5 20.0)
  in
  opening.(Rng.int rng n) <- float_of_int (1 + Rng.int rng 10);
  let demand = Array.init n (fun _ -> float_of_int (Rng.int rng 5)) in
  Flp.create (Metric.of_graph g) ~opening ~demand

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck_mp_walk_matches_seed =
  QCheck.Test.make ~name:"Mettu-Plaxton order walk = seed per-call sort" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let inst = tie_heavy_flp seed in
      Array.for_all2 same_bits (Mettu_plaxton.radii inst)
        (Array.init (Flp.size inst) (seed_mp_radius inst))
      && Mettu_plaxton.solve inst = seed_mp_solve inst)

let qcheck_greedy_walk_matches_seed =
  QCheck.Test.make ~name:"Greedy order walk = seed per-call sort" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let inst = tie_heavy_flp seed in
      Greedy.solve inst = seed_greedy_solve inst)

let suite =
  [
    Alcotest.test_case "cost decomposition" `Quick cost_decomposition;
    Alcotest.test_case "solution validation" `Quick validate_checks;
    Alcotest.test_case "solvers return valid solutions" `Quick solvers_return_valid;
    Alcotest.test_case "solver quality vs optimum" `Quick solver_quality;
    Alcotest.test_case "local search local optimality" `Quick local_search_local_optimality;
    Alcotest.test_case "mettu-plaxton radius equation" `Quick mettu_plaxton_radii;
    Alcotest.test_case "jain-vazirani duals" `Quick jain_vazirani_duals;
    Alcotest.test_case "exact brute force" `Quick exact_brute_force_small;
    Alcotest.test_case "zero demand degenerate" `Quick zero_demand_instances;
    Util.qtest qcheck_mp_within_3;
    Util.qtest qcheck_jv_within_3;
    Util.qtest qcheck_mp_walk_matches_seed;
    Util.qtest qcheck_greedy_walk_matches_seed;
  ]
