open Dmn_prelude
module S = Dmn_lp.Simplex

let opt = function
  | S.Optimal { value; x } -> (value, x)
  | S.Infeasible -> Alcotest.fail "unexpectedly infeasible"
  | S.Unbounded -> Alcotest.fail "unexpectedly unbounded"

let textbook_max () =
  (* max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 -> (2, 6), 36 *)
  let v, x =
    opt
      (S.maximize ~objective:[| 3.0; 5.0 |]
         ~constraints:
           [
             ([| 1.0; 0.0 |], S.Le, 4.0);
             ([| 0.0; 2.0 |], S.Le, 12.0);
             ([| 3.0; 2.0 |], S.Le, 18.0);
           ])
  in
  Util.check_float "value" 36.0 v;
  Util.check_float "x" 2.0 x.(0);
  Util.check_float "y" 6.0 x.(1)

let min_with_ge () =
  (* min 2x + 3y s.t. x + y >= 4; x + 3y >= 6 -> (3, 1), 9 *)
  let v, x =
    opt
      (S.minimize ~objective:[| 2.0; 3.0 |]
         ~constraints:[ ([| 1.0; 1.0 |], S.Ge, 4.0); ([| 1.0; 3.0 |], S.Ge, 6.0) ])
  in
  Util.check_float "value" 9.0 v;
  Util.check_float "x" 3.0 x.(0);
  Util.check_float "y" 1.0 x.(1)

let equality_constraints () =
  (* min x + 2y s.t. x + y = 3; x - y = 1 -> (2, 1), 4 *)
  let v, _ =
    opt
      (S.minimize ~objective:[| 1.0; 2.0 |]
         ~constraints:[ ([| 1.0; 1.0 |], S.Eq, 3.0); ([| 1.0; -1.0 |], S.Eq, 1.0) ])
  in
  Util.check_float "value" 4.0 v

let negative_rhs_normalized () =
  (* min x s.t. -x <= -5  (i.e. x >= 5) *)
  let v, _ =
    opt (S.minimize ~objective:[| 1.0 |] ~constraints:[ ([| -1.0 |], S.Le, -5.0) ])
  in
  Util.check_float "value" 5.0 v

let infeasible_detected () =
  match
    S.minimize ~objective:[| 1.0 |]
      ~constraints:[ ([| 1.0 |], S.Le, 1.0); ([| 1.0 |], S.Ge, 2.0) ]
  with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "should be infeasible"

let unbounded_detected () =
  match S.maximize ~objective:[| 1.0 |] ~constraints:[ ([| -1.0 |], S.Le, 1.0) ] with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "should be unbounded"

let degenerate_no_cycle () =
  (* classic degenerate LP; Bland's rule must terminate *)
  let v, _ =
    opt
      (S.minimize
         ~objective:[| -0.75; 150.0; -0.02; 6.0 |]
         ~constraints:
           [
             ([| 0.25; -60.0; -0.04; 9.0 |], S.Le, 0.0);
             ([| 0.5; -90.0; -0.02; 3.0 |], S.Le, 0.0);
             ([| 0.0; 0.0; 1.0; 0.0 |], S.Le, 1.0);
           ])
  in
  Util.check_float "beale value" (-0.05) v

let random_lps_feasible_solutions () =
  (* random feasible LPs: check returned point satisfies constraints and
     beats a known feasible point *)
  let rng = Rng.create 141 in
  for _ = 1 to 30 do
    let nv = 2 + Rng.int rng 4 in
    let nc = 1 + Rng.int rng 5 in
    let objective = Array.init nv (fun _ -> Rng.float_in rng (-5.0) 5.0) in
    (* constraints a.x <= b with b >= 0 so x = 0 is feasible; bounded by
       adding sum x <= 10 *)
    let constraints =
      List.init nc (fun _ ->
          (Array.init nv (fun _ -> Rng.float_in rng (-3.0) 3.0), S.Le, Rng.float_in rng 0.0 10.0))
      @ [ (Array.make nv 1.0, S.Le, 10.0) ]
    in
    match S.minimize ~objective ~constraints with
    | S.Optimal { value; x } ->
        List.iter
          (fun (row, _, rhs) ->
            let lhs = ref 0.0 in
            Array.iteri (fun j c -> lhs := !lhs +. (c *. x.(j))) row;
            Util.check_leq "constraint satisfied" !lhs (rhs +. 1e-6))
          constraints;
        Array.iter (fun v -> Util.check_leq "nonneg" 0.0 (v +. 1e-9)) x;
        Util.check_leq "at least as good as x=0" value 1e-9
    | S.Infeasible -> Alcotest.fail "x=0 is feasible"
    | S.Unbounded -> Alcotest.fail "sum bound prevents unboundedness"
  done

let sta_lp_lower_bounds_ip () =
  let rng = Rng.create 142 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 6 in
    let g = Dmn_graph.Gen.erdos_renyi rng n 0.4 in
    let m = Dmn_paths.Metric.of_graph g in
    let opening = Array.init n (fun _ -> Rng.float_in rng 1.0 12.0) in
    let demand = Array.init n (fun _ -> float_of_int (Rng.int rng 5)) in
    let inst = Dmn_facility.Flp.create m ~opening ~demand in
    let lp = Dmn_facility.Sta.lp_value inst in
    let ip = Dmn_facility.Exact.opt_cost inst in
    Util.check_leq "LP <= IP" lp (ip +. 1e-6)
  done

let sta_rounding_within_factor () =
  let rng = Rng.create 143 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 6 in
    let g = Dmn_graph.Gen.erdos_renyi rng n 0.4 in
    let m = Dmn_paths.Metric.of_graph g in
    let opening = Array.init n (fun _ -> Rng.float_in rng 1.0 12.0) in
    let demand = Array.init n (fun _ -> float_of_int (Rng.int rng 5)) in
    let inst = Dmn_facility.Flp.create m ~opening ~demand in
    let opens = Dmn_facility.Sta.solve inst in
    (match Dmn_facility.Flp.validate inst opens with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid: %s" e);
    let c = Dmn_facility.Flp.cost inst opens in
    let opt = Dmn_facility.Exact.opt_cost inst in
    Util.check_leq "STA within factor 4" c ((4.0 *. opt) +. 1e-6)
  done

let sta_in_pipeline () =
  (* STA as phase 1 of the paper's algorithm still yields a proper
     placement *)
  let rng = Rng.create 144 in
  let inst = Util.random_graph_instance rng 10 in
  if Dmn_core.Instance.total_requests inst ~x:0 > 0 then begin
    let flp = Dmn_core.Instance.related_flp inst ~x:0 in
    let phase1 = Dmn_facility.Sta.solve flp in
    let radii = Dmn_core.Radii.compute inst ~x:0 in
    let config = Dmn_core.Approx.default_config in
    let copies =
      Dmn_core.Approx.phase3 ~config inst radii
        (Dmn_core.Approx.phase2 ~config inst ~x:0 radii phase1)
    in
    Alcotest.(check bool) "proper" true
      (Dmn_core.Proper.is_proper inst ~x:0 ~k1:29.0 ~k2:2.0 radii copies)
  end

let suite =
  [
    Alcotest.test_case "textbook maximization" `Quick textbook_max;
    Alcotest.test_case "minimization with >=" `Quick min_with_ge;
    Alcotest.test_case "equality constraints" `Quick equality_constraints;
    Alcotest.test_case "negative rhs" `Quick negative_rhs_normalized;
    Alcotest.test_case "infeasible" `Quick infeasible_detected;
    Alcotest.test_case "unbounded" `Quick unbounded_detected;
    Alcotest.test_case "degenerate (Beale)" `Quick degenerate_no_cycle;
    Alcotest.test_case "random LPs" `Quick random_lps_feasible_solutions;
    Alcotest.test_case "FLP relaxation lower-bounds IP" `Quick sta_lp_lower_bounds_ip;
    Alcotest.test_case "STA rounding factor" `Quick sta_rounding_within_factor;
    Alcotest.test_case "STA in the pipeline" `Quick sta_in_pipeline;
  ]
