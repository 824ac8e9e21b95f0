(* Experiment harness.

   The paper (SPAA 2001) is purely theoretical -- it has no tables or
   figures. DESIGN.md therefore defines the empirical validation suite
   E1..E14, one experiment per theorem/lemma plus the system-level
   comparisons; this binary regenerates all of them. EXPERIMENTS.md
   records expected-vs-measured for each run.

     dune exec bench/main.exe            -- run all experiments
     dune exec bench/main.exe -- e3 e5   -- run a subset
     dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks *)

open Dmn_prelude
module I = Dmn_core.Instance
module C = Dmn_core.Cost
module A = Dmn_core.Approx
module E = Dmn_core.Exact

let section title =
  Printf.printf "\n=== %s ===\n\n" title

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* a fresh directory path; the code under test creates it *)
let temp_dir =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* E1: Theorem 7 -- constant-factor approximation on general networks  *)
(* ------------------------------------------------------------------ *)

let topologies rng n =
  [
    ("tree", Dmn_graph.Gen.random_tree rng n);
    ("ring", Dmn_graph.Gen.ring n);
    ("grid", Dmn_graph.Gen.grid 2 (n / 2));
    ("er", Dmn_graph.Gen.erdos_renyi rng n 0.35);
    ("geometric", Dmn_graph.Gen.random_geometric rng n 0.4);
    ("clustered", Dmn_graph.Gen.clustered rng ~clusters:2 ~per_cluster:(n / 2));
  ]

let e1 () =
  section "E1  approximation quality vs exhaustive optimum (Theorem 7)";
  print_endline
    "Ratio of the 3-phase algorithm's cost (its own MST-update policy)\n\
     to the exhaustive optimum; 12 seeds per topology, n = 10, mixed\n\
     read/write workload. The proven bound is a (large) constant; the\n\
     empirical ratios should sit far below it and never under 1.";
  let n = 10 in
  let tbl =
    Tbl.create [ "topology"; "ratio vs OPT(mst)"; "max"; "ratio vs OPT(steiner)"; "max " ]
  in
  List.iter
    (fun topo_name ->
      (* each seed draws a fresh rng, so the exhaustive-optimum loop fans
         out over the pool with unchanged results *)
      let per_seed =
        Pool.parallel_init (Pool.default ()) 12 (fun i ->
            let seed = i + 1 in
            let rng = Rng.create (seed * 7919) in
            let g = List.assoc topo_name (topologies rng n) in
            let nn = Dmn_graph.Wgraph.n g in
            let cs = Array.init nn (fun _ -> Rng.float_in rng 2.0 20.0) in
            let { Dmn_workload.Freq.fr; fw } =
              Dmn_workload.Freq.mix rng ~objects:1 ~n:nn ~total:(5 * nn) ~write_fraction:0.25
            in
            let inst = I.of_graph g ~cs ~fr ~fw in
            if I.total_requests inst ~x:0 > 0 then begin
              let copies = A.place_object inst ~x:0 in
              let cost = C.total_mst inst ~x:0 copies in
              let _, opt_mst = E.opt_mst inst ~x:0 in
              let _, opt_exact = E.opt_exact inst ~x:0 in
              Some (cost /. opt_mst, cost /. opt_exact)
            end
            else None)
      in
      let pairs = Array.to_list per_seed |> List.filter_map Fun.id in
      let a = Array.of_list (List.map fst pairs) and b = Array.of_list (List.map snd pairs) in
      Tbl.add_row tbl
        [
          topo_name; Tbl.fl2 (Stats.mean a); Tbl.fl2 (Stats.max a); Tbl.fl2 (Stats.mean b);
          Tbl.fl2 (Stats.max b);
        ])
    [ "tree"; "ring"; "grid"; "er"; "geometric"; "clustered" ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E2: Theorem 13 -- tree DP optimality and running-time scaling       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  tree DP: optimality and running time (Theorem 13)";
  print_endline
    "Part A: the DP must equal the exhaustive tree optimum (100 random\n\
     instances, n <= 12). Part B: running time against the paper's\n\
     O(|V| * diam * log deg) prediction; the normalized column should\n\
     stay roughly flat within a topology family.";
  (* part A *)
  let matches = ref 0 and total = ref 0 in
  let rng = Rng.create 1009 in
  for _ = 1 to 100 do
    let n = 2 + Rng.int rng 11 in
    let g = Dmn_graph.Gen.random_tree rng n in
    let cs = Array.init n (fun _ -> Rng.float_in rng 0.5 25.0) in
    let { Dmn_workload.Freq.fr; fw } =
      Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(4 * n) ~write_fraction:0.3
    in
    let inst = I.of_graph g ~cs ~fr ~fw in
    if I.total_requests inst ~x:0 > 0 then begin
      incr total;
      let _, dp = Dmn_tree.Tree_solver.place_object inst ~x:0 in
      let _, opt = Dmn_tree.Tree_exact.opt inst ~x:0 ~root:0 in
      if Floatx.approx ~tol:1e-6 dp opt then incr matches
    end
  done;
  Printf.printf "optimality: %d / %d instances match the brute force exactly\n\n" !matches !total;
  (* part B *)
  let tbl = Tbl.create [ "family"; "n"; "diam"; "deg"; "time ms"; "ms / (n diam log deg)" ] in
  let sizes = [ 64; 128; 256; 512 ] in
  let families =
    [
      ("random", (fun rng n -> Dmn_graph.Gen.random_tree rng n), sizes);
      ("caterpillar", (fun rng n -> Dmn_graph.Gen.caterpillar rng n), sizes);
      ( "8ary-tree",
        (fun _ depth -> Dmn_graph.Gen.balanced_tree ~arity:8 ~depth),
        [ 1; 2; 3 ] );
    ]
  in
  List.iter
    (fun (fam, build, sizes) ->
      List.iter
        (fun n ->
          let rng = Rng.create (n + 17) in
          let g = build rng n in
          let nn = Dmn_graph.Wgraph.n g in
          let cs = Array.init nn (fun _ -> Rng.float_in rng 1.0 20.0) in
          let { Dmn_workload.Freq.fr; fw } =
            Dmn_workload.Freq.mix rng ~objects:1 ~n:nn ~total:(4 * nn) ~write_fraction:0.3
          in
          let inst = I.of_graph g ~cs ~fr ~fw in
          let _, dt = time_it (fun () -> Dmn_tree.Tree_solver.place_object inst ~x:0) in
          let diam = Dmn_graph.Wgraph.unweighted_diameter g in
          let deg = Dmn_graph.Wgraph.max_degree g in
          let norm =
            1000.0 *. dt
            /. (float_of_int nn *. float_of_int diam *. Float.log (float_of_int (max 2 deg)))
          in
          Tbl.add_row tbl
            [
              fam; string_of_int nn; string_of_int diam; string_of_int deg;
              Tbl.fl2 (1000.0 *. dt); Printf.sprintf "%.5f" norm;
            ])
        sizes)
    families;
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E3: cost vs read/write mix -- strategy crossover                    *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  strategy crossover over the read/write mix";
  print_endline
    "5x5 mesh, 200 requests, write share swept 0 -> 1. Full replication\n\
     must win for read-only, a single copy for write-only, with the\n\
     paper's algorithm tracking the best of both (cf. Section 1).";
  let rows = 5 and cols = 5 in
  let g = Dmn_graph.Gen.grid rows cols in
  let n = rows * cols in
  let tbl =
    Tbl.create [ "write frac"; "single"; "full"; "greedy-add"; "krw"; "krw copies"; "winner" ]
  in
  List.iter
    (fun wf ->
      let rng = Rng.create 4242 in
      let cs = Array.make n 3.0 in
      let { Dmn_workload.Freq.fr; fw } =
        Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(8 * n) ~write_fraction:wf
      in
      let inst = I.of_graph g ~cs ~fr ~fw in
      let eval copies = C.total_mst inst ~x:0 copies in
      let single = eval (Dmn_baselines.Naive.best_single inst ~x:0) in
      let full = eval (Dmn_baselines.Naive.full_replication inst ~x:0) in
      let greedy = eval (Dmn_baselines.Greedy_place.add inst ~x:0) in
      let krw_copies = A.place_object inst ~x:0 in
      let krw = eval krw_copies in
      let winner =
        List.sort compare
          [ (single, "single"); (full, "full"); (greedy, "greedy"); (krw, "krw") ]
        |> List.hd |> snd
      in
      Tbl.add_row tbl
        [
          Printf.sprintf "%.2f" wf; Tbl.fl2 single; Tbl.fl2 full; Tbl.fl2 greedy; Tbl.fl2 krw;
          string_of_int (List.length krw_copies); winner;
        ])
    [ 0.0; 0.05; 0.1; 0.2; 0.35; 0.5; 0.75; 1.0 ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E4: replication degree vs storage price                             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  replication degree vs storage fee scale";
  print_endline
    "Same workload, storage fees scaled by powers of two. Replicas must\n\
     decrease monotonically (modulo algorithm constants) as memory gets\n\
     more expensive; the trade-off the storage radius captures.";
  let n = 30 in
  let rng0 = Rng.create 31337 in
  let g = Dmn_graph.Gen.random_geometric rng0 n 0.35 in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng0 ~objects:1 ~n ~total:(10 * n) ~write_fraction:0.1
  in
  let tbl = Tbl.create [ "storage scale"; "krw replicas"; "storage"; "read"; "update"; "total" ] in
  List.iter
    (fun scale ->
      let cs = Array.make n (0.25 *. scale) in
      let inst = I.of_graph g ~cs ~fr ~fw in
      let copies = A.place_object inst ~x:0 in
      let b = C.eval_mst inst ~x:0 copies in
      Tbl.add_row tbl
        [
          Tbl.fl scale; string_of_int (List.length copies); Tbl.fl2 b.C.storage;
          Tbl.fl2 b.C.read; Tbl.fl2 b.C.update; Tbl.fl2 (C.total b);
        ])
    [ 0.25; 1.0; 4.0; 16.0; 64.0; 256.0 ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E5: phase-1 facility-location solver comparison (Lemma 9)           *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  phase-1 FLP solver comparison (Lemma 9: factor f is parametric)";
  print_endline
    "Final pipeline cost and time per phase-1 solver on a 48-node\n\
     clustered network (8 objects, Zipf reads). Also each solver's raw\n\
     FLP quality vs the exhaustive FLP optimum on n = 12 instances.";
  let rng = Rng.create 999 in
  let inst = Dmn_workload.Scenario.web_cdn rng ~clusters:6 ~per_cluster:8 ~objects:8 in
  let tbl = Tbl.create [ "solver"; "pipeline cost"; "time ms"; "flp quality (n=12)" ] in
  let flp_quality solver =
    let ratios = ref [] in
    for seed = 1 to 10 do
      let rng = Rng.create (seed * 31) in
      let g = Dmn_graph.Gen.erdos_renyi rng 12 0.3 in
      let m = Dmn_paths.Metric.of_graph g in
      let opening = Array.init 12 (fun _ -> Rng.float_in rng 1.0 15.0) in
      let demand = Array.init 12 (fun _ -> float_of_int (Rng.int rng 6)) in
      let flp = Dmn_facility.Flp.create m ~opening ~demand in
      let opens = A.flp_solve solver flp in
      let opt = Dmn_facility.Exact.opt_cost flp in
      if opt > 0.0 then ratios := (Dmn_facility.Flp.cost flp opens /. opt) :: !ratios
    done;
    Stats.mean (Array.of_list !ratios)
  in
  List.iter
    (fun solver ->
      let config = { A.default_config with A.solver } in
      (* the dense LP of the STA solver is capped at n = 40; report its
         pipeline on the 48-node instance as n/a *)
      let cost, time =
        match time_it (fun () -> A.solve ~config inst) with
        | p, dt -> (Tbl.fl2 (C.total (C.placement_mst inst p)), Tbl.fl2 (1000.0 *. dt))
        | exception Invalid_argument _ -> ("n/a", "n/a")
      in
      Tbl.add_row tbl [ A.solver_name solver; cost; time; Tbl.fl2 (flp_quality solver) ])
    [ A.Mettu_plaxton; A.Jain_vazirani; A.Local_search; A.Greedy; A.Sta_lp ];
  Tbl.print tbl;
  (* STA's pipeline on an instance within its LP cap *)
  let small = Dmn_workload.Scenario.web_cdn (Rng.create 999) ~clusters:4 ~per_cluster:6 ~objects:4 in
  let tbl2 = Tbl.create [ "solver (n=24 pipeline)"; "cost"; "time ms" ] in
  List.iter
    (fun solver ->
      let config = { A.default_config with A.solver } in
      let p, dt = time_it (fun () -> A.solve ~config small) in
      Tbl.add_row tbl2
        [ A.solver_name solver; Tbl.fl2 (C.total (C.placement_mst small p)); Tbl.fl2 (1000.0 *. dt) ])
    [ A.Mettu_plaxton; A.Sta_lp ];
  Tbl.print tbl2

(* ------------------------------------------------------------------ *)
(* E6: Lemma 1 -- restricted placements lose at most a factor 4        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  restricted-placement gap (Lemma 1: C^OPT_W <= 4 C^OPT)";
  print_endline
    "Exhaustive restricted optimum (shared MST multicast, every copy\n\
     serves >= W requests) vs exhaustive unrestricted optimum (per-write\n\
     Steiner trees), 40 random instances, n in 5..8.";
  let ratios = ref [] in
  let rng = Rng.create 313 in
  for _ = 1 to 40 do
    let n = 5 + Rng.int rng 4 in
    let g = Dmn_graph.Gen.erdos_renyi rng n 0.4 in
    let cs = Array.init n (fun _ -> Rng.float_in rng 1.0 15.0) in
    let { Dmn_workload.Freq.fr; fw } =
      Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(4 * n) ~write_fraction:0.35
    in
    let inst = I.of_graph g ~cs ~fr ~fw in
    if I.total_requests inst ~x:0 > 0 then begin
      let _, opt = E.opt_exact inst ~x:0 in
      let _, opt_w = E.opt_restricted inst ~x:0 in
      if opt > 0.0 then ratios := (opt_w /. opt) :: !ratios
    end
  done;
  let a = Array.of_list !ratios in
  let tbl = Tbl.create [ "instances"; "mean ratio"; "p95"; "max"; "bound" ] in
  Tbl.add_row tbl
    [
      string_of_int (Array.length a); Tbl.fl2 (Stats.mean a); Tbl.fl2 (Stats.percentile a 95.0);
      Tbl.fl2 (Stats.max a); "4.00";
    ];
  Tbl.print tbl;
  if Stats.max a > 4.0 +. 1e-6 then print_endline "!! LEMMA 1 BOUND VIOLATED"

(* ------------------------------------------------------------------ *)
(* E7: polynomial running time of the full pipeline                    *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  pipeline running time vs network size";
  print_endline
    "Wall-clock per object on clustered networks (Mettu-Plaxton phase\n\
     1). Doubling n should scale time polynomially (the closure column\n\
     is instance construction: the metric closure and its distance\n\
     order, the n^2 log n floor; radii and Mettu-Plaxton then walk that\n\
     order in O(n^2)).";
  let tbl = Tbl.create [ "n"; "closure ms"; "place ms"; "total ms"; "copies" ] in
  List.iter
    (fun n ->
      let rng = Rng.create (n * 13) in
      let g = Dmn_graph.Gen.clustered rng ~clusters:(n / 10) ~per_cluster:10 in
      let nn = Dmn_graph.Wgraph.n g in
      let cs = Array.init nn (fun _ -> Rng.float_in rng 3.0 20.0) in
      let { Dmn_workload.Freq.fr; fw } =
        Dmn_workload.Freq.mix rng ~objects:1 ~n:nn ~total:(5 * nn) ~write_fraction:0.2
      in
      let (inst, closure_ms), _ =
        time_it (fun () ->
            let (i, dt) = time_it (fun () -> I.of_graph g ~cs ~fr ~fw) in
            (i, 1000.0 *. dt))
      in
      let copies, dt = time_it (fun () -> A.place_object inst ~x:0) in
      Tbl.add_row tbl
        [
          string_of_int nn; Tbl.fl2 closure_ms; Tbl.fl2 (1000.0 *. dt);
          Tbl.fl2 (closure_ms +. (1000.0 *. dt)); string_of_int (List.length copies);
        ])
    [ 50; 100; 200; 400; 800 ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E8: ablation of phases 2 and 3 (Lemma 8)                            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  phase ablation (Lemma 8: phases 2/3 establish properness)";
  print_endline
    "Dropping phase 3 must break property 2 (copies too close); phase 2\n\
     guards property 1 against weak phase-1 solutions in the worst\n\
     case. 30 random 14-node instances; violations counted with the\n\
     paper's constants k1 = 29, k2 = 2.";
  let base solver = { A.default_config with A.solver } in
  let variants =
    [
      ("full pipeline (mp)", base A.Mettu_plaxton);
      ("no phase 2 (mp)", { (base A.Mettu_plaxton) with A.run_phase2 = false });
      ("no phase 3 (mp)", { (base A.Mettu_plaxton) with A.run_phase3 = false });
      ("phase 1 only (mp)", { (base A.Mettu_plaxton) with A.run_phase2 = false; run_phase3 = false });
      ("full pipeline (greedy)", base A.Greedy);
      ("phase 1 only (greedy)", { (base A.Greedy) with A.run_phase2 = false; run_phase3 = false });
      ("full pipeline (trivial)", base A.Trivial);
      ("no phase 2 (trivial)", { (base A.Trivial) with A.run_phase2 = false });
    ]
  in
  let tbl =
    Tbl.create
      [ "variant"; "mean cost"; "prop-1 viols"; "prop-2 viols"; "mean copies"; "p2 added"; "p3 removed" ]
  in
  List.iter
    (fun (name, config) ->
      let costs = ref [] and v1 = ref 0 and v2 = ref 0 and copies_n = ref [] in
      let p2_added = ref 0 and p3_removed = ref 0 in
      for seed = 1 to 30 do
        let rng = Rng.create (seed * 101) in
        let n = 14 in
        let g = Dmn_graph.Gen.erdos_renyi rng n 0.3 in
        let cs = Array.init n (fun _ -> Rng.float_in rng 2.0 20.0) in
        let { Dmn_workload.Freq.fr; fw } =
          Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(5 * n) ~write_fraction:0.25
        in
        let inst = I.of_graph g ~cs ~fr ~fw in
        if I.total_requests inst ~x:0 > 0 then begin
          let radii = Dmn_core.Radii.compute inst ~x:0 in
          let after1 = A.phase1 ~config inst ~x:0 in
          let after2 =
            if config.A.run_phase2 then A.phase2 ~config inst ~x:0 radii after1 else after1
          in
          let copies =
            if config.A.run_phase3 then A.phase3 ~config inst radii after2 else after2
          in
          let copies = List.sort_uniq compare copies in
          p2_added := !p2_added + (List.length after2 - List.length after1);
          p3_removed := !p3_removed + (List.length after2 - List.length copies);
          costs := C.total_mst inst ~x:0 copies :: !costs;
          copies_n := float_of_int (List.length copies) :: !copies_n;
          List.iter
            (function
              | Dmn_core.Proper.Too_far _ -> incr v1
              | Dmn_core.Proper.Too_close _ -> incr v2)
            (Dmn_core.Proper.violations inst ~x:0 ~k1:29.0 ~k2:2.0 radii copies)
        end
      done;
      Tbl.add_row tbl
        [
          name;
          Tbl.fl2 (Stats.mean (Array.of_list !costs));
          string_of_int !v1;
          string_of_int !v2;
          Tbl.fl2 (Stats.mean (Array.of_list !copies_n));
          string_of_int !p2_added;
          string_of_int !p3_removed;
        ])
    variants;
  Tbl.print tbl;
  print_endline
    "\nWith a constant-factor phase-1 solver property 1 already holds\n\
     after phase 1 on random instances -- phase 2 is the worst-case\n\
     safety net Lemma 8 needs, not the common path. Phase 3 is what\n\
     carries the cost reduction (it prunes redundant replicas whose\n\
     updates would dominate)."

(* ------------------------------------------------------------------ *)
(* E9: the total-communication-load model as a special case            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  total-load model (cs = 0, ct = 1/bandwidth) as special case";
  print_endline
    "With free storage the cost model reduces to the total\n\
     communication load (Section 1). On trees we compare against the\n\
     exact tree optimum; on general networks against the exhaustive\n\
     MST-policy optimum (n = 10).";
  let tbl = Tbl.create [ "network"; "krw"; "optimum"; "ratio" ] in
  (* trees: Maggs et al. claim optimal total load on trees; our tree DP
     provides the reference *)
  let rng = Rng.create 777 in
  for i = 1 to 4 do
    let n = 16 in
    let g = Dmn_graph.Gen.random_tree rng n in
    let g = Dmn_graph.Wgraph.map_weights (fun _ _ _ -> 1.0 /. Rng.float_in rng 1.0 10.0) g in
    let cs = Array.make n 0.0 in
    let { Dmn_workload.Freq.fr; fw } =
      Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(5 * n) ~write_fraction:0.2
    in
    let inst = I.of_graph g ~cs ~fr ~fw in
    let copies = A.place_object inst ~x:0 in
    let krw = C.total (C.eval_exact inst ~x:0 copies) in
    let _, opt = Dmn_tree.Tree_solver.place_object inst ~x:0 in
    Tbl.add_row tbl
      [
        Printf.sprintf "tree-%d (n=%d)" i n; Tbl.fl2 krw; Tbl.fl2 opt;
        Tbl.fl2 (if opt > 0.0 then krw /. opt else 1.0);
      ]
  done;
  for i = 1 to 4 do
    let n = 10 in
    let inst = Dmn_workload.Scenario.total_load rng ~n ~objects:1 in
    let copies = A.place_object inst ~x:0 in
    let krw = C.total_mst inst ~x:0 copies in
    let _, opt = E.opt_mst inst ~x:0 in
    Tbl.add_row tbl
      [
        Printf.sprintf "general-%d (n=%d)" i n; Tbl.fl2 krw; Tbl.fl2 opt;
        Tbl.fl2 (if opt > 0.0 then krw /. opt else 1.0);
      ]
  done;
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E10: the non-uniform cost model (per-object storage/link scales)    *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  non-uniform object costs (Section 1.1's non-uniform claim)";
  print_endline
    "One workload, object cost profiles scaled per object via\n\
     Instance.scale_object. Uniform scaling must not move the optimum\n\
     (costs rescale linearly); skewing storage against transmission\n\
     must move the replica count the right way. n = 12, exhaustive\n\
     optima.";
  let rng = Rng.create 2025 in
  let n = 12 in
  let g = Dmn_graph.Gen.erdos_renyi rng n 0.35 in
  let cs = Array.init n (fun _ -> Rng.float_in rng 2.0 8.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(6 * n) ~write_fraction:0.15
  in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let tbl =
    Tbl.create [ "storage x"; "transmission x"; "opt replicas"; "opt cost"; "krw replicas"; "krw cost" ]
  in
  List.iter
    (fun (s, t) ->
      let scaled = I.scale_object inst ~x:0 ~storage:s ~transmission:t in
      let copies_opt, opt = E.opt_mst scaled ~x:0 in
      let copies_krw = A.place_object scaled ~x:0 in
      let krw = C.total_mst scaled ~x:0 copies_krw in
      Tbl.add_row tbl
        [
          Tbl.fl s; Tbl.fl t; string_of_int (List.length copies_opt); Tbl.fl2 opt;
          string_of_int (List.length copies_krw); Tbl.fl2 krw;
        ])
    [ (1.0, 1.0); (5.0, 5.0); (0.1, 1.0); (10.0, 1.0); (1.0, 0.1); (1.0, 10.0) ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E11: edge-load and congestion profile of the placements             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11  load profile: total weighted load and congestion analogue";
  print_endline
    "Per-edge routed loads of each strategy on a 40-node clustered\n\
     network (4 objects). Total weighted load equals the communication\n\
     part of the cost (identity tested in the suite); max weighted load\n\
     is the congestion analogue of Maggs et al.";
  let rng = Rng.create 404 in
  let inst = Dmn_workload.Scenario.web_cdn rng ~clusters:5 ~per_cluster:8 ~objects:4 in
  let tbl = Tbl.create [ "strategy"; "total weighted load"; "max edge load"; "storage"; "total cost" ] in
  let show name p =
    let profile = Dmn_loadmodel.Net_load.of_placement inst p in
    let b = C.placement_mst inst p in
    Tbl.add_row tbl
      [
        name;
        Tbl.fl2 profile.Dmn_loadmodel.Net_load.total_weighted;
        Tbl.fl2 profile.Dmn_loadmodel.Net_load.max_weighted;
        Tbl.fl2 b.C.storage;
        Tbl.fl2 (C.total b);
      ]
  in
  show "krw" (A.solve inst);
  show "single" (Dmn_baselines.Naive.solve Dmn_baselines.Naive.best_single inst);
  show "full" (Dmn_baselines.Naive.solve Dmn_baselines.Naive.full_replication inst);
  show "greedy-add" (Dmn_baselines.Naive.solve (fun i ~x -> Dmn_baselines.Greedy_place.add i ~x) inst);
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E12: static placement vs online adaptation                          *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12  static vs dynamic strategies (extension)";
  print_endline
    "Mean total cost over 8 seeded runs on 20-node geometric networks.\n\
     Stationary streams are drawn from the same frequencies the static\n\
     planner used; drifting streams move a hotspot the planner never\n\
     saw. Static must win the former and lose the latter.";
  let tbl =
    Tbl.create
      [ "stream"; "static (krw)"; "migrating owner"; "threshold caching"; "winner"; "caching vs clairvoyant" ]
  in
  List.iter
    (fun drift ->
      let totals = Array.make 3 0.0 in
      let ratios = ref [] in
      for seed = 1 to 8 do
        let rng = Dmn_prelude.Rng.create (seed * 37) in
        let n = 20 in
        let g = Dmn_graph.Gen.random_geometric rng n 0.4 in
        let cs = Array.make n 2.5 in
        let { Dmn_workload.Freq.fr; fw } =
          Dmn_workload.Freq.zipf rng ~objects:1 ~n ~requests:(10 * n) ~s:1.0 ~write_ratio:0.15
        in
        let inst = I.of_graph g ~cs ~fr ~fw in
        let placement = A.solve inst in
        let volume = 60 * n in
        let events =
          if drift then
            Dmn_dynamic.Stream.drifting (Dmn_prelude.Rng.create seed) inst ~phases:8
              ~phase_length:(volume / 8) ~write_fraction:0.15
          else Dmn_dynamic.Stream.stationary (Dmn_prelude.Rng.create seed) inst ~length:volume
        in
        List.iteri
          (fun i strat ->
            let r = Dmn_dynamic.Sim.run inst strat events in
            totals.(i) <- totals.(i) +. r.Dmn_dynamic.Sim.total)
          [
            Dmn_dynamic.Strategy.static inst placement;
            Dmn_dynamic.Strategy.migrating_owner inst;
            Dmn_dynamic.Strategy.threshold_caching inst;
          ];
        ratios :=
          Dmn_dynamic.Sim.competitive_ratio inst
            (Dmn_dynamic.Strategy.threshold_caching inst)
            events ~phase_length:(volume / 8)
          :: !ratios
      done;
      let names = [| "static"; "owner"; "caching" |] in
      let winner = ref 0 in
      for i = 1 to 2 do
        if totals.(i) < totals.(!winner) then winner := i
      done;
      Tbl.add_row tbl
        [
          (if drift then "drifting" else "stationary");
          Tbl.fl2 (totals.(0) /. 8.0); Tbl.fl2 (totals.(1) /. 8.0); Tbl.fl2 (totals.(2) /. 8.0);
          names.(!winner);
          Tbl.fl2 (Stats.mean (Array.of_list !ratios));
        ])
    [ false; true ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E13: capacitated placement (Baev-Rajaraman comparator model)        *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13  capacitated placement (Baev-Rajaraman related-work model)";
  print_endline
    "Read-only objects competing for per-node memory slots. As capacity\n\
     shrinks, objects can no longer all sit at their preferred nodes:\n\
     cost rises monotonically toward the feasibility limit. The local\n\
     search is sandwiched between the LP lower bound and greedy.";
  let rng = Rng.create 606 in
  let n = 10 and objects = 5 in
  let g = Dmn_graph.Gen.erdos_renyi rng n 0.35 in
  let cs = Array.init n (fun _ -> Rng.float_in rng 0.5 4.0) in
  let fr = Array.init objects (fun _ -> Array.init n (fun _ -> Rng.int rng 5)) in
  let fw = Array.init objects (fun _ -> Array.make n 0) in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let tbl = Tbl.create [ "capacity/node"; "LP bound"; "local search"; "greedy"; "replicas" ] in
  List.iter
    (fun cap ->
      let t = Dmn_cap.Capplace.create inst ~capacity:(Array.make n cap) in
      let lp = Dmn_cap.Capplace.lp_bound t in
      let local = Dmn_cap.Capplace.local_search t in
      let greedy = Dmn_cap.Capplace.greedy t in
      let replicas = ref 0 in
      for x = 0 to objects - 1 do
        replicas := !replicas + Dmn_core.Placement.copy_count local ~x
      done;
      Tbl.add_row tbl
        [
          string_of_int cap;
          Tbl.fl2 lp;
          Tbl.fl2 (Dmn_cap.Capplace.cost t local);
          Tbl.fl2 (Dmn_cap.Capplace.cost t greedy);
          string_of_int !replicas;
        ])
    [ 5; 3; 2; 1 ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E14: sensitivity to the paper's phase constants (5 and 4)           *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  sensitivity to the phase constants (paper: 5 and 4)";
  print_endline
    "The paper fixes phase 2's storage-radius factor at 5 and phase 3's\n\
     write-radius factor at 4 (giving k1 = 29, k2 = 2). Sweeping them\n\
     shows the trade-off the proof balances: small phase-3 factors keep\n\
     too many replicas (update-heavy), large ones over-prune\n\
     (read-heavy). Mean cost over 25 instances (n = 12), normalized by\n\
     the exhaustive MST-policy optimum.";
  let tbl = Tbl.create [ "phase2 factor"; "phase3 factor"; "mean ratio"; "max ratio"; "mean copies" ] in
  List.iter
    (fun (p2, p3) ->
      (* fresh rng per seed: exhaustive loop parallelizes unchanged *)
      let per_seed =
        Pool.parallel_init (Pool.default ()) 25 (fun i ->
            let seed = i + 1 in
            let rng = Rng.create (seed * 211) in
            let n = 12 in
            let g = Dmn_graph.Gen.erdos_renyi rng n 0.3 in
            let cs = Array.init n (fun _ -> Rng.float_in rng 2.0 20.0) in
            let { Dmn_workload.Freq.fr; fw } =
              Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(5 * n) ~write_fraction:0.25
            in
            let inst = I.of_graph g ~cs ~fr ~fw in
            if I.total_requests inst ~x:0 > 0 then begin
              let config = { A.default_config with A.phase2_factor = p2; phase3_factor = p3 } in
              let copies = A.place_object ~config inst ~x:0 in
              let _, opt = E.opt_mst inst ~x:0 in
              let ratio = if opt > 0.0 then Some (C.total_mst inst ~x:0 copies /. opt) else None in
              Some (ratio, float_of_int (List.length copies))
            end
            else None)
      in
      let rows = Array.to_list per_seed |> List.filter_map Fun.id in
      let ratios = ref (List.filter_map fst rows |> List.rev)
      and copies_n = ref (List.map snd rows |> List.rev) in
      let a = Array.of_list !ratios in
      Tbl.add_row tbl
        [
          Tbl.fl p2; Tbl.fl p3; Tbl.fl2 (Stats.mean a); Tbl.fl2 (Stats.max a);
          Tbl.fl2 (Stats.mean (Array.of_list !copies_n));
        ])
    [
      (5.0, 4.0); (5.0, 1.0); (5.0, 2.0); (5.0, 8.0); (5.0, 16.0);
      (1.0, 4.0); (2.0, 4.0); (10.0, 4.0); (20.0, 4.0);
    ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* E15: certified ratio bounds beyond exhaustive reach                 *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15  certified approximation bounds at n = 40 (LP lower bound)";
  print_endline
    "The LP relaxation of the related facility location problem lower-\n\
     bounds the data-management optimum (update cost is a nonnegative\n\
     extra), so cost / LP certifies an upper bound on the true ratio at\n\
     sizes exhaustive search cannot reach. 8 seeds, n = 40 geometric\n\
     networks (4 seeds). The certified bound is loose exactly when updates\n\
     dominate, so both a read-heavy and a balanced mix are shown.";
  let tbl = Tbl.create [ "write frac"; "mean certified ratio"; "max"; "mean copies" ] in
  List.iter
    (fun wf ->
      let ratios = ref [] and copies_n = ref [] in
      for seed = 1 to 4 do
        let rng = Rng.create (seed * 47) in
        let n = 40 in
        let g = Dmn_graph.Gen.random_geometric rng n 0.3 in
        let cs = Array.init n (fun _ -> Rng.float_in rng 2.0 12.0) in
        let { Dmn_workload.Freq.fr; fw } =
          Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(5 * n) ~write_fraction:wf
        in
        let inst = I.of_graph g ~cs ~fr ~fw in
        if I.total_requests inst ~x:0 > 0 then begin
          let copies = A.place_object inst ~x:0 in
          let cost = C.total_mst inst ~x:0 copies in
          let lb = Dmn_facility.Sta.lp_value (I.related_flp inst ~x:0) in
          if lb > 0.0 then ratios := (cost /. lb) :: !ratios;
          copies_n := float_of_int (List.length copies) :: !copies_n
        end
      done;
      let a = Array.of_list !ratios in
      Tbl.add_row tbl
        [
          Printf.sprintf "%.2f" wf; Tbl.fl2 (Stats.mean a); Tbl.fl2 (Stats.max a);
          Tbl.fl2 (Stats.mean (Array.of_list !copies_n));
        ])
    [ 0.05; 0.25 ];
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* scale: multicore speedup + distance-order radii micro-benchmark     *)
(* ------------------------------------------------------------------ *)

(* Machine-readable perf trajectory. Records accumulate across runs:
   a run replaces only the records whose [name] it produced and keeps
   every other record already in BENCH_<name>.json. Each record it
   writes carries the cores and the git commit it ran on ("unknown"
   outside a checkout, a "-dirty" suffix when the tree has uncommitted
   changes); older records without them are stamped with the file's
   previous [cores_available] and an unknown commit. *)
let git_commit =
  lazy
    (match Unix.open_process_in "git describe --always --dirty --abbrev=7 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"))

let write_bench_json ~bench file experiments =
  let cores = Jsonx.Num (float_of_int (Domain.recommended_domain_count ())) in
  let stamp ~cores ~commit fields =
    fields
    @ List.filter (fun (k, _) -> not (List.mem_assoc k fields)) [ ("cores", cores); ("commit", commit) ]
  in
  let fresh =
    List.map
      (fun fields ->
        Jsonx.Obj
          (stamp ~cores ~commit:(Jsonx.Str (Lazy.force git_commit))
             (List.map
                (fun (k, v) ->
                  ( k,
                    match v with
                    | `S s -> Jsonx.Str s
                    | `F x -> Jsonx.Num x
                    | `I i -> Jsonx.Num (float_of_int i)
                    | `B b -> Jsonx.Bool b ))
                fields)))
      experiments
  in
  let produced = List.map (Jsonx.member "name") fresh in
  let old =
    match Jsonx.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc -> doc
    | Error _ | (exception Sys_error _) -> Jsonx.Null
  in
  let old_cores = Option.value (Jsonx.member "cores_available" old) ~default:Jsonx.Null in
  let kept =
    match Jsonx.member "experiments" old with
    | Some (Jsonx.Arr records) ->
        List.filter_map
          (function
            | Jsonx.Obj fields as r when not (List.mem (Jsonx.member "name" r) produced) ->
                Some (Jsonx.Obj (stamp ~cores:old_cores ~commit:(Jsonx.Str "unknown") fields))
            | _ -> None)
          records
    | _ -> []
  in
  Dmn_core.Serial.write_file file
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("bench", Jsonx.Str bench);
            ("cores_available", cores);
            ("experiments", Jsonx.Arr (kept @ fresh));
          ])
    ^ "\n");
  Printf.printf "\nwrote %s (%d records kept, %d written)\n" file (List.length kept)
    (List.length fresh)

let scale () =
  section "scale  batched pool: multicore speedup at production shape (tentpole PR 6)";
  print_endline
    "Part A: chunked per-object solve (trivial phase 1, so radii +\n\
     phase 2/3 dominate) at production shape; wall time per pool size,\n\
     placements asserted identical to the serial per-object map.\n\
     Part B: chunked metric closure (one Dijkstra per row) under the\n\
     same pool sizes. Part C: radii over the metric's distance order\n\
     vs the seed's O(n^2 log n) compute (one sort per node per\n\
     object). DMNET_SCALE=smoke skips the n = 2048 configurations\n\
     (CI smoke); the speedup gate applies to the largest\n\
     configuration run and hard-fails only when cores_available >= 4.";
  let records = ref [] in
  let record r = records := r :: !records in
  let cores = Domain.recommended_domain_count () in
  let smoke = Sys.getenv_opt "DMNET_SCALE" = Some "smoke" in
  (* Trivial phase 1 keeps per-object cost radii-bound (O(n^2)) and
     the parallel structure identical, so records stay comparable across
     runs. Recorded in the JSON as "solver". *)
  let config = { A.default_config with A.solver = A.Trivial } in
  let domain_counts = [ 1; 2; 4 ] in
  let build_instance ~topo ~n ~objects ~seed =
    let rng = Rng.create seed in
    let g =
      match topo with
      | "geometric" ->
          (* radius ~ 2x the connectivity threshold sqrt(ln n / (pi n)) *)
          Dmn_graph.Gen.random_geometric rng n (if n >= 2048 then 0.05 else 0.09)
      | "grid" ->
          let rows = int_of_float (sqrt (float_of_int n /. 2.0)) in
          Dmn_graph.Gen.grid rows (n / rows)
      | _ -> assert false
    in
    let nn = Dmn_graph.Wgraph.n g in
    let cs = Array.init nn (fun _ -> Rng.float_in rng 2.0 20.0) in
    let { Dmn_workload.Freq.fr; fw } =
      Dmn_workload.Freq.mix rng ~objects ~n:nn ~total:(4 * nn) ~write_fraction:0.2
    in
    (g, I.of_graph g ~cs ~fr ~fw)
  in
  (* --- A: per-object placement scaling --- *)
  let solve_configs =
    [ ("geometric", 512, 256, 90210); ("grid", 512, 256, 90211) ]
    @ (if smoke then [] else [ ("geometric", 2048, 1024, 90212) ])
  in
  let gate_times = ref None in
  List.iter
    (fun (topo, n, objects, seed) ->
      Printf.printf "building %s n=%d instance (%d objects)...\n%!" topo n objects;
      let _, inst = build_instance ~topo ~n ~objects ~seed in
      let nn = I.n inst in
      let serial, t_serial =
        time_it (fun () ->
            Dmn_core.Placement.make
              (Array.init (I.objects inst) (fun x -> A.place_object ~config inst ~x)))
      in
      let tbl = Tbl.create [ "domains"; "chunks"; "solve s"; "speedup"; "= serial" ] in
      let t1 = ref 0.0 in
      let times =
        List.map
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                Pool.reset_stats pool;
                let chunks, chunk_size = Pool.chunk_plan pool (I.objects inst) in
                let p, dt = time_it (fun () -> A.solve ~config ~pool inst) in
                let stats = Pool.stats pool in
                if domains = 1 then t1 := dt;
                let same =
                  List.init (I.objects inst) (fun x ->
                      Dmn_core.Placement.copies p ~x = Dmn_core.Placement.copies serial ~x)
                  |> List.for_all Fun.id
                in
                if not same then failwith "scale: parallel placement diverged from serial";
                let speedup = !t1 /. dt in
                Tbl.add_row tbl
                  [ string_of_int domains; string_of_int chunks; Printf.sprintf "%.4f" dt;
                    Tbl.fl2 speedup; string_of_bool same ];
                record
                  [
                    ("name", `S "solve-scaling"); ("topology", `S topo); ("n", `I nn);
                    ("objects", `I objects); ("solver", `S (A.solver_name config.A.solver));
                    ("domains", `I domains); ("chunks", `I chunks);
                    ("chunk_size", `I chunk_size); ("cores_available", `I cores);
                    ("serial_wall_s", `F t_serial); ("wall_s", `F dt);
                    ("speedup_vs_1_domain", `F speedup); ("matches_serial", `B same);
                    ("pool_chunks_claimed", `I stats.Pool.chunks_claimed);
                    ("pool_tasks_run", `I stats.Pool.tasks_run);
                  ];
                dt))
          domain_counts
      in
      (* every config overwrites: the last (largest) one feeds the gate *)
      (match times with
      | [ a; b; c ] -> gate_times := Some (topo, nn, objects, a, b, c)
      | _ -> assert false);
      Tbl.print tbl)
    solve_configs;
  (* --- speedup gate on the largest configuration run --- *)
  (match !gate_times with
  | None -> ()
  | Some (topo, n, objects, t1, t2, t4) ->
      let s2 = t1 /. t2 and s4 = t1 /. t4 in
      let enforced = cores >= 4 in
      let pass = s2 >= 1.2 && s4 >= 2.0 in
      record
        [
          ("name", `S "gate"); ("experiment", `S "solve-scaling"); ("topology", `S topo);
          ("n", `I n); ("objects", `I objects); ("cores_available", `I cores);
          ("speedup_2_domains", `F s2); ("threshold_2_domains", `F 1.2);
          ("speedup_4_domains", `F s4); ("threshold_4_domains", `F 2.0);
          ("enforced", `B enforced); ("pass", `B pass);
        ];
      Printf.printf "gate (%s n=%d, %d objects): 2 domains %.2fx (>= 1.2), 4 domains %.2fx (>= 2.0): %s%s\n"
        topo n objects s2 s4
        (if pass then "PASS" else "FAIL")
        (if enforced then "" else Printf.sprintf " (advisory: only %d core(s) available)" cores);
      if enforced && not pass then
        failwith
          (Printf.sprintf
             "scale gate: speedup below threshold with %d cores (2 domains %.2fx, 4 domains %.2fx)"
             cores s2 s4));
  (* --- B: metric-closure scaling --- *)
  let closure_configs =
    [ ("grid", 512) ] @ (if smoke then [] else [ ("geometric", 2048) ])
  in
  List.iter
    (fun (topo, cn) ->
      let rng = Rng.create (cn + 777) in
      let cg =
        match topo with
        | "geometric" -> Dmn_graph.Gen.random_geometric rng cn (if cn >= 2048 then 0.05 else 0.09)
        | _ ->
            let rows = int_of_float (sqrt (float_of_int cn /. 2.0)) in
            Dmn_graph.Gen.grid rows (cn / rows)
      in
      let nn = Dmn_graph.Wgraph.n cg in
      let reference = ref [||] in
      let tbl = Tbl.create [ "domains"; "chunks"; "closure s"; "speedup"; "= serial" ] in
      let t1 = ref 0.0 in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              Pool.reset_stats pool;
              let chunks, chunk_size = Pool.chunk_plan pool nn in
              let m, dt = time_it (fun () -> Dmn_paths.Metric.of_graph ~pool cg) in
              let stats = Pool.stats pool in
              let flat = Dmn_paths.Metric.to_matrix m in
              if domains = 1 then begin
                t1 := dt;
                reference := flat
              end;
              let same = flat = !reference in
              if not same then failwith "scale: parallel closure diverged from serial";
              let speedup = !t1 /. dt in
              Tbl.add_row tbl
                [ string_of_int domains; string_of_int chunks; Printf.sprintf "%.4f" dt;
                  Tbl.fl2 speedup; string_of_bool same ];
              record
                [
                  ("name", `S "metric-closure-scaling"); ("topology", `S topo); ("n", `I nn);
                  ("domains", `I domains); ("chunks", `I chunks); ("chunk_size", `I chunk_size);
                  ("cores_available", `I cores); ("wall_s", `F dt);
                  ("speedup_vs_1_domain", `F speedup); ("matches_serial", `B same);
                  ("pool_chunks_claimed", `I stats.Pool.chunks_claimed);
                  ("pool_tasks_run", `I stats.Pool.tasks_run);
                ]))
        domain_counts;
      Tbl.print tbl)
    closure_configs;
  (* --- C: radii over the metric's distance order vs the seed compute --- *)
  let n = 64 and objects = 16 in
  let _, inst = build_instance ~topo:"geometric" ~n ~objects ~seed:90210 in
  let nn = I.n inst in
  let reps = 3 in
  let time_radii compute =
    let _, dt =
      time_it (fun () ->
          for _ = 1 to reps do
            for x = 0 to I.objects inst - 1 do
              ignore (compute inst ~x)
            done
          done)
    in
    dt
  in
  let t_seed = time_radii Dmn_core.Radii.compute_reference in
  let t_cached = time_radii Dmn_core.Radii.compute in
  let tbl = Tbl.create [ "radii path"; "wall s"; "per object ms"; "speedup" ] in
  let calls = float_of_int (reps * I.objects inst) in
  Tbl.add_row tbl
    [ "seed (sort per object)"; Printf.sprintf "%.4f" t_seed;
      Printf.sprintf "%.3f" (1000.0 *. t_seed /. calls); "1.00" ];
  Tbl.add_row tbl
    [ "metric order"; Printf.sprintf "%.4f" t_cached;
      Printf.sprintf "%.3f" (1000.0 *. t_cached /. calls); Tbl.fl2 (t_seed /. t_cached) ];
  Tbl.print tbl;
  record
    [
      ("name", `S "radii-profile-cache"); ("n", `I nn); ("objects", `I objects);
      ("calls", `I (reps * I.objects inst)); ("reference_wall_s", `F t_seed);
      ("cached_wall_s", `F t_cached); ("speedup", `F (t_seed /. t_cached));
    ];
  write_bench_json ~bench:"placement" "BENCH_placement.json" (List.rev !records)

(* ------------------------------------------------------------------ *)
(* replay: streaming engine policies + cross-domain determinism        *)
(* ------------------------------------------------------------------ *)

(* The replay and tournament experiments both land in BENCH_replay.json;
   their records accumulate here so running both (the default) keeps
   both sets, while running either alone still writes a valid file. *)
let replay_records = ref []

let flush_replay_json () =
  write_bench_json ~bench:"replay" "BENCH_replay.json" (List.rev !replay_records)

let replay () =
  section "replay  streaming engine: policies on a drifting workload (tentpole PR 3)";
  print_endline
    "Every policy replays the *same* drifting stream (hotspots the\n\
     static planner never saw) through the epoch engine. The static\n\
     placement is the paper's 3-phase solution for the instance tables;\n\
     resolve re-solves from observed frequencies at every epoch\n\
     boundary, paying migration; cache is per-event threshold caching.\n\
     Resolve must beat static here -- the margin lands in\n\
     BENCH_replay.json, as does a byte-identity check of the metrics\n\
     JSON across 1/2/4 domains.";
  let module En = Dmn_engine.Engine in
  let record r = replay_records := r :: !replay_records in
  let rng = Rng.create 24601 in
  let n = 32 in
  let g = Dmn_graph.Gen.random_geometric rng n 0.35 in
  let nn = Dmn_graph.Wgraph.n g in
  let objects = 6 in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 2.0 10.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.zipf rng ~objects ~n:nn ~requests:(20 * nn) ~s:1.0 ~write_ratio:0.15
  in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let placement = A.solve inst in
  let events = 40_000 and phases = 20 and epoch = 1000 in
  (* the _seq generators are one-shot: recreate from the same seed so
     every policy consumes the identical stream *)
  let stream () =
    Dmn_dynamic.Stream.drifting_seq (Rng.create 7) inst ~phases
      ~phase_length:(events / phases) ~write_fraction:0.15
  in
  let config policy = { En.default_config with En.policy; epoch } in
  let tbl =
    Tbl.create
      [ "policy"; "serving"; "storage"; "migration"; "total"; "copies"; "wall s" ]
  in
  let totals = ref [] in
  List.iter
    (fun policy ->
      let r, dt = time_it (fun () -> En.run ~config:(config policy) inst placement (stream ())) in
      let t = r.En.totals in
      let total = En.total_cost t in
      totals := (policy, total) :: !totals;
      Tbl.add_row tbl
        [
          En.policy_name policy; Tbl.fl2 t.En.serving; Tbl.fl2 t.En.storage;
          Tbl.fl2 t.En.migration; Tbl.fl2 total; string_of_int t.En.copies;
          Printf.sprintf "%.4f" dt;
        ];
      record
        [
          ("name", `S "replay-policy"); ("policy", `S (En.policy_name policy));
          ("n", `I nn); ("objects", `I objects); ("events", `I t.En.events);
          ("epochs", `I (List.length r.En.epochs)); ("epoch_size", `I epoch);
          ("serving", `F t.En.serving); ("storage", `F t.En.storage);
          ("migration", `F t.En.migration); ("total_cost", `F total);
          ("final_copies", `I t.En.copies); ("wall_s", `F dt);
        ])
    [ En.Static; En.Resolve; En.Cache ];
  Tbl.print tbl;
  let static_total = List.assoc En.Static !totals
  and resolve_total = List.assoc En.Resolve !totals in
  let margin = static_total /. resolve_total in
  Printf.printf "\nresolve vs static on the drifting stream: %.2fx cheaper (%.2f -> %.2f)\n"
    margin static_total resolve_total;
  if resolve_total >= static_total then
    failwith "replay: epoch re-solve failed to beat the static placement on a drifting stream";
  record
    [
      ("name", `S "replay-resolve-vs-static"); ("static_total", `F static_total);
      ("resolve_total", `F resolve_total); ("margin", `F margin);
      ("resolve_beats_static", `B (resolve_total < static_total));
    ];
  (* cross-domain determinism: the metrics JSON must be byte-identical *)
  let json_at domains =
    Pool.with_pool ~domains (fun pool ->
        En.metrics_json inst (En.run ~pool ~config:(config En.Resolve) inst placement (stream ())))
  in
  let j1 = json_at 1 in
  let identical = List.for_all (fun d -> json_at d = j1) [ 2; 4 ] in
  Printf.printf "metrics JSON identical across 1/2/4 domains: %b\n" identical;
  if not identical then failwith "replay: metrics JSON diverged across domain counts";
  record
    [
      ("name", `S "replay-domain-identity"); ("domains", `S "1,2,4");
      ("json_bytes", `I (String.length j1)); ("identical_metrics_json", `B identical);
    ];
  (* checkpoint overhead: the crash-safety tentpole (PR 4) must be
     nearly free even at the maximal cadence (--ckpt-every 1: one
     atomic write + fsync of a ~1 KB snapshot per epoch). An fsync
     costs ~1 ms on ext4 and its latency is volatile, so the
     measurement uses operationally sized epochs (20k events — a
     checkpoint per 2 ms epoch would be absurd cadence, not overhead)
     and interleaves the two arms, taking the best of 6 paired reps so
     a background-I/O burst cannot land on one arm only. The resulting
     metrics must also be byte-identical: checkpointing is pure
     overhead. *)
  let ovh_epoch = 20_000 in
  let ovh_events = 160_000 in
  let ovh_stream () =
    Dmn_dynamic.Stream.drifting_seq (Rng.create 7) inst ~phases
      ~phase_length:(ovh_events / phases) ~write_fraction:0.15
  in
  let ovh_config = { En.default_config with En.policy = En.Resolve; epoch = ovh_epoch } in
  let ckpt_dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dmnet_bench_ckpt-%d" (Unix.getpid ())) in
  let run_plain () = En.run ~config:ovh_config inst placement (ovh_stream ()) in
  let run_ckpt () =
    En.run ~config:ovh_config ~ckpt:{ En.dir = ckpt_dir; every = 1; keep = 3 } inst placement
      (ovh_stream ())
  in
  let t_plain = ref infinity and t_ckpt = ref infinity in
  let r_plain = ref None and r_ckpt = ref None in
  for _ = 1 to 6 do
    let r, dt = time_it run_plain in
    if dt < !t_plain then t_plain := dt;
    r_plain := Some r;
    let r, dt = time_it run_ckpt in
    if dt < !t_ckpt then t_ckpt := dt;
    r_ckpt := Some r
  done;
  let r_plain = Option.get !r_plain and r_ckpt = Option.get !r_ckpt in
  let t_plain = !t_plain and t_ckpt = !t_ckpt in
  rm_rf ckpt_dir;
  let overhead = (t_ckpt -. t_plain) /. t_plain in
  let epochs = List.length r_plain.En.epochs in
  (* the absolute cost per checkpoint: the ratio alone cannot tell a
     cheaper checkpoint from a faster engine *)
  let ckpt_ms_per_write = 1000.0 *. (t_ckpt -. t_plain) /. float_of_int epochs in
  Printf.printf
    "checkpoint overhead (--ckpt-every 1, %d checkpoints): %.4fs -> %.4fs (%+.1f%%, %.3f ms per \
     checkpoint)\n"
    epochs t_plain t_ckpt (100.0 *. overhead) ckpt_ms_per_write;
  if En.metrics_json inst r_ckpt <> En.metrics_json inst r_plain then
    failwith "replay: checkpointing changed the metrics JSON";
  if overhead > 0.08 then
    failwith
      (Printf.sprintf "replay: checkpoint overhead %.1f%% exceeds the 8%% budget"
         (100.0 *. overhead));
  record
    [
      ("name", `S "replay-checkpoint-overhead"); ("ckpt_every", `I 1);
      ("checkpoints", `I epochs); ("wall_s_plain", `F t_plain); ("wall_s_ckpt", `F t_ckpt);
      ("overhead_frac", `F overhead); ("ckpt_ms_per_write", `F ckpt_ms_per_write);
      ("within_budget", `B (overhead <= 0.08));
    ];
  (* serve-path: versioned serve caches vs recompute-everything (PR 5
     tentpole). Cheap storage rent makes the solver replicate widely, so
     the copy sets are large; the stream is write-heavy, so the uncached
     arm pays a fresh O(c² log c) MST per write while the cached arm
     reads one memoized weight per placement version. The static policy
     isolates the serve path (no re-solves, no placement churn); both
     arms must produce byte-identical metrics JSON — the cache is pure
     memoization — and the cached arm must be faster, full stop. The
     two arms are interleaved, best-of-4, like the checkpoint probe. *)
  let sp_rng = Rng.create 31415 in
  let sp_g = Dmn_graph.Gen.random_geometric sp_rng 48 0.35 in
  let sp_nn = Dmn_graph.Wgraph.n sp_g in
  let sp_objects = 8 in
  let sp_cs = Array.init sp_nn (fun _ -> Rng.float_in sp_rng 0.2 1.0) in
  let { Dmn_workload.Freq.fr = sp_fr; fw = sp_fw } =
    Dmn_workload.Freq.zipf sp_rng ~objects:sp_objects ~n:sp_nn ~requests:(40 * sp_nn) ~s:0.8
      ~write_ratio:0.02
  in
  let sp_inst = I.of_graph sp_g ~cs:sp_cs ~fr:sp_fr ~fw:sp_fw in
  let sp_placement = A.solve sp_inst in
  let sp_copies =
    let acc = ref 0 in
    for x = 0 to sp_objects - 1 do
      acc := !acc + List.length (Dmn_core.Placement.copies sp_placement ~x)
    done;
    !acc
  in
  let sp_events = 60_000 in
  let sp_stream () =
    Dmn_dynamic.Stream.drifting_seq (Rng.create 99) sp_inst ~phases:10
      ~phase_length:(sp_events / 10) ~write_fraction:0.6
  in
  let sp_run serve_cache () =
    En.run
      ~config:{ En.default_config with En.policy = En.Static; epoch = 2000; serve_cache }
      sp_inst sp_placement (sp_stream ())
  in
  let t_cached = ref infinity and t_uncached = ref infinity in
  let r_cached = ref None and r_uncached = ref None in
  for _ = 1 to 4 do
    let r, dt = time_it (sp_run false) in
    if dt < !t_uncached then t_uncached := dt;
    r_uncached := Some r;
    let r, dt = time_it (sp_run true) in
    if dt < !t_cached then t_cached := dt;
    r_cached := Some r
  done;
  let t_cached = !t_cached and t_uncached = !t_uncached in
  let sp_identical =
    En.metrics_json sp_inst (Option.get !r_cached)
    = En.metrics_json sp_inst (Option.get !r_uncached)
  in
  let eps t = float_of_int sp_events /. t in
  let sp_speedup = t_uncached /. t_cached in
  Printf.printf
    "\nserve-path (write-heavy, %d copies over %d objects): uncached %.0f ev/s -> cached %.0f \
     ev/s (%.1fx), metrics identical: %b\n"
    sp_copies sp_objects (eps t_uncached) (eps t_cached) sp_speedup sp_identical;
  if not sp_identical then
    failwith "replay: serve caches changed the metrics JSON (memoization must be pure)";
  if t_cached >= t_uncached then
    failwith "replay: cached serve path is not faster than the uncached baseline";
  record
    [
      ("name", `S "replay-serve-path"); ("n", `I sp_nn); ("objects", `I sp_objects);
      ("placed_copies", `I sp_copies); ("events", `I sp_events); ("write_fraction", `F 0.6);
      ("wall_s_uncached", `F t_uncached); ("wall_s_cached", `F t_cached);
      ("events_per_s_uncached", `F (eps t_uncached)); ("events_per_s_cached", `F (eps t_cached));
      ("speedup", `F sp_speedup); ("identical_metrics_json", `B sp_identical);
      ("cached_faster", `B (t_cached < t_uncached));
    ];
  flush_replay_json ()

(* ------------------------------------------------------------------ *)
(* resolve: incremental re-solve -- dirty filtering and solve cache    *)
(* ------------------------------------------------------------------ *)

let resolve () =
  section "resolve  incremental re-solve: dirty filtering and the solve cache (tentpole PR 6)";
  print_endline
    "The drifting stream dwells in each phase for several epochs, so\n\
     most epoch boundaries see only sampling noise. The full arm\n\
     (--dirty-eps 0) re-solves every active object at every boundary;\n\
     the incremental arm (the CLI default --dirty-eps 0.3) re-solves\n\
     only objects whose normalized frequency drift exceeds the\n\
     threshold. Gates: >=3x fewer solver calls, >=1.5x wall speedup on\n\
     the re-solve policy, total cost within 2% of the full re-solve,\n\
     and byte-identical metrics JSON across 1/2/4 domains in both\n\
     arms. A recurring stream then exercises the per-object solve\n\
     cache: hits replace solver calls without moving a single cost\n\
     float.";
  let module En = Dmn_engine.Engine in
  let record r = replay_records := r :: !replay_records in
  let rng = Rng.create 4242 in
  (* a large sparse network: place_object is superlinear in n while
     serving an event is nearly flat, so at n=128 the re-solve is the
     bottleneck the dirty filter exists to remove *)
  let g = Dmn_graph.Gen.random_geometric rng 128 0.15 in
  let nn = Dmn_graph.Wgraph.n g in
  let objects = 4 in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 2.0 10.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.zipf rng ~objects ~n:nn ~requests:(20 * nn) ~s:1.0 ~write_ratio:0.15
  in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let placement = A.solve inst in
  (* phase boundaries align with epoch boundaries: each phase dwells
     for exactly 6 epochs. The epoch is sized so a dwelling epoch's
     per-hot-node counts average ~50 samples: the normalized L1 drift
     between successive epochs of the same phase is then ~0.1, well
     inside the 0.3 threshold, so 5 of every 6 boundaries are pure
     sampling noise for the dirty filter to absorb *)
  let epoch = 1600 and phases = 8 and epochs_per_phase = 6 in
  let events = phases * epochs_per_phase * epoch in
  let stream () =
    Dmn_dynamic.Stream.drifting_seq (Rng.create 11) inst ~phases
      ~phase_length:(events / phases) ~write_fraction:0.15
  in
  let default_eps = 0.3 (* the CLI default for --dirty-eps *) in
  let config eps = { En.default_config with En.policy = En.Resolve; epoch; dirty_eps = eps } in
  (* actual place_object invocations: successful re-solves (minus the
     ones a cache answered), supervised retries, and exhausted-attempt
     fallbacks all paid for solver calls *)
  let solver_calls (t : En.totals) =
    t.En.resolves + t.En.solve_retries + t.En.solve_fallbacks - t.En.cache_hits
  in
  let t_full = ref infinity and t_incr = ref infinity in
  let r_full = ref None and r_incr = ref None in
  for _ = 1 to 4 do
    let r, dt = time_it (fun () -> En.run ~config:(config 0.0) inst placement (stream ())) in
    if dt < !t_full then t_full := dt;
    r_full := Some r;
    let r, dt =
      time_it (fun () -> En.run ~config:(config default_eps) inst placement (stream ()))
    in
    if dt < !t_incr then t_incr := dt;
    r_incr := Some r
  done;
  let r_full = Option.get !r_full and r_incr = Option.get !r_incr in
  let t_full = !t_full and t_incr = !t_incr in
  let calls_full = solver_calls r_full.En.totals
  and calls_incr = solver_calls r_incr.En.totals in
  let call_ratio = float_of_int calls_full /. float_of_int (max 1 calls_incr) in
  let speedup = t_full /. t_incr in
  let cost_full = En.total_cost r_full.En.totals
  and cost_incr = En.total_cost r_incr.En.totals in
  let cost_margin = (cost_incr -. cost_full) /. cost_full in
  let tbl =
    Tbl.create [ "arm"; "dirty-eps"; "solver calls"; "skipped"; "total cost"; "wall s" ]
  in
  List.iter
    (fun (arm, eps, r, dt) ->
      let t = (r : En.result).En.totals in
      Tbl.add_row tbl
        [
          arm; Printf.sprintf "%g" eps;
          string_of_int (solver_calls t); string_of_int t.En.solve_skipped;
          Tbl.fl2 (En.total_cost t); Printf.sprintf "%.4f" dt;
        ])
    [ ("full", 0.0, r_full, t_full); ("incremental", default_eps, r_incr, t_incr) ];
  Tbl.print tbl;
  Printf.printf
    "\ndirty filter: %.2fx fewer solver calls (%d -> %d), %.2fx wall speedup, cost margin \
     %+.3f%%\n"
    call_ratio calls_full calls_incr speedup (100.0 *. cost_margin);
  if r_incr.En.totals.En.solve_skipped = 0 then
    failwith "resolve: the dirty filter never skipped an object on a dwelling stream";
  if call_ratio < 3.0 then
    failwith
      (Printf.sprintf "resolve: only %.2fx fewer solver calls (gate: >= 3x)" call_ratio);
  if speedup < 1.5 then
    failwith (Printf.sprintf "resolve: wall speedup %.2fx below the 1.5x gate" speedup);
  if cost_margin > 0.02 then
    failwith
      (Printf.sprintf "resolve: incremental cost %.3f%% over the full re-solve (gate: 2%%)"
         (100.0 *. cost_margin));
  record
    [
      ("name", `S "resolve-dirty-filter"); ("n", `I nn); ("objects", `I objects);
      ("events", `I events); ("epoch_size", `I epoch); ("phases", `I phases);
      ("epochs_per_phase", `I epochs_per_phase); ("dirty_eps", `F default_eps);
      ("solver_calls_full", `I calls_full); ("solver_calls_incremental", `I calls_incr);
      ("call_ratio", `F call_ratio); ("skipped", `I r_incr.En.totals.En.solve_skipped);
      ("wall_s_full", `F t_full); ("wall_s_incremental", `F t_incr);
      ("speedup", `F speedup); ("total_cost_full", `F cost_full);
      ("total_cost_incremental", `F cost_incr); ("cost_margin_frac", `F cost_margin);
      ("call_gate_3x", `B (call_ratio >= 3.0)); ("wall_gate_1_5x", `B (speedup >= 1.5));
      ("cost_gate_2pct", `B (cost_margin <= 0.02));
    ];
  (* the dirty set is a pure function of the trace: metrics JSON must
     be byte-identical across domain counts in both arms *)
  let json_at eps domains =
    Pool.with_pool ~domains (fun pool ->
        En.metrics_json inst (En.run ~pool ~config:(config eps) inst placement (stream ())))
  in
  List.iter
    (fun (arm, eps) ->
      let j1 = json_at eps 1 in
      let identical = List.for_all (fun d -> json_at eps d = j1) [ 2; 4 ] in
      Printf.printf "%s arm metrics JSON identical across 1/2/4 domains: %b\n" arm identical;
      if not identical then
        failwith (Printf.sprintf "resolve: %s-arm metrics diverged across domain counts" arm);
      record
        [
          ("name", `S "resolve-domain-identity"); ("arm", `S arm); ("dirty_eps", `F eps);
          ("domains", `S "1,2,4"); ("json_bytes", `I (String.length j1));
          ("identical_metrics_json", `B identical);
        ])
    [ ("full", 0.0); ("incremental", default_eps) ];
  (* solve cache on a recurring regime: the same stationary block
     repeats, so after the first epoch every dirty object's quantized
     frequency row is a cache hit. eps 0 keeps every object dirty --
     the cache, not the filter, must absorb the work -- and the cost
     floats must not move: a hit replays the exact placement the
     solver would recompute *)
  let block = Dmn_dynamic.Stream.stationary (Rng.create 17) inst ~length:epoch in
  let repeats = 8 in
  let recurring () = List.to_seq (List.concat (List.init repeats (fun _ -> block))) in
  let cache_config sc =
    { En.default_config with En.policy = En.Resolve; epoch; dirty_eps = 0.0; solve_cache = sc }
  in
  let t_nocache = ref infinity and t_cache = ref infinity in
  let r_nocache = ref None and r_cache = ref None in
  for _ = 1 to 4 do
    let r, dt = time_it (fun () -> En.run ~config:(cache_config 0) inst placement (recurring ())) in
    if dt < !t_nocache then t_nocache := dt;
    r_nocache := Some r;
    let r, dt = time_it (fun () -> En.run ~config:(cache_config 64) inst placement (recurring ())) in
    if dt < !t_cache then t_cache := dt;
    r_cache := Some r
  done;
  let tn = (Option.get !r_nocache).En.totals and tc = (Option.get !r_cache).En.totals in
  let pure =
    tc.En.serving = tn.En.serving && tc.En.storage = tn.En.storage
    && tc.En.migration = tn.En.migration
  in
  Printf.printf
    "solve cache on a recurring stream: %d hits / %d misses over %d dirty epochs, costs \
     identical: %b (%.4fs -> %.4fs)\n"
    tc.En.cache_hits tc.En.cache_misses repeats pure !t_nocache !t_cache;
  if tc.En.cache_hits = 0 then
    failwith "resolve: the solve cache never hit on a recurring stream";
  if tc.En.cache_hits + tc.En.cache_misses <> tn.En.resolves + tn.En.solve_fallbacks then
    failwith "resolve: cache traffic does not account for the uncached arm's dirty set";
  if not pure then
    failwith "resolve: the solve cache moved a cost float (memoization must be pure)";
  record
    [
      ("name", `S "resolve-solve-cache"); ("repeats", `I repeats); ("epoch_size", `I epoch);
      ("cache_capacity", `I 64); ("cache_hits", `I tc.En.cache_hits);
      ("cache_misses", `I tc.En.cache_misses); ("cache_evictions", `I tc.En.cache_evictions);
      ("solver_calls_uncached", `I (solver_calls tn));
      ("solver_calls_cached", `I (solver_calls tc));
      ("wall_s_uncached", `F !t_nocache); ("wall_s_cached", `F !t_cache);
      ("costs_identical", `B pure);
    ];
  flush_replay_json ()

(* ------------------------------------------------------------------ *)
(* tournament: adversarial scenarios x policies under topology churn   *)
(* ------------------------------------------------------------------ *)

let tournament () =
  section "tournament  adversarial scenarios x policies under topology churn (tentpole PR 7)";
  print_endline
    "Every policy replays the *same* adversarial stream per scenario:\n\
     diurnal (demand cycles between node halves while the heaviest\n\
     links congest), flash (one object spikes 100x), birthdeath (the\n\
     active object set rotates), failures (nodes fail and recover\n\
     under a moving hotspot — requests from dead nodes are dropped,\n\
     objects whose whole copy set dies are emergency-re-replicated).\n\
     Hard gates: resolve beats static on the churn scenarios, and a\n\
     single-edge incremental metric repair beats a full of_graph\n\
     recompute by >= 5x.";
  let module En = Dmn_engine.Engine in
  let module Ad = Dmn_workload.Adversary in
  let record r = replay_records := r :: !replay_records in
  let rng = Rng.create 8128 in
  let n = 28 in
  let g = Dmn_graph.Gen.random_geometric rng n 0.4 in
  let nn = Dmn_graph.Wgraph.n g in
  let objects = 5 in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 2.0 10.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.zipf rng ~objects ~n:nn ~requests:(20 * nn) ~s:1.0 ~write_ratio:0.15
  in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let placement = A.solve inst in
  let events = 6000 and epoch = 250 in
  (* epoch (250) deliberately divides each scenario's phase length
     (1000-1500): the re-solving policy adapts within a phase instead
     of always optimizing for yesterday's demand *)
  let wf = 0.15 in
  let scenarios =
    [
      ( "diurnal",
        true,
        fun () -> Ad.diurnal (Rng.create 7) inst ~days:2 ~day_length:3000 ~write_fraction:wf );
      ( "flash",
        false,
        fun () ->
          Ad.flash_crowd (Rng.create 7) inst ~length:events ~spike_at:(events / 4)
            ~spike_length:(events / 2) ~multiplier:100 ~write_fraction:wf );
      ( "birthdeath",
        false,
        fun () -> Ad.birth_death (Rng.create 7) inst ~length:events ~write_fraction:wf );
      ( "failures",
        true,
        fun () ->
          Ad.failure_repair (Rng.create 7) inst ~phases:6 ~phase_length:1000 ~write_fraction:wf
      );
    ]
  in
  let tbl =
    Tbl.create
      [ "scenario"; "policy"; "serving"; "total"; "dropped"; "emerg"; "topo"; "wall s" ]
  in
  let totals = ref [] in
  List.iter
    (fun (sname, churny, stream) ->
      List.iter
        (fun policy ->
          (* the cache policy keeps per-event state in closures and
             refuses topology items — score it only where it can run *)
          if not (churny && policy = En.Cache) then begin
            let config = { En.default_config with En.policy; epoch } in
            let r, dt = time_it (fun () -> En.run_items ~config inst placement (stream ())) in
            let t = r.En.totals in
            let total = En.total_cost t in
            totals := ((sname, policy), total) :: !totals;
            Tbl.add_row tbl
              [
                sname; En.policy_name policy; Tbl.fl2 t.En.serving; Tbl.fl2 total;
                string_of_int t.En.dropped; string_of_int t.En.emergency;
                string_of_int t.En.topo; Printf.sprintf "%.4f" dt;
              ];
            record
              [
                ("name", `S "tournament"); ("scenario", `S sname);
                ("policy", `S (En.policy_name policy)); ("n", `I nn);
                ("objects", `I objects); ("events", `I t.En.events);
                ("epoch_size", `I epoch); ("serving", `F t.En.serving);
                ("storage", `F t.En.storage); ("migration", `F t.En.migration);
                ("total_cost", `F total); ("dropped", `I t.En.dropped);
                ("emergency", `I t.En.emergency); ("topo_events", `I t.En.topo);
                ("final_copies", `I t.En.copies); ("wall_s", `F dt);
              ]
          end)
        [ En.Static; En.Resolve; En.Cache ])
    scenarios;
  Tbl.print tbl;
  (* gate 1: on every scenario that churns the topology, the re-solving
     policy must beat the static placement *)
  List.iter
    (fun (sname, churny, _) ->
      if churny then begin
        let st = List.assoc (sname, En.Static) !totals
        and rs = List.assoc (sname, En.Resolve) !totals in
        let margin = st /. rs in
        Printf.printf "%s: resolve vs static under churn: %.2fx cheaper (%.2f -> %.2f)\n" sname
          margin st rs;
        if rs >= st then
          failwith
            (Printf.sprintf
               "tournament: resolve (%.2f) failed to beat static (%.2f) on the %s churn \
                scenario"
               rs st sname);
        record
          [
            ("name", `S "tournament-resolve-vs-static"); ("scenario", `S sname);
            ("static_total", `F st); ("resolve_total", `F rs); ("margin", `F margin);
            ("resolve_beats_static", `B (rs < st));
          ]
      end)
    scenarios;
  (* cross-domain determinism under churn: the metrics JSON of the
     failures scenario must be byte-identical at 1 and 4 domains *)
  let _, _, failures_stream = List.nth scenarios 3 in
  let json_at domains =
    Pool.with_pool ~domains (fun pool ->
        En.metrics_json inst
          (En.run_items ~pool
             ~config:{ En.default_config with En.policy = En.Resolve; epoch }
             inst placement (failures_stream ())))
  in
  let j1 = json_at 1 in
  let identical = json_at 4 = j1 in
  Printf.printf "churn metrics JSON identical across 1/4 domains: %b\n" identical;
  if not identical then failwith "tournament: churned metrics JSON diverged across domains";
  record
    [
      ("name", `S "tournament-churn-domain-identity"); ("domains", `S "1,4");
      ("json_bytes", `I (String.length j1)); ("identical_metrics_json", `B identical);
    ];
  (* gate 2: incremental metric repair vs full recompute. A single-edge
     event must repair the closure >= 5x faster (on average over a
     representative spread of edges — a maximally central edge can
     invalidate half the rows and legitimately approach a rebuild) than
     Metric.of_graph rebuilds it. Each sampled edge contributes a surge
     (tight-row recompute) and a restore (decrease relaxation); per-event
     average, best of 5 sequences; the full rebuild is best of 5. *)
  let module Mt = Dmn_paths.Metric in
  let module Ch = Dmn_paths.Churn in
  let rg = Dmn_graph.Gen.random_geometric (Rng.create 4242) 96 0.3 in
  let rm = Mt.of_graph rg in
  let all_edges = Array.of_list (Dmn_graph.Wgraph.edges rg) in
  if Array.length all_edges = 0 then failwith "tournament: repair graph has no edges";
  let picks = 8 in
  let sampled =
    Array.init picks (fun i -> all_edges.(i * Array.length all_edges / picks))
  in
  let reps = 2 * picks in
  let t_inc = ref infinity in
  for _ = 1 to 5 do
    let ch = Ch.create rg rm in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (u, v, w0) ->
        Ch.apply ch (Ch.Edge_weight { u; v; w = w0 *. 3.0 });
        Ch.apply ch (Ch.Edge_weight { u; v; w = w0 }))
      sampled;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    if dt < !t_inc then t_inc := dt
  done;
  let t_full = ref infinity in
  for _ = 1 to 5 do
    let _, dt = time_it (fun () -> Mt.of_graph rg) in
    if dt < !t_full then t_full := dt
  done;
  let speedup = !t_full /. !t_inc in
  Printf.printf
    "incremental repair on a single-edge event (n = %d): %.3f ms vs full of_graph %.3f ms \
     (%.1fx)\n"
    (Dmn_graph.Wgraph.n rg) (1000.0 *. !t_inc) (1000.0 *. !t_full) speedup;
  if speedup < 5.0 then
    failwith
      (Printf.sprintf
         "tournament: incremental repair is only %.1fx faster than a full recompute (gate: \
          5x)"
         speedup);
  record
    [
      ("name", `S "tournament-incremental-repair"); ("n", `I (Dmn_graph.Wgraph.n rg));
      ("repair_s", `F !t_inc); ("full_recompute_s", `F !t_full); ("speedup", `F speedup);
      ("gate_5x", `B (speedup >= 5.0));
    ];
  flush_replay_json ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro  Bechamel benchmarks of the substrates";
  let open Bechamel in
  let rng = Rng.create 5555 in
  let grid = Dmn_graph.Gen.grid 20 20 in
  let er200 = Dmn_graph.Gen.erdos_renyi rng 200 0.05 in
  let metric120 = Dmn_paths.Metric.of_graph (Dmn_graph.Gen.erdos_renyi rng 120 0.1) in
  let tree_inst =
    let n = 200 in
    let g = Dmn_graph.Gen.random_tree rng n in
    let cs = Array.init n (fun _ -> Rng.float_in rng 1.0 20.0) in
    let { Dmn_workload.Freq.fr; fw } =
      Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(4 * n) ~write_fraction:0.3
    in
    I.of_graph g ~cs ~fr ~fw
  in
  let place_inst =
    let n = 60 in
    let g = Dmn_graph.Gen.erdos_renyi rng n 0.15 in
    let cs = Array.init n (fun _ -> Rng.float_in rng 2.0 20.0) in
    let { Dmn_workload.Freq.fr; fw } =
      Dmn_workload.Freq.mix rng ~objects:1 ~n ~total:(5 * n) ~write_fraction:0.25
    in
    I.of_graph g ~cs ~fr ~fw
  in
  let flp =
    let m = Dmn_paths.Metric.of_graph (Dmn_graph.Gen.erdos_renyi rng 100 0.1) in
    Dmn_facility.Flp.create m
      ~opening:(Array.init 100 (fun _ -> Rng.float_in rng 1.0 15.0))
      ~demand:(Array.init 100 (fun _ -> float_of_int (Rng.int rng 5)))
  in
  let terminals = Array.to_list (Rng.sample rng (Array.init 400 (fun i -> i)) 12) in
  let tests =
    Test.make_grouped ~name:"dmnet"
      [
        Test.make ~name:"dijkstra grid-400" (Staged.stage (fun () -> Dmn_paths.Dijkstra.run grid 0));
        Test.make ~name:"metric-closure er-200"
          (Staged.stage (fun () -> Dmn_paths.Metric.of_graph er200));
        Test.make ~name:"mst kruskal er-200" (Staged.stage (fun () -> Dmn_span.Kruskal.mst er200));
        Test.make ~name:"steiner 2-approx grid-400 k=12"
          (Staged.stage (fun () -> Dmn_span.Steiner.approx grid terminals));
        Test.make ~name:"flp mettu-plaxton n=100"
          (Staged.stage (fun () -> Dmn_facility.Mettu_plaxton.solve flp));
        Test.make ~name:"radii n=120"
          (Staged.stage (fun () ->
               Dmn_core.Radii.compute
                 (I.of_metric metric120
                    ~cs:(Array.make 120 5.0)
                    ~fr:[| Array.make 120 1 |]
                    ~fw:[| Array.make 120 1 |])
                 ~x:0));
        Test.make ~name:"krw place n=60" (Staged.stage (fun () -> A.place_object place_inst ~x:0));
        Test.make ~name:"tree dp n=200"
          (Staged.stage (fun () -> Dmn_tree.Tree_solver.place_object tree_inst ~x:0));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  let tbl = Tbl.create [ "benchmark"; "time per run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Tbl.add_row tbl [ name; pretty ])
    (List.sort compare !rows);
  Tbl.print tbl

(* ------------------------------------------------------------------ *)
(* soak: the serving daemon under sustained load                       *)
(* ------------------------------------------------------------------ *)

let soak () =
  let module En = Dmn_engine.Engine in
  let module St = Dmn_dynamic.Stream in
  let module Srv = Dmn_server.Server in
  section "soak  online serving daemon: sustained throughput, RSS, shedding (tentpole PR 8)";
  print_endline
    "The daemon's batcher (Dmn_server.Core) serves an endless stationary\n\
     stream for DMNET_SOAK_SECONDS wall-clock seconds (default 6; the CI\n\
     soak job sets 60), half without and half with journaling +\n\
     checkpointing, and must sustain >= 0.5x the offline replay's\n\
     throughput on the same engine configuration (the median of five\n\
     baseline replays; advisory bar: 0.8x). RSS must stay bounded (no\n\
     unbounded growth across the run), the newest checkpoint generation\n\
     may not grow past 1.1x its size at the quarter mark, the\n\
     batcher must reproduce the replay byte-for-byte before any timing\n\
     counts, and overload must shed exactly the overflow — counted,\n\
     never silent.";
  let record r = replay_records := r :: !replay_records in
  let soak_s =
    match Sys.getenv_opt "DMNET_SOAK_SECONDS" with
    | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 6.0)
    | None -> 6.0
  in
  let rng = Rng.create 4242 in
  let g = Dmn_graph.Gen.random_geometric rng 100 0.3 in
  let nn = Dmn_graph.Wgraph.n g in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 2.0 12.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.zipf rng ~objects:12 ~n:nn ~requests:(30 * nn) ~s:0.9 ~write_ratio:0.15
  in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let placement = A.solve inst in
  let config =
    { En.default_config with En.policy = En.Resolve; epoch = 2000; serve_cache = true }
  in
  (* byte-identity first: timing a diverging path would be meaningless *)
  let small =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 9) inst ~length:6000))
  in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq small)) in
  let core = Srv.Core.create { Srv.default_config with Srv.engine = config } inst placement in
  List.iter (fun it -> ignore (Srv.Core.push core it)) small;
  Srv.Core.maybe_step core;
  Srv.Core.flush core;
  if reference <> En.metrics_json inst (Srv.Core.result core) then
    failwith "soak: the daemon batcher diverged from the replay engine";
  (* offline baseline: the cached replay serve path, same configuration *)
  let base_events = 30_000 in
  let base_items () =
    St.items_of_events (St.stationary_seq (Rng.create 7) inst ~length:base_events)
  in
  (* the median of five replays: one fast or slow run would move the
     hard gate below *)
  let t_base =
    Stats.median
      (Array.init 5 (fun _ ->
           snd (time_it (fun () -> En.run_items ~config inst placement (base_items ())))))
  in
  let eps_base = float_of_int base_events /. t_base in
  (* sustained serving through the daemon core *)
  let run_core ~durable seconds =
    let journal = temp_dir "dmnet-soak-journal" in
    let ckpt = temp_dir "dmnet-soak-ckpt" in
    Fun.protect
      ~finally:(fun () -> List.iter rm_rf [ journal; ckpt ])
      (fun () ->
        let cfg =
          {
            Srv.default_config with
            Srv.engine = config;
            journal = (if durable then Some journal else None);
            ckpt = (if durable then Some { En.dir = ckpt; every = 4; keep = 3 } else None);
            queue_cap = 65536;
          }
        in
        let core = Srv.Core.create cfg inst placement in
        let src =
          ref (St.items_of_events (St.stationary_seq (Rng.create 11) inst ~length:max_int))
        in
        let t0 = Unix.gettimeofday () in
        let early_rss = ref 0 in
        let peak = ref (Srv.rss_kb ()) in
        let early_jbytes = ref 0 in
        let peak_jbytes = ref 0 in
        (* the newest generation's size: fixed, however many epochs it
           covers *)
        let ckpt_bytes () =
          match Dmn_core.Ckpt_store.read_manifest_res ckpt with
          | Ok m ->
              (Unix.stat (Filename.concat ckpt (Dmn_core.Ckpt_store.gen_name m.latest))).st_size
          | Error _ -> 0
        in
        let early_ckpt = ref 0 in
        while Unix.gettimeofday () -. t0 < seconds do
          for _ = 1 to config.En.epoch do
            match Seq.uncons !src with
            | Some (it, rest) ->
                src := rest;
                ignore (Srv.Core.push core it)
            | None -> ()
          done;
          Srv.Core.maybe_step core;
          let r = Srv.rss_kb () in
          if r > !peak then peak := r;
          let jb = Srv.Core.journal_bytes core in
          if jb > !peak_jbytes then peak_jbytes := jb;
          if !early_rss = 0 && Unix.gettimeofday () -. t0 > seconds /. 4.0 then begin
            early_rss := r;
            early_jbytes := jb;
            early_ckpt := ckpt_bytes ()
          end
        done;
        let last_ckpt = ckpt_bytes () in
        let dt = Unix.gettimeofday () -. t0 in
        let served = Srv.Core.served core in
        let epochs = Srv.Core.epochs core in
        let segments = Srv.Core.journal_segments core in
        Srv.Core.shutdown core;
        ( served, epochs, dt, !peak,
          (if !early_rss = 0 then !peak else !early_rss),
          !peak_jbytes, !early_jbytes, segments, !early_ckpt, last_ckpt ))
  in
  let served_plain, _, t_plain, _, _, _, _, _, _, _ = run_core ~durable:false (soak_s /. 2.0) in
  let served_durable, epochs_durable, t_durable, peak_kb, early_kb, peak_jbytes, early_jbytes,
      segments_durable, early_ckpt, last_ckpt =
    run_core ~durable:true (soak_s /. 2.0)
  in
  let eps_plain = float_of_int served_plain /. t_plain in
  let eps_durable = float_of_int served_durable /. t_durable in
  let ckpt_overhead = Float.max 0.0 (1.0 -. (eps_durable /. eps_plain)) in
  (* overload: push far past the bound without serving; the overflow is
     shed and counted, the accepted prefix still serves *)
  let shed_cap = 256 in
  let burst = 5000 in
  let shed_core =
    Srv.Core.create
      { Srv.default_config with Srv.engine = config; queue_cap = shed_cap }
      inst placement
  in
  List.iter (fun it -> ignore (Srv.Core.push shed_core it))
    (List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 13) inst ~length:burst)));
  let shed_count = Srv.Core.shed shed_core in
  Srv.Core.flush shed_core;
  let shed_served = Srv.Core.served shed_core in
  Srv.Core.shutdown shed_core;
  if shed_count <> burst - shed_cap || shed_served <> shed_cap then
    failwith
      (Printf.sprintf "soak: shedding accounting broken (shed %d of %d, served %d, cap %d)"
         shed_count burst shed_served shed_cap);
  Printf.printf
    "\nbaseline replay %.0f ev/s; daemon %.0f ev/s plain, %.0f ev/s with journal+ckpt \
     (overhead %.1f%%, %d epochs); RSS early %d kB -> peak %d kB; journal %d B early -> %d B \
     peak across %d live segment(s); newest checkpoint generation %d B early -> %d B last; \
     shed %d of a %d burst at cap %d\n"
    eps_base eps_plain eps_durable (100.0 *. ckpt_overhead) epochs_durable early_kb peak_kb
    early_jbytes peak_jbytes segments_durable early_ckpt last_ckpt shed_count burst shed_cap;
  let ratio = eps_durable /. eps_base in
  if ratio < 0.5 then
    failwith
      (Printf.sprintf "soak: daemon throughput %.0f ev/s is under 0.5x the replay baseline %.0f"
         eps_durable eps_base);
  if ratio < 0.8 then
    Printf.printf "soak: WARNING: daemon at %.2fx the replay baseline (advisory bar 0.8x)\n" ratio;
  if float_of_int peak_kb > (1.5 *. float_of_int early_kb) +. 50_000.0 then
    failwith
      (Printf.sprintf "soak: RSS grew from %d kB to %d kB over the run (unbounded growth)"
         early_kb peak_kb);
  (* segment pruning keeps journal disk usage bounded: the peak may not
     run away from the quarter-time mark (rotation granularity slack) *)
  if
    early_jbytes > 0
    && float_of_int peak_jbytes > (2.0 *. float_of_int early_jbytes) +. 8_000_000.0
  then
    failwith
      (Printf.sprintf "soak: journal grew from %d B to %d B over the run (pruning broken)"
         early_jbytes peak_jbytes);
  (* a generation holds state whose size does not depend on uptime *)
  if early_ckpt = 0 then failwith "soak: no checkpoint generation by the quarter mark";
  if float_of_int last_ckpt > 1.1 *. float_of_int early_ckpt then
    failwith
      (Printf.sprintf
         "soak: the newest checkpoint generation grew from %d B at the quarter mark to %d B at \
          the end (over 1.1x)"
         early_ckpt last_ckpt);
  record
    [
      ("name", `S "serve-soak"); ("n", `I nn); ("objects", `I 12);
      ("soak_s", `F soak_s); ("epoch", `I config.En.epoch);
      ("events_per_s_replay", `F eps_base); ("events_per_s_daemon", `F eps_plain);
      ("events_per_s_daemon_durable", `F eps_durable); ("throughput_ratio", `F ratio);
      ("checkpoint_overhead_frac", `F ckpt_overhead); ("epochs_durable", `I epochs_durable);
      ("early_rss_kb", `I early_kb); ("peak_rss_kb", `I peak_kb);
      ("early_journal_bytes", `I early_jbytes); ("peak_journal_bytes", `I peak_jbytes);
      ("journal_segments", `I segments_durable);
      ("journal_bytes_bounded", `B true);
      ("early_ckpt_bytes", `I early_ckpt); ("last_ckpt_bytes", `I last_ckpt);
      ("shed_events", `I shed_count); ("shed_burst", `I burst); ("shed_cap", `I shed_cap);
      ("identical_metrics_json", `B true);
    ];
  flush_replay_json ()

(* ------------------------------------------------------------------ *)
(* chaos: disk-fault soak — kill at an injected fault, resume, compare *)
(* ------------------------------------------------------------------ *)

let chaos () =
  let module En = Dmn_engine.Engine in
  let module St = Dmn_dynamic.Stream in
  let module Srv = Dmn_server.Server in
  let module Cs = Dmn_core.Ckpt_store in
  let module J = Dmn_core.Serial.Trace.Journal in
  section "chaos  disk faults: kill mid-soak, resume byte-identically (tentpole PR 9)";
  print_endline
    "The daemon core ingests a stream with deterministic disk-fault\n\
     injection armed on the journal and checkpoint write paths. The\n\
     first injected failure \"kills\" the process (the core is abandoned\n\
     without shutdown — only fsynced state survives). The surviving\n\
     journal chain + newest valid checkpoint generation must then\n\
     produce byte-identical metrics two independent ways — offline\n\
     replay of the journal directory, and a resumed daemon core — at 1\n\
     and 4 domains, and fsck must pass over the surviving state.";
  let record r = replay_records := r :: !replay_records in
  let rng = Rng.create 515 in
  let g = Dmn_graph.Gen.random_geometric rng 60 0.35 in
  let nn = Dmn_graph.Wgraph.n g in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 1.0 8.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.zipf rng ~objects:6 ~n:nn ~requests:(20 * nn) ~s:0.9 ~write_ratio:0.2
  in
  let inst = I.of_graph g ~cs ~fr ~fw in
  let placement = A.solve inst in
  let config =
    { En.default_config with En.policy = En.Resolve; epoch = 200; serve_cache = true }
  in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 21) inst ~length:20_000))
  in
  let clean_prefix = 4_000 in
  let fault_points =
    [
      "trace.append.write"; "trace.append.sync"; "trace.append.short"; "serial.write.write";
      "serial.write.fsync"; "serial.write.rename"; "ckpt.log.write"; "ckpt.log.short";
      "ckpt.log.sync";
    ]
  in
  let run_at domains =
    let journal = temp_dir "dmnet-chaos-journal" in
    let ckpt = temp_dir "dmnet-chaos-ckpt" in
    Fun.protect
      ~finally:(fun () ->
        Fault.disable ();
        List.iter rm_rf [ journal; ckpt ])
      (fun () ->
        Pool.with_pool ~domains (fun pool ->
            let cfg =
              {
                Srv.default_config with
                Srv.engine = config;
                journal = Some journal;
                ckpt = Some { En.dir = ckpt; every = 2; keep = 3 };
                queue_cap = 65536;
              }
            in
            let core = Srv.Core.create ~pool cfg inst placement in
            let fed = ref 0 in
            let crashed = ref false in
            (try
               List.iter
                 (fun it ->
                   incr fed;
                   (* arm the faults only past a clean prefix, so at
                      least one durable checkpoint exists at the kill *)
                   if !fed = clean_prefix then begin
                     Fault.configure ~seed:99 ~rate:0.002 ~points:fault_points ();
                     Fault.reset_counters ()
                   end;
                   ignore (Srv.Core.push core it);
                   if !fed mod 1000 = 0 then Srv.Core.maybe_step core)
                 items;
               Srv.Core.maybe_step core
             with Err.Error _ -> crashed := true);
            Fault.disable ();
            if not !crashed then
              failwith "chaos: no disk fault fired during the soak (raise the rate)";
            (* kill: abandon the core; only fsynced state survives *)
            let loaded = Cs.load ckpt in
            let offline =
              En.metrics_json inst
                (En.run_trace ~pool ~config ~resume:loaded inst placement journal)
            in
            let resumed_core =
              Srv.Core.create ~pool { cfg with Srv.resume = Some loaded } inst placement
            in
            Srv.Core.maybe_step resumed_core;
            Srv.Core.flush resumed_core;
            let resumed = En.metrics_json inst (Srv.Core.result resumed_core) in
            let fallbacks = Srv.Core.ckpt_fallbacks resumed_core in
            Srv.Core.shutdown resumed_core;
            if resumed <> offline then
              failwith
                (Printf.sprintf
                   "chaos: resumed daemon diverged from offline replay at %d domains" domains);
            (* the surviving state must pass fsck (torn tails and
               unreferenced generations are benign kill artifacts) *)
            (match Cs.fsck_res ckpt with
            | Ok _ -> ()
            | Error e -> failwith ("chaos: checkpoint fsck failed: " ^ Err.to_string e));
            (match J.fsck_res journal with
            | Ok _ -> ()
            | Error e -> failwith ("chaos: journal fsck failed: " ^ Err.to_string e));
            Printf.printf
              "  %d domain(s): killed after %d pushed items, resumed from gen %d \
               (%d fallback(s)); resumed == offline replay: true\n"
              domains !fed loaded.Cs.generation fallbacks;
            (!fed, loaded.Cs.generation, fallbacks, resumed)))
  in
  let fed1, gen1, fb1, json1 = run_at 1 in
  let fed4, _, _, json4 = run_at 4 in
  if fed1 <> fed4 then
    failwith
      (Printf.sprintf "chaos: fault schedule diverged across domain counts (%d vs %d items)"
         fed1 fed4);
  if json1 <> json4 then failwith "chaos: resumed metrics diverged across 1 vs 4 domains";
  record
    [
      ("name", `S "disk-chaos"); ("n", `I nn); ("objects", `I 6);
      ("items_at_kill", `I fed1); ("resume_generation", `I gen1);
      ("ckpt_fallbacks", `I fb1); ("resumed_equals_offline", `B true);
      ("identical_across_domains", `B (json1 = json4)); ("fault_rate", `F 0.002);
      ("fault_seed", `I 99);
    ];
  flush_replay_json ()

(* ------------------------------------------------------------------ *)

let all =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("scale", scale); ("replay", replay); ("resolve", resolve); ("tournament", tournament); ("soak", soak); ("chaos", chaos); ("micro", micro);
  ]

let () =
  let requested = match Array.to_list Sys.argv with _ :: rest when rest <> [] -> rest | _ -> List.map fst all in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (have: %s)\n" name
            (String.concat " " (List.map fst all));
          exit 2)
    requested
