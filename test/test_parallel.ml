(* The performance layer: domain pool, the metric's shared distance
   order, and the determinism guarantee of the parallel per-object
   solve. *)

open Dmn_prelude
open Dmn_graph
module I = Dmn_core.Instance
module P = Dmn_core.Placement
module C = Dmn_core.Cost
module R = Dmn_core.Radii
module A = Dmn_core.Approx

(* ---------- pool ---------- *)

let pool_matches_array_init () =
  Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun n ->
          Alcotest.(check (array int))
            (Printf.sprintf "parallel_init n=%d" n)
            (Array.init n (fun i -> (i * i) + 1))
            (Pool.parallel_init pool n (fun i -> (i * i) + 1)))
        [ 0; 1; 2; 3; 7; 64; 257 ])

let pool_map_and_iter () =
  Pool.with_pool ~domains:3 (fun pool ->
      let a = Array.init 100 (fun i -> i) in
      Alcotest.(check (array int)) "map" (Array.map (fun x -> 2 * x) a)
        (Pool.parallel_map pool (fun x -> 2 * x) a);
      let slots = Array.make 100 (-1) in
      Pool.parallel_iter pool 100 (fun i -> slots.(i) <- 3 * i);
      Alcotest.(check (array int)) "iter" (Array.init 100 (fun i -> 3 * i)) slots)

let pool_propagates_exceptions () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "task exception" (Invalid_argument "boom") (fun () ->
          ignore
            (Pool.parallel_init pool 50 (fun i ->
                 if i = 17 then invalid_arg "boom" else i)));
      (* the pool survives a failed job *)
      Alcotest.(check (array int)) "reusable" (Array.init 10 (fun i -> i))
        (Pool.parallel_init pool 10 (fun i -> i)))

let pool_nested_calls_run_sequentially () =
  Pool.with_pool ~domains:4 (fun pool ->
      let got =
        Pool.parallel_init pool 6 (fun i ->
            (* a task calling back into a pool must not deadlock *)
            Array.fold_left ( + ) 0 (Pool.parallel_init pool 5 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int)) "nested"
        (Array.init 6 (fun i -> (50 * i) + 10))
        got)

let pool_single_domain () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check (array int)) "sequential pool" (Array.init 20 (fun i -> i))
        (Pool.parallel_init pool 20 (fun i -> i)))

let pool_rejects_bad_sizes () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.create: need at least one domain") (fun () ->
      ignore (Pool.create ~domains:0))

(* ---------- chunked execution ---------- *)

let chunks_cover_range_once () =
  Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun n ->
          List.iter
            (fun chunks ->
              let visits = Array.make (max 1 n) 0 in
              Pool.parallel_chunks pool ~chunks n (fun lo hi ->
                  if lo < 0 || hi > n || lo >= hi then
                    Alcotest.failf "bad chunk [%d, %d) for n=%d" lo hi n;
                  for i = lo to hi - 1 do
                    visits.(i) <- visits.(i) + 1
                  done);
              for i = 0 to n - 1 do
                if visits.(i) <> 1 then
                  Alcotest.failf "n=%d chunks=%d: index %d visited %d times" n chunks i
                    visits.(i)
              done)
            [ 1; 2; 3; 7; 16; 64 ])
        [ 0; 1; 2; 3; 7; 64; 257 ])

let chunks_reject_bad_args () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "negative n"
        (Invalid_argument "Pool.parallel_chunks: negative length") (fun () ->
          Pool.parallel_chunks pool (-1) (fun _ _ -> ()));
      Alcotest.check_raises "zero chunks"
        (Invalid_argument "Pool.parallel_chunks: chunks must be >= 1") (fun () ->
          Pool.parallel_chunks pool ~chunks:0 10 (fun _ _ -> ())))

(* Empty and singleton inputs must not round-trip through the pool: the
   body runs on the submitting domain (or not at all). *)
let empty_and_singleton_short_circuit () =
  Pool.with_pool ~domains:4 (fun pool ->
      let calls = ref 0 in
      Pool.parallel_chunks pool 0 (fun _ _ -> incr calls);
      Alcotest.(check int) "empty range runs nothing" 0 !calls;
      let self = Domain.self () in
      let ran_on = ref None in
      Pool.parallel_chunks pool 1 (fun lo hi ->
          ran_on := Some (Domain.self ());
          Alcotest.(check (pair int int)) "whole range" (0, 1) (lo, hi));
      Alcotest.(check bool) "singleton chunk on submitter" true (!ran_on = Some self);
      Alcotest.(check (array int)) "map []" [||] (Pool.parallel_map pool (fun x -> x) [||]);
      let where = ref None in
      let got =
        Pool.parallel_map pool
          (fun x ->
            where := Some (Domain.self ());
            x * 7)
          [| 6 |]
      in
      Alcotest.(check (array int)) "map singleton" [| 42 |] got;
      Alcotest.(check bool) "singleton map on submitter" true (!where = Some self))

let chunk_plan_reports_split () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (pair int int)) "empty" (0, 0) (Pool.chunk_plan pool 0);
      Alcotest.(check (pair int int)) "singleton" (1, 1) (Pool.chunk_plan pool 1);
      let chunks, chunk_size = Pool.chunk_plan pool 1000 in
      Alcotest.(check int) "default 4x domains" 16 chunks;
      Alcotest.(check int) "ceil split" 63 chunk_size;
      Alcotest.(check (pair int int)) "explicit" (5, 20) (Pool.chunk_plan pool ~chunks:5 100);
      (* more chunks than elements clamp to one element per chunk *)
      Alcotest.(check (pair int int)) "clamped" (3, 1) (Pool.chunk_plan pool ~chunks:64 3));
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check (pair int int)) "1 domain is sequential" (1, 1000)
        (Pool.chunk_plan pool 1000))

let pool_stats_observe_batching () =
  Pool.with_pool ~domains:4 (fun pool ->
      Pool.reset_stats pool;
      Pool.parallel_chunks pool ~chunks:8 64 (fun _ _ -> ());
      let s = Pool.stats pool in
      Alcotest.(check int) "chunks claimed" 8 s.Pool.chunks_claimed;
      Alcotest.(check int) "tasks run" 64 s.Pool.tasks_run;
      ignore (Pool.parallel_init pool 10 Fun.id);
      let s = Pool.stats pool in
      Alcotest.(check int) "tasks accumulate" 74 s.Pool.tasks_run;
      Alcotest.(check bool) "chunks accumulate" true (s.Pool.chunks_claimed > 8);
      Pool.reset_stats pool;
      let s = Pool.stats pool in
      Alcotest.(check int) "reset chunks" 0 s.Pool.chunks_claimed;
      Alcotest.(check int) "reset tasks" 0 s.Pool.tasks_run)

let qcheck_parallel_chunks =
  QCheck.Test.make ~name:"Pool.parallel_chunks = sequential fold" ~count:80
    QCheck.(triple (int_range 0 300) (int_range 1 24) (int_range 1 4))
    (fun (n, chunks, domains) ->
      Pool.with_pool ~domains (fun pool ->
          (* disjoint per-index writes: any interleaving of correct
             chunks reproduces the sequential fold exactly *)
          let got = Array.make (max 1 n) 0 in
          Pool.parallel_chunks pool ~chunks n (fun lo hi ->
              for i = lo to hi - 1 do
                got.(i) <- (i * i) + 1
              done);
          let expect = Array.make (max 1 n) 0 in
          for i = 0 to n - 1 do
            expect.(i) <- (i * i) + 1
          done;
          got = expect))

(* ---------- metric distance order vs seed radii ---------- *)

let topologies rng n =
  [
    ("tree", Gen.random_tree rng n);
    ("ring", Gen.ring n);
    ("grid", Gen.grid 4 (n / 4));
    ("er", Gen.erdos_renyi rng n 0.4);
    ("geometric", Gen.random_geometric rng n 0.5);
  ]

let instance_on rng g ~objects =
  let n = Wgraph.n g in
  let cs =
    Array.init n (fun _ ->
        match Rng.int rng 10 with
        | 0 -> 0.0
        | 1 -> infinity
        | _ -> Rng.float_in rng 0.5 25.0)
  in
  let counts () = Array.init n (fun _ -> Rng.int rng 5) in
  let fr = Array.init objects (fun _ -> counts ()) in
  let fw = Array.init objects (fun _ -> counts ()) in
  I.of_graph g ~cs ~fr ~fw

let radii_equal msg a b =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun v (ra : R.node_radii) ->
      let rb = b.(v) in
      if not (ra.R.rw = rb.R.rw && ra.R.rs = rb.R.rs && ra.R.zs = rb.R.zs) then
        Alcotest.failf "%s: node %d: cached (rw=%.17g rs=%.17g zs=%d) <> reference (rw=%.17g rs=%.17g zs=%d)"
          msg v ra.R.rw ra.R.rs ra.R.zs rb.R.rw rb.R.rs rb.R.zs)
    a

let cached_radii_equal_reference () =
  for seed = 1 to 12 do
    let rng = Rng.create (seed * 613) in
    List.iter
      (fun (name, g) ->
        let inst = instance_on rng g ~objects:3 in
        for x = 0 to I.objects inst - 1 do
          let msg = Printf.sprintf "%s seed=%d x=%d" name seed x in
          radii_equal msg (R.compute inst ~x) (R.compute_reference inst ~x)
        done)
      (topologies rng 16)
  done

let cached_radii_pass_check () =
  let rng = Rng.create 99 in
  List.iter
    (fun (name, g) ->
      let inst = instance_on rng g ~objects:2 in
      for x = 0 to 1 do
        match R.check inst ~x (R.compute inst ~x) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s x=%d: %s" name x e
      done)
    (topologies rng 16)

let profile_order_is_sorted () =
  let rng = Rng.create 7 in
  let inst = instance_on rng (Gen.erdos_renyi rng 24 0.3) ~objects:1 in
  let m = I.metric inst in
  for v = 0 to I.n inst - 1 do
    let order = (Dmn_paths.Metric.order m).(v) in
    Alcotest.(check int) "length" (I.n inst) (Array.length order);
    let sorted = Array.copy order in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "permutation" (Array.init (I.n inst) (fun i -> i)) sorted;
    for i = 1 to Array.length order - 1 do
      let a = order.(i - 1) and b = order.(i) in
      if
        Dmn_paths.Metric.d m v a > Dmn_paths.Metric.d m v b
        || (Dmn_paths.Metric.d m v a = Dmn_paths.Metric.d m v b && a >= b)
      then Alcotest.failf "node %d: order not (distance, id) ascending at %d" v i
    done
  done

(* ---------- parallel solve determinism ---------- *)

let serial_solve ?(config = A.default_config) inst =
  P.make (Array.init (I.objects inst) (fun x -> A.place_object ~config inst ~x))

let placements_equal msg a b =
  Alcotest.(check int) (msg ^ " objects") (P.objects a) (P.objects b);
  for x = 0 to P.objects a - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "%s copies x=%d" msg x)
      (P.copies a ~x) (P.copies b ~x)
  done

let parallel_solve_matches_serial () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          for seed = 1 to 4 do
            let rng = Rng.create (seed * 271) in
            List.iter
              (fun (name, g) ->
                let inst = instance_on rng g ~objects:5 in
                let msg = Printf.sprintf "%s seed=%d domains=%d" name seed domains in
                let serial = serial_solve inst in
                let par = A.solve ~pool inst in
                placements_equal msg serial par;
                (* costs of byte-identical placements are byte-identical *)
                let bs = C.placement_mst inst serial and bp = C.placement_mst inst par in
                if C.total bs <> C.total bp then
                  Alcotest.failf "%s: cost %.17g <> %.17g" msg (C.total bs) (C.total bp))
              (topologies rng 16)
          done))
    [ 1; 2; 4 ]

let chunked_solve_matches_serial () =
  let rng = Rng.create 3117 in
  List.iter
    (fun (name, g) ->
      let inst = instance_on rng g ~objects:7 in
      let serial = serial_solve inst in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              List.iter
                (fun chunks ->
                  placements_equal
                    (Printf.sprintf "%s domains=%d chunks=%d" name domains chunks)
                    serial
                    (A.solve ~pool ~chunks inst))
                [ 1; 2; 3; 7; 16 ]))
        [ 1; 2; 4 ])
    (topologies rng 16)

(* One scratch reused across every object of several instances must
   leave no state behind: results stay equal to the fresh-scratch run. *)
let scratch_reuse_is_stateless () =
  let rng = Rng.create 5150 in
  List.iter
    (fun (name, g) ->
      let inst = instance_on rng g ~objects:4 in
      let ws = R.workspace inst in
      let scratch = A.scratch inst in
      for x = 0 to I.objects inst - 1 do
        let msg = Printf.sprintf "%s x=%d" name x in
        radii_equal msg (R.compute_ws ws inst ~x) (R.compute inst ~x);
        Alcotest.(check (list int))
          (msg ^ " placement")
          (A.place_object inst ~x)
          (A.place_object ~scratch inst ~x)
      done)
    (topologies rng 16)

let metric_nearest_dists_into_matches () =
  let rng = Rng.create 808 in
  let g = Gen.erdos_renyi rng 20 0.4 in
  let m = Dmn_paths.Metric.of_graph g in
  let copies = [ 2; 13 ] in
  let out = Array.make 20 nan in
  Dmn_paths.Metric.nearest_dists_into m copies out;
  Alcotest.(check (array (float 0.0))) "into = fresh" (Dmn_paths.Metric.nearest_dists m copies) out;
  Alcotest.check_raises "small buffer"
    (Invalid_argument "Metric.nearest_dists_into: buffer too small") (fun () ->
      Dmn_paths.Metric.nearest_dists_into m copies (Array.make 5 0.0))

let parallel_metric_matches_floyd () =
  (* the parallel Dijkstra closure agrees with Floyd-Warshall *)
  let rng = Rng.create 4242 in
  let g = Gen.random_geometric rng 30 0.5 in
  let a = Dmn_paths.Metric.to_matrix (Dmn_paths.Metric.of_graph g) in
  let b = Dmn_paths.Metric.to_matrix (Dmn_paths.Metric.of_graph_floyd g) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j x ->
          if not (Floatx.approx ~tol:1e-9 x b.(i).(j)) then
            Alcotest.failf "closure mismatch at (%d,%d)" i j)
        row)
    a

(* ---------- satellite fixes ---------- *)

let trivial_solver_all_infinite_raises () =
  let g = Gen.path 3 in
  let inst =
    I.of_graph g ~cs:[| infinity; infinity; infinity |] ~fr:[| [| 1; 1; 1 |] |]
      ~fw:[| [| 0; 0; 0 |] |]
  in
  let config = { A.default_config with A.solver = A.Trivial } in
  Alcotest.check_raises "all cs infinite"
    (Invalid_argument "Approx.phase1: every node has infinite storage cost, no copy can be placed")
    (fun () -> ignore (A.phase1 ~config inst ~x:0))

let trivial_solver_picks_cheapest_finite () =
  let g = Gen.path 3 in
  let inst =
    I.of_graph g ~cs:[| infinity; 7.0; 3.0 |] ~fr:[| [| 1; 1; 1 |] |] ~fw:[| [| 0; 0; 0 |] |]
  in
  let config = { A.default_config with A.solver = A.Trivial } in
  Alcotest.(check (list int)) "cheapest finite node" [ 2 ] (A.phase1 ~config inst ~x:0)

let metric_nearest_dists_matches_fold () =
  let rng = Rng.create 55 in
  let g = Gen.erdos_renyi rng 20 0.4 in
  let m = Dmn_paths.Metric.of_graph g in
  let copies = [ 3; 11; 17 ] in
  let got = Dmn_paths.Metric.nearest_dists m copies in
  Array.iteri
    (fun v dv ->
      let expect =
        List.fold_left (fun acc c -> Float.min acc (Dmn_paths.Metric.d m v c)) infinity copies
      in
      if dv <> expect then Alcotest.failf "node %d: %.17g <> %.17g" v dv expect)
    got;
  Alcotest.check_raises "empty" (Invalid_argument "Metric.nearest_dists: empty node list")
    (fun () -> ignore (Dmn_paths.Metric.nearest_dists m []))

let cost_fallback_uses_metric_nearest () =
  let rng = Rng.create 56 in
  let g = Gen.erdos_renyi rng 15 0.4 in
  let m = Dmn_paths.Metric.of_graph g in
  let n = 15 in
  let inst =
    I.of_metric m ~cs:(Array.make n 2.0)
      ~fr:[| Array.make n 1 |]
      ~fw:[| Array.make n 0 |]
  in
  let copies = [ 2; 9 ] in
  Alcotest.(check (array (float 0.0)))
    "metric fallback"
    (Dmn_paths.Metric.nearest_dists m copies)
    (C.nearest_dists inst copies)

(* ---------- supervised execution ---------- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let supervised_passthrough () =
  Pool.with_pool ~domains:4 (fun pool ->
      let results, retries = Pool.supervised_init pool 50 (fun i -> i * i) in
      Alcotest.(check int) "no retries without faults" 0 retries;
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d" i) (i * i) v
          | Error _ -> Alcotest.failf "task %d failed without faults" i)
        results;
      Alcotest.(check int) "n=0 ok" 0
        (fst (Pool.supervised_init pool 0 (fun i -> i)) |> Array.length))

let supervised_crash_becomes_error () =
  Pool.with_pool ~domains:2 (fun pool ->
      let supervision = { Pool.default_supervision with Pool.attempts = 2 } in
      let results, retries =
        Pool.supervised_init pool ~supervision 20 (fun i ->
            if i = 7 then failwith "kaboom" else i)
      in
      Alcotest.(check int) "crash retried once" 1 retries;
      (match results.(7) with
      | Error { Pool.index; attempts; error } ->
          Alcotest.(check int) "index" 7 index;
          Alcotest.(check int) "attempts" 2 attempts;
          Alcotest.(check bool) "internal kind" true (error.Err.kind = Err.Internal);
          Alcotest.(check bool) "names the crash" true (contains "kaboom" error.Err.msg)
      | _ -> Alcotest.fail "crashing task did not surface as Error");
      (* the other 19 tasks are unaffected *)
      Array.iteri
        (fun i r -> if i <> 7 && r <> Ok i then Alcotest.failf "task %d corrupted" i)
        results)

let supervised_retry_recovers_from_faults () =
  (* find a seed where task 0's attempt-0 coin fires but attempt 1's
     does not: the supervisor must absorb the fault *)
  let fires cfg a = Fault.would_fail cfg "pool.task" (Pool.attempt_salt 0 a) in
  let seed =
    let rec search s =
      if s > 10_000 then Alcotest.fail "no suitable fault seed found"
      else
        let cfg = { Fault.seed = s; rate = 0.5; points = [ "pool.task" ] } in
        if fires cfg 0 && not (fires cfg 1) then s else search (s + 1)
    in
    search 0
  in
  Fault.configure ~seed ~rate:0.5 ~points:[ "pool.task" ] ();
  Fun.protect ~finally:Fault.disable @@ fun () ->
  Pool.with_pool ~domains:2 (fun pool ->
      (* attempts = 1 reproduces the unsupervised failure exactly *)
      let supervision = { Pool.default_supervision with Pool.attempts = 1 } in
      let results, retries = Pool.supervised_init pool ~supervision 1 (fun i -> i) in
      Alcotest.(check int) "no retries at attempts=1" 0 retries;
      (match results.(0) with
      | Error { Pool.attempts = 1; error; _ } ->
          Alcotest.(check bool) "fault kind" true (error.Err.kind = Err.Fault)
      | _ -> Alcotest.fail "attempt-0 coin must fail the task at attempts=1");
      (* attempts = 2 retries through the same coin and succeeds *)
      let results, retries = Pool.supervised_init pool 1 (fun i -> i * 11) in
      Alcotest.(check int) "one retry" 1 retries;
      match results.(0) with
      | Ok 0 -> ()
      | Ok v -> Alcotest.failf "wrong value %d" v
      | Error _ -> Alcotest.fail "retry did not recover")

let supervised_outcomes_domain_independent () =
  let run domains =
    Fault.configure ~seed:0xFEED ~rate:0.3 ~points:[ "pool.task" ] ();
    Fun.protect ~finally:Fault.disable @@ fun () ->
    Pool.with_pool ~domains (fun pool ->
        let results, retries = Pool.supervised_init pool 80 (fun i -> 3 * i) in
        ( Array.map
            (function
              | Ok v -> `Ok v
              | Error { Pool.index; attempts; error; _ } -> `Err (index, attempts, error.Err.kind))
            results,
          retries ))
  in
  let r1 = run 1 in
  List.iter
    (fun d ->
      if run d <> r1 then Alcotest.failf "supervised outcomes differ at %d domains" d)
    [ 2; 4 ]

let supervised_rejects_bad_supervision () =
  Pool.with_pool ~domains:1 (fun pool ->
      match
        Pool.supervised_init pool
          ~supervision:{ Pool.default_supervision with Pool.attempts = 0 }
          1 Fun.id
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "attempts = 0 accepted")

let qcheck_pool_init =
  QCheck.Test.make ~name:"Pool.parallel_init = Array.init" ~count:60
    QCheck.(pair (int_range 0 200) (int_range 1 4))
    (fun (n, domains) ->
      Pool.with_pool ~domains (fun pool ->
          Pool.parallel_init pool n (fun i -> i * 3) = Array.init n (fun i -> i * 3)))

let suite =
  [
    Alcotest.test_case "pool matches Array.init" `Quick pool_matches_array_init;
    Alcotest.test_case "pool map and iter" `Quick pool_map_and_iter;
    Alcotest.test_case "pool propagates exceptions" `Quick pool_propagates_exceptions;
    Alcotest.test_case "pool nested calls" `Quick pool_nested_calls_run_sequentially;
    Alcotest.test_case "pool single domain" `Quick pool_single_domain;
    Alcotest.test_case "pool rejects bad sizes" `Quick pool_rejects_bad_sizes;
    Alcotest.test_case "chunks cover range once" `Quick chunks_cover_range_once;
    Alcotest.test_case "chunks reject bad args" `Quick chunks_reject_bad_args;
    Alcotest.test_case "empty/singleton short-circuit" `Quick empty_and_singleton_short_circuit;
    Alcotest.test_case "chunk plan" `Quick chunk_plan_reports_split;
    Alcotest.test_case "pool stats observe batching" `Quick pool_stats_observe_batching;
    Alcotest.test_case "cached radii = reference radii" `Quick cached_radii_equal_reference;
    Alcotest.test_case "cached radii pass check" `Quick cached_radii_pass_check;
    Alcotest.test_case "profile order sorted" `Quick profile_order_is_sorted;
    Alcotest.test_case "parallel solve = serial solve (1/2/4 domains)" `Slow
      parallel_solve_matches_serial;
    Alcotest.test_case "parallel closure = floyd" `Quick parallel_metric_matches_floyd;
    Alcotest.test_case "chunked solve = serial solve" `Slow chunked_solve_matches_serial;
    Alcotest.test_case "scratch reuse stateless" `Quick scratch_reuse_is_stateless;
    Alcotest.test_case "metric nearest_dists_into" `Quick metric_nearest_dists_into_matches;
    Alcotest.test_case "trivial solver raises when unplaceable" `Quick
      trivial_solver_all_infinite_raises;
    Alcotest.test_case "trivial solver picks cheapest" `Quick trivial_solver_picks_cheapest_finite;
    Alcotest.test_case "metric nearest_dists" `Quick metric_nearest_dists_matches_fold;
    Alcotest.test_case "cost fallback shares metric nearest" `Quick cost_fallback_uses_metric_nearest;
    Alcotest.test_case "supervised passthrough" `Quick supervised_passthrough;
    Alcotest.test_case "supervised crash -> structured error" `Quick
      supervised_crash_becomes_error;
    Alcotest.test_case "supervised retry recovers" `Quick supervised_retry_recovers_from_faults;
    Alcotest.test_case "supervised outcomes domain-independent" `Quick
      supervised_outcomes_domain_independent;
    Alcotest.test_case "supervised rejects bad supervision" `Quick
      supervised_rejects_bad_supervision;
    Util.qtest qcheck_pool_init;
    Util.qtest qcheck_parallel_chunks;
  ]
