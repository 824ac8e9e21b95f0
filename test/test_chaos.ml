(* Deterministic fault-injection (chaos) tests.

   The base seed defaults to a fixed value and can be randomized from
   the environment (CI's scheduled job exports DMNET_FAULT_SEED); it is
   printed so any failure is reproducible. Every test restores the
   disabled state on exit so the rest of the suite runs fault-free. *)

open Dmn_prelude
module I = Dmn_core.Instance
module P = Dmn_core.Placement
module A = Dmn_core.Approx
module S = Dmn_core.Serial

let base_seed =
  match Option.bind (Sys.getenv_opt "DMNET_FAULT_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 0xC0FFEE

let () = Printf.printf "chaos: DMNET_FAULT_SEED base %d\n%!" base_seed

let with_faults ?seed ?rate ?points f =
  Fault.configure ?seed ?rate ?points ();
  Fun.protect ~finally:Fault.disable f

let is_fault (e : Err.t) = e.Err.kind = Err.Fault

(* ---------- the coin itself ---------- *)

let coin_is_deterministic () =
  let cfg = { Fault.seed = base_seed; rate = 0.3; points = [] } in
  for salt = 0 to 200 do
    Alcotest.(check bool) "stable"
      (Fault.would_fail cfg "pool.task" salt)
      (Fault.would_fail cfg "pool.task" salt)
  done;
  (* roughly [rate] of the coins fire *)
  let fired = ref 0 in
  for salt = 0 to 9999 do
    if Fault.would_fail cfg "pool.task" salt then incr fired
  done;
  if !fired < 2000 || !fired > 4000 then
    Alcotest.failf "rate 0.3 fired %d / 10000 times" !fired;
  (* point filtering *)
  let only = { cfg with Fault.points = [ "serial.read" ] } in
  Alcotest.(check bool) "filtered out" false (Fault.would_fail only "pool.task" 0)

(* ---------- pool chaos at 1 / 2 / 4 domains ---------- *)

(* A job fails iff some task index rolls the injection coin; the
   failure surfaces exactly once in the submitter (as the job's result)
   and the pool stays usable. The outcome class must be identical at
   every domain count. *)
let pool_chaos () =
  let n = 60 in
  List.iter
    (fun trial ->
      let seed = base_seed + trial in
      let cfg = { Fault.seed; rate = 0.05; points = [ "pool.task" ] } in
      let expect_fail =
        List.exists (fun i -> Fault.would_fail cfg "pool.task" i) (List.init n Fun.id)
      in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let outcome =
                with_faults ~seed ~rate:0.05 ~points:[ "pool.task" ] (fun () ->
                    match Pool.parallel_init pool n (fun i -> 2 * i) with
                    | a -> Ok a
                    | exception Err.Error e when is_fault e -> Error e)
              in
              (match outcome with
              | Ok a ->
                  if expect_fail then
                    Alcotest.failf "trial %d domains %d: expected injected failure" trial domains;
                  Alcotest.(check (array int)) "payload" (Array.init n (fun i -> 2 * i)) a
              | Error _ ->
                  if not expect_fail then
                    Alcotest.failf "trial %d domains %d: unexpected injected failure" trial
                      domains);
              (* faults are now disabled: the pool must be fully usable *)
              Alcotest.(check (array int))
                (Printf.sprintf "pool reusable (trial %d, domains %d)" trial domains)
                (Array.init 10 Fun.id)
                (Pool.parallel_init pool 10 Fun.id)))
        [ 1; 2; 4 ])
    (List.init 8 Fun.id)

(* ---------- Approx.solve under injection ---------- *)

(* With faults at 10%, a solve either completes bit-identical to the
   fault-free serial result or fails cleanly with the injected error —
   and repeated runs with one seed give the same outcome class at every
   domain count. *)
let solve_under_injection () =
  let rng = Rng.create 424242 in
  let inst = Util.random_graph_instance ~objects:4 rng 14 in
  let baseline =
    P.make (Array.init (I.objects inst) (fun x -> A.place_object inst ~x))
  in
  let placements_equal a b =
    P.objects a = P.objects b
    && List.for_all (fun x -> P.copies a ~x = P.copies b ~x) (List.init (P.objects a) Fun.id)
  in
  List.iter
    (fun trial ->
      let seed = base_seed + (31 * trial) in
      let classes =
        List.map
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                let run () =
                  with_faults ~seed ~rate:0.1 ~points:[ "pool.task" ] (fun () ->
                      match A.solve ~pool inst with
                      | p -> Ok p
                      | exception Err.Error e when is_fault e -> Error e)
                in
                let first = run () and second = run () in
                (match (first, second) with
                | Ok a, Ok b ->
                    if not (placements_equal a b) then
                      Alcotest.failf "trial %d domains %d: non-deterministic success" trial domains
                | Error _, Error _ -> ()
                | _ ->
                    Alcotest.failf "trial %d domains %d: outcome class changed between runs" trial
                      domains);
                match first with
                | Ok p ->
                    if not (placements_equal p baseline) then
                      Alcotest.failf
                        "trial %d domains %d: survived faults but differs from fault-free serial"
                        trial domains;
                    `Complete
                | Error _ -> `Fail))
          [ 1; 2; 4 ]
      in
      match classes with
      | [ a; b; c ] when a = b && b = c -> ()
      | _ -> Alcotest.failf "trial %d: outcome class depends on the domain count" trial)
    (List.init 6 Fun.id);
  (* boundary rates pin both outcome classes regardless of seed *)
  Pool.with_pool ~domains:4 (fun pool ->
      (match
         with_faults ~seed:base_seed ~rate:1.0 ~points:[ "pool.task" ] (fun () ->
             match A.solve ~pool inst with
             | p -> Ok p
             | exception Err.Error e when is_fault e -> Error e)
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "rate 1.0: solve survived total injection");
      match
        with_faults ~seed:base_seed ~rate:0.0 ~points:[ "pool.task" ] (fun () -> A.solve ~pool inst)
      with
      | p ->
          if not (placements_equal p baseline) then
            Alcotest.fail "rate 0.0: differs from fault-free serial baseline"
      | exception Err.Error e -> Alcotest.failf "rate 0.0 injected: %s" (Err.to_string e))

(* ---------- chunking independence ---------- *)

(* Fault coins are salted per element, not per chunk: at 10% injection
   the outcome class of a chunked solve must not depend on the chunk
   count or the domain count, and successes stay bit-identical to the
   fault-free serial baseline. *)
let chunking_preserves_fault_outcomes () =
  let rng = Rng.create 535353 in
  let inst = Util.random_graph_instance ~objects:12 rng 12 in
  let baseline =
    P.make (Array.init (I.objects inst) (fun x -> A.place_object inst ~x))
  in
  let placements_equal a b =
    P.objects a = P.objects b
    && List.for_all (fun x -> P.copies a ~x = P.copies b ~x) (List.init (P.objects a) Fun.id)
  in
  List.iter
    (fun trial ->
      let seed = base_seed + (97 * trial) in
      let classes =
        List.concat_map
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                List.map
                  (fun chunks ->
                    match
                      with_faults ~seed ~rate:0.1 ~points:[ "pool.task" ] (fun () ->
                          A.solve ~pool ~chunks inst)
                    with
                    | p ->
                        if not (placements_equal p baseline) then
                          Alcotest.failf
                            "trial %d domains %d chunks %d: differs from fault-free serial"
                            trial domains chunks;
                        `Complete
                    | exception Err.Error e when is_fault e -> `Fail)
                  [ 1; 2; 5; 12 ]))
          [ 1; 2; 4 ]
      in
      match classes with
      | first :: rest ->
          if not (List.for_all (fun c -> c = first) rest) then
            Alcotest.failf "trial %d: outcome class depends on chunking or domain count" trial
      | [] -> assert false)
    (List.init 6 Fun.id)

(* ---------- crash-safe writes under injection ---------- *)

let in_dir f =
  let dir = Filename.temp_file "dmnet-chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let no_temp_leftovers dir =
  Array.iter
    (fun f ->
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length f && (String.sub f i n = sub || go (i + 1)) in
        go 0
      in
      if has ".tmp." then Alcotest.failf "temp file left behind: %s" f)
    (Sys.readdir dir)

(* Injecting a failure at each individual write stage must leave the
   previous contents intact and clean up the temp file. *)
let write_atomic_per_point () =
  in_dir (fun dir ->
      let path = Filename.concat dir "data.txt" in
      S.write_file path "generation-one";
      List.iter
        (fun point ->
          (match
             with_faults ~seed:base_seed ~rate:1.0 ~points:[ point ] (fun () ->
                 S.write_file_res path "generation-two")
           with
          | Error e when is_fault e -> ()
          | Error e -> Alcotest.failf "%s: wrong error kind: %s" point (Err.kind_name e.Err.kind)
          | Ok () -> Alcotest.failf "%s: write succeeded under rate-1.0 injection" point);
          Alcotest.(check string)
            (Printf.sprintf "contents intact after %s" point)
            "generation-one" (Err.get_ok (S.read_file_res path));
          no_temp_leftovers dir)
        [ "serial.write.open"; "serial.write.write"; "serial.write.fsync"; "serial.write.rename" ];
      (* and with faults off the replacement goes through *)
      S.write_file path "generation-two";
      Alcotest.(check string) "replacement lands" "generation-two"
        (Err.get_ok (S.read_file_res path)))

(* Randomized write/read chaos: whatever is injected, a reader always
   sees a complete previous or complete next generation. *)
let write_chaos_randomized () =
  in_dir (fun dir ->
      let path = Filename.concat dir "gen.txt" in
      let contents g = Printf.sprintf "generation %d\n%s\n" g (String.make 256 'x') in
      S.write_file path (contents 0);
      let current = ref 0 in
      for step = 1 to 40 do
        let seed = base_seed + (977 * step) in
        (match
           with_faults ~seed ~rate:0.5
             ~points:[ "serial.write.open"; "serial.write.write"; "serial.write.fsync";
                       "serial.write.rename" ]
             (fun () -> S.write_file_res path (contents step))
         with
        | Ok () -> current := step
        | Error e when is_fault e -> ()
        | Error e -> Alcotest.failf "step %d: unexpected error %s" step (Err.to_string e));
        Alcotest.(check string)
          (Printf.sprintf "step %d reads a complete generation" step)
          (contents !current) (Err.get_ok (S.read_file_res path));
        no_temp_leftovers dir
      done)

let read_injection () =
  in_dir (fun dir ->
      let path = Filename.concat dir "r.txt" in
      S.write_file path "payload";
      match
        with_faults ~seed:base_seed ~rate:1.0 ~points:[ "serial.read" ] (fun () ->
            S.read_file_res path)
      with
      | Error e when is_fault e ->
          Alcotest.(check string) "readable after disable" "payload"
            (Err.get_ok (S.read_file_res path))
      | Error e -> Alcotest.failf "wrong error kind: %s" (Err.kind_name e.Err.kind)
      | Ok _ -> Alcotest.fail "read succeeded under rate-1.0 injection")

let suite =
  [
    Alcotest.test_case "fault coin deterministic" `Quick coin_is_deterministic;
    Alcotest.test_case "pool chaos (1/2/4 domains)" `Quick pool_chaos;
    Alcotest.test_case "solve under 10% injection" `Slow solve_under_injection;
    Alcotest.test_case "chunking preserves fault outcomes" `Slow chunking_preserves_fault_outcomes;
    Alcotest.test_case "atomic write per injection point" `Quick write_atomic_per_point;
    Alcotest.test_case "randomized write chaos" `Quick write_chaos_randomized;
    Alcotest.test_case "read injection" `Quick read_injection;
  ]
