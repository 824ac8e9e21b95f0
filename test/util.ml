(* Shared helpers for the test suite: deterministic random instances. *)

open Dmn_prelude
open Dmn_graph

let check_float = Alcotest.(check (float 1e-6))

(* Approximate equality with relative slack for cost comparisons. *)
let check_cost msg expected actual =
  if not (Floatx.approx ~tol:1e-6 expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_leq msg a b =
  if not (Floatx.leq ~tol:1e-6 a b) then Alcotest.failf "%s: %.12g > %.12g" msg a b

(* Random tree-shaped data management instance. *)
let random_tree_instance ?(objects = 1) ?(max_count = 4) ?(zero_cs_prob = 0.1) rng n =
  let g = Gen.random_tree rng n in
  let cs =
    Array.init n (fun _ ->
        if Rng.float rng 1.0 < zero_cs_prob then 0.0 else Rng.float_in rng 0.5 25.0)
  in
  let counts () = Array.init n (fun _ -> Rng.int rng (max_count + 1)) in
  let fr = Array.init objects (fun _ -> counts ()) in
  let fw = Array.init objects (fun _ -> counts ()) in
  Dmn_core.Instance.of_graph g ~cs ~fr ~fw

(* Random general (connected) instance. *)
let random_graph_instance ?(objects = 1) ?(max_count = 4) ?(p = 0.4) rng n =
  let g = Gen.erdos_renyi rng n p in
  let cs = Array.init n (fun _ -> Rng.float_in rng 0.5 25.0) in
  let counts () = Array.init n (fun _ -> Rng.int rng (max_count + 1)) in
  let fr = Array.init objects (fun _ -> counts ()) in
  let fw = Array.init objects (fun _ -> counts ()) in
  Dmn_core.Instance.of_graph g ~cs ~fr ~fw

let qtest = QCheck_alcotest.to_alcotest

(* Remove a file or a directory tree, ignoring what is already gone. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()
