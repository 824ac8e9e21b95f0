open Dmn_prelude
open Dmn_graph
open Dmn_paths

let idx_heap_decrease_key () =
  let h = Idx_heap.create 10 in
  Idx_heap.insert h 3 5.0;
  Idx_heap.insert h 7 2.0;
  Idx_heap.insert h 1 9.0;
  Idx_heap.decrease h 1 1.0;
  Alcotest.(check (pair int (float 1e-9))) "min after decrease" (1, 1.0) (Idx_heap.pop_min h);
  Alcotest.(check (pair int (float 1e-9))) "next" (7, 2.0) (Idx_heap.pop_min h);
  Idx_heap.insert_or_decrease h 3 10.0 (* no-op: not lower *);
  Alcotest.(check (pair int (float 1e-9))) "unchanged" (3, 5.0) (Idx_heap.pop_min h)

let idx_heap_sorts_random () =
  let rng = Rng.create 22 in
  for _ = 1 to 20 do
    let n = 1 + Rng.int rng 200 in
    let h = Idx_heap.create n in
    let prio = Array.init n (fun _ -> Rng.float rng 1000.0) in
    Array.iteri (fun k p -> Idx_heap.insert h k p) prio;
    (* random decreases *)
    for _ = 1 to n / 2 do
      let k = Rng.int rng n in
      if Idx_heap.mem h k then begin
        let p = Idx_heap.priority h k /. 2.0 in
        Idx_heap.decrease h k p;
        prio.(k) <- p
      end
    done;
    let last = ref neg_infinity in
    while not (Idx_heap.is_empty h) do
      let k, p = Idx_heap.pop_min h in
      Util.check_float "priority recorded" prio.(k) p;
      Util.check_leq "monotone pops" !last p;
      last := p
    done
  done

let dijkstra_line () =
  let g = Gen.path 5 in
  let r = Dijkstra.run g 0 in
  Array.iteri (fun v d -> Util.check_float "line dist" (float_of_int v) d) r.Dijkstra.dist;
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (Dijkstra.path r 3)

let dijkstra_vs_floyd () =
  let rng = Rng.create 23 in
  for _ = 1 to 15 do
    let n = 2 + Rng.int rng 25 in
    let g = Gen.erdos_renyi rng n 0.3 in
    let m1 = Metric.of_graph g and m2 = Metric.of_graph_floyd g in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        Util.check_cost "dijkstra == floyd" (Metric.d m2 u v) (Metric.d m1 u v)
      done
    done
  done

let dijkstra_multi_source () =
  let rng = Rng.create 24 in
  for _ = 1 to 15 do
    let n = 3 + Rng.int rng 25 in
    let g = Gen.erdos_renyi rng n 0.3 in
    let k = 1 + Rng.int rng (n - 1) in
    let sources = Array.to_list (Rng.sample rng (Array.init n (fun i -> i)) k) in
    let multi = Dijkstra.multi g sources in
    let singles = List.map (fun s -> (Dijkstra.run g s).Dijkstra.dist) sources in
    for v = 0 to n - 1 do
      let expected = List.fold_left (fun acc d -> Float.min acc d.(v)) infinity singles in
      Util.check_cost "multi = min of singles" expected multi.Dijkstra.dist.(v);
      (* the serving source must actually achieve the distance *)
      let s = multi.Dijkstra.source.(v) in
      Alcotest.(check bool) "source is a source" true (List.mem s sources)
    done
  done

let dijkstra_path_valid () =
  let rng = Rng.create 25 in
  for _ = 1 to 15 do
    let n = 2 + Rng.int rng 20 in
    let g = Gen.erdos_renyi rng n 0.3 in
    let r = Dijkstra.run g 0 in
    for v = 0 to n - 1 do
      let p = Dijkstra.path r v in
      (* consecutive nodes joined by edges; weights sum to dist *)
      let rec walk acc = function
        | a :: (b :: _ as rest) -> walk (acc +. Wgraph.edge_weight g a b) rest
        | _ -> acc
      in
      Util.check_cost "path weight = dist" r.Dijkstra.dist.(v) (walk 0.0 p);
      Alcotest.(check int) "starts at source" 0 (List.hd p)
    done
  done

let bfs_hops_match () =
  let g = Gen.grid 3 3 in
  let h = Wgraph.bfs_hops g 0 in
  Alcotest.(check int) "corner to corner" 4 h.(8);
  Alcotest.(check int) "eccentricity" 4 (Array.fold_left max 0 h);
  Alcotest.(check bool) "all reachable" true (Array.for_all (fun d -> d >= 0) h)

(* [Metric.order] against a fresh (distance, id) sort, after every kind
   of in-place repair, a copy and a clamp: the memo must never serve a
   table that predates a version bump. Integer weights make ties
   common; dropping half the edges makes partitions (infinite
   distances). *)
let fresh_order m =
  Array.init (Metric.size m) (fun v ->
      let idx = Array.init (Metric.size m) Fun.id in
      Array.sort (fun a b -> compare (Metric.d m v a, a) (Metric.d m v b, b)) idx;
      idx)

let qcheck_order_tracks_repairs =
  QCheck.Test.make ~name:"Metric.order = fresh (d, u) sort after every repair" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 10 in
      let g =
        Wgraph.map_weights
          (fun _ _ _ -> float_of_int (1 + Rng.int rng 3))
          (Gen.erdos_renyi rng n 0.3)
      in
      let edges = Wgraph.edges g and all = List.init n Fun.id in
      let m = Metric.of_graph g in
      let ok = ref true in
      let check m = ok := !ok && Metric.order m = fresh_order m in
      check m;
      for _ = 1 to 6 do
        (match Rng.int rng 4 with
        | 0 ->
            Metric.relax_edge m ~u:(Rng.int rng n) ~v:(Rng.int rng n)
              ~w:(float_of_int (Rng.int rng 3))
        | 1 ->
            let u, v, w = List.nth edges (Rng.int rng (List.length edges)) in
            Metric.recompute_rows m (Wgraph.with_edge_weight g u v (w +. 2.0)) all
        | 2 ->
            let kept = List.filter (fun _ -> Rng.bool rng) edges in
            Metric.recompute_rows m (Wgraph.create n kept) all
        | _ -> Metric.touch m);
        check m;
        let c = Metric.copy m in
        check c;
        Metric.relax_edge c ~u:0 ~v:(n - 1) ~w:0.0;
        check c;
        check m;
        check (Metric.clamp_infinite m ~limit:(Metric.max_finite m +. 1.0))
      done;
      !ok)

let metric_axioms () =
  let rng = Rng.create 26 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 20 in
    let g = Gen.erdos_renyi rng n 0.3 in
    let m = Metric.of_graph g in
    let mat = Metric.to_matrix m in
    (match Metric.is_metric mat with
    | Ok () -> ()
    | Error e -> Alcotest.failf "closure not a metric: %s" e);
    (* closure distances never exceed direct edges *)
    List.iter
      (fun (u, v, w) -> Util.check_leq "closure <= edge" (Metric.d m u v) w)
      (Wgraph.edges g)
  done

let metric_of_matrix_validates () =
  let bad = [| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |] in
  (match Metric.is_metric bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "asymmetric matrix accepted");
  let triangle_bad = [| [| 0.0; 1.0; 5.0 |]; [| 1.0; 0.0; 1.0 |]; [| 5.0; 1.0; 0.0 |] |] in
  match Metric.is_metric triangle_bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "triangle violation accepted"

let metric_of_points () =
  let m = Metric.of_points [| (0.0, 0.0); (3.0, 4.0); (0.0, 1.0) |] in
  Util.check_float "euclid" 5.0 (Metric.d m 0 1);
  Util.check_float "euclid2" 1.0 (Metric.d m 0 2);
  let u, d = Metric.nearest m 0 [ 1; 2 ] in
  Alcotest.(check int) "nearest" 2 u;
  Util.check_float "nearest dist" 1.0 d

let metric_of_points_rejects_nonfinite () =
  Alcotest.check_raises "nan coordinate"
    (Invalid_argument "Metric.of_points: point 1 has non-finite coordinates (nan, 0)") (fun () ->
      ignore (Metric.of_points [| (0.0, 0.0); (Float.nan, 0.0) |]));
  Alcotest.check_raises "infinite coordinate"
    (Invalid_argument "Metric.of_points: point 0 has non-finite coordinates (0, inf)") (fun () ->
      ignore (Metric.of_points [| (0.0, infinity); (1.0, 0.0) |]))

let metric_scale () =
  let m = Metric.of_points [| (0.0, 0.0); (1.0, 0.0) |] in
  let m2 = Metric.scale 3.0 m in
  Util.check_float "scaled" 3.0 (Metric.d m2 0 1)

let qcheck_triangle =
  QCheck.Test.make ~name:"closure satisfies triangle inequality" ~count:60
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.2 in
      let m = Metric.of_graph g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if Metric.d m i j > Metric.d m i k +. Metric.d m k j +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

(* Flat row-major storage must hold exactly what the matrix interface
   reports: every accessor — d, unsafe_d, the row view, and a matrix
   round-trip — agrees bit for bit on random closures. *)
let qcheck_flat_matrix =
  QCheck.Test.make ~name:"flat storage == matrix metric, entry for entry" ~count:60
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.25 in
      let m = Metric.of_graph g in
      let m2 = Metric.of_matrix (Metric.to_matrix m) in
      let ok = ref true in
      for v = 0 to n - 1 do
        let r = Metric.row m v in
        for u = 0 to n - 1 do
          let d = Metric.d m v u in
          if
            not
              (Float.equal d (Metric.d m2 v u)
              && Float.equal d (Metric.unsafe_d m v u)
              && Float.equal d (Metric.row_get r u))
          then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "idx heap decrease-key" `Quick idx_heap_decrease_key;
    Alcotest.test_case "idx heap random" `Quick idx_heap_sorts_random;
    Alcotest.test_case "dijkstra line" `Quick dijkstra_line;
    Alcotest.test_case "dijkstra vs floyd-warshall" `Quick dijkstra_vs_floyd;
    Alcotest.test_case "multi-source dijkstra" `Quick dijkstra_multi_source;
    Alcotest.test_case "dijkstra paths valid" `Quick dijkstra_path_valid;
    Alcotest.test_case "bfs hops" `Quick bfs_hops_match;
    Util.qtest qcheck_order_tracks_repairs;
    Alcotest.test_case "metric axioms" `Quick metric_axioms;
    Alcotest.test_case "metric validation" `Quick metric_of_matrix_validates;
    Alcotest.test_case "euclidean metric" `Quick metric_of_points;
    Alcotest.test_case "of_points rejects non-finite" `Quick metric_of_points_rejects_nonfinite;
    Alcotest.test_case "metric scale" `Quick metric_scale;
    Util.qtest qcheck_triangle;
    Util.qtest qcheck_flat_matrix;
  ]
