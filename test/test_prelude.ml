open Dmn_prelude

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let b = 1 + Rng.int rng 1000 in
    let v = Rng.int rng b in
    if v < 0 || v >= b then Alcotest.failf "Rng.int out of range: %d not in [0,%d)" v b
  done

let rng_int_in_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "Rng.int_in out of range: %d" v
  done

let rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "Rng.float out of range: %f" v
  done

let rng_int_roughly_uniform () =
  let rng = Rng.create 10 in
  let buckets = Array.make 10 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = samples / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    buckets

let rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let rng_sample_distinct () =
  let rng = Rng.create 12 in
  for _ = 1 to 200 do
    let a = Array.init 20 (fun i -> i) in
    let s = Rng.sample rng a 7 in
    Alcotest.(check int) "size" 7 (Array.length s);
    let l = Array.to_list s in
    Alcotest.(check int) "distinct" 7 (List.length (List.sort_uniq compare l))
  done

let rng_zipf_range_and_skew () =
  let rng = Rng.create 13 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf rng ~n:10 ~s:1.0 in
    if v < 1 || v > 10 then Alcotest.failf "zipf out of range: %d" v;
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true (counts.(0) > counts.(4));
  Alcotest.(check bool) "rank 5 beats rank 10" true (counts.(4) > counts.(9))

let rng_split_independent () =
  let a = Rng.create 77 in
  let b = Rng.split a in
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (va <> vb)

let stats_basics () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Util.check_float "mean" 2.5 (Stats.mean a);
  Util.check_float "variance" 1.25 (Stats.variance a);
  Util.check_float "min" 1.0 (Stats.min a);
  Util.check_float "max" 4.0 (Stats.max a);
  Util.check_float "median" 2.5 (Stats.median a)

let stats_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Util.check_float "p0" 10.0 (Stats.percentile a 0.0);
  Util.check_float "p100" 50.0 (Stats.percentile a 100.0);
  Util.check_float "p50" 30.0 (Stats.percentile a 50.0);
  Util.check_float "p25" 20.0 (Stats.percentile a 25.0)

let stats_geo_mean () =
  Util.check_float "geo" 2.0 (Stats.geo_mean [| 1.0; 2.0; 4.0 |])

let stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean [||]))

let floatx_approx () =
  Alcotest.(check bool) "equal" true (Floatx.approx 1.0 1.0);
  Alcotest.(check bool) "close" true (Floatx.approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx 1.0 1.1);
  Alcotest.(check bool) "relative" true (Floatx.approx 1e12 (1e12 +. 1.0))

let floatx_sum_stable () =
  (* compensated sum of many tiny values plus a big one *)
  let a = Array.make 10_001 1e-10 in
  a.(0) <- 1e10;
  let s = Floatx.sum a in
  Util.check_float "compensated" (1e10 +. 1e-6) s

let tbl_renders () =
  let t = Tbl.create [ "name"; "value" ] in
  Tbl.add_row t [ "alpha"; "1.5" ];
  Tbl.add_row t [ "beta"; "20" ];
  let s = Tbl.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  Alcotest.(check bool) "contains alpha" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  (* all lines same width *)
  let widths = String.split_on_char '\n' s |> List.map String.length in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let tbl_arity_check () =
  let t = Tbl.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tbl.add_row: arity mismatch") (fun () ->
      Tbl.add_row t [ "only-one" ])

let qcheck_rng_bounds =
  QCheck.Test.make ~name:"Rng.int always in range" ~count:1000
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck_stats_mean_bounds =
  QCheck.Test.make ~name:"mean between min and max" ~count:500
    QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun a ->
      let m = Stats.mean a in
      m >= Stats.min a -. 1e-9 && m <= Stats.max a +. 1e-9)

(* One in-place sort read three times must give exactly what three
   copying [percentile] calls give, on the samples the engine sorts:
   non-negative, finite, and full of ties (a few distinct levels,
   +0.0 among them, plus some arbitrary floats). *)
let qcheck_sorted_percentile_matches =
  QCheck.Test.make ~name:"sort_in_place + percentile_sorted = percentile, bit for bit"
    ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 300))
    (fun (seed, len) ->
      let rng = Rng.create seed in
      let levels = 1 + Rng.int rng 6 in
      let a =
        Array.init len (fun _ ->
            if Rng.int rng 4 = 0 then Rng.float rng 100.0
            else float_of_int (Rng.int rng levels) *. 0.7)
      in
      let b = Array.copy a in
      Stats.sort_in_place b;
      let expect = Array.copy a in
      Array.sort compare expect;
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      b = expect
      && (len = 0
         || List.for_all
              (fun p -> same (Stats.percentile a p) (Stats.percentile_sorted b p))
              [ 0.0; 1.0; 50.0; 95.0; 99.0; 100.0; Rng.float rng 100.0 ]))

(* ---------- Metrics ---------- *)

let metrics_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "served" in
  let g = Metrics.gauge reg "load" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set g 2.5;
  Metrics.set g 1.25;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter_value c);
  Util.check_float "gauge keeps last value" 1.25 (Metrics.gauge_value g);
  Alcotest.check_raises "counters are monotonic"
    (Invalid_argument "Metrics.add: counters are monotonic (negative increment)") (fun () ->
      Metrics.add c (-1))

let metrics_duplicate_name_rejected () =
  let reg = Metrics.create () in
  let _ = Metrics.counter reg "x" in
  (match Metrics.gauge reg "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate instrument name accepted");
  (* a second registry is independent *)
  let reg2 = Metrics.create () in
  ignore (Metrics.counter reg2 "x")

let metrics_histogram_buckets_and_quantile () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~lo:1.0 ~base:2.0 ~buckets:8 reg "h" in
  List.iter (Metrics.observe h) [ 0.0; 0.5; 1.5; 3.0; 3.9; 100.0 ];
  Alcotest.(check int) "count" 6 (Metrics.hist_count h);
  Util.check_float "sum" 108.9 (Metrics.hist_sum h);
  (* q=0.5 -> 3rd sample (1.5), in bucket [1,2) whose upper bound is 2 *)
  Util.check_float "median upper bound" 2.0 (Metrics.quantile h 0.5);
  (* top sample lands in a finite bucket upper bound *)
  Alcotest.(check bool) "p100 finite or inf consistent" true (Metrics.quantile h 1.0 > 2.0);
  (match Metrics.observe h Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN observation accepted");
  match List.assoc "h" (Metrics.snapshot reg) with
  | Metrics.Hist { count; sum; buckets } ->
      Alcotest.(check int) "snapshot count" 6 count;
      Util.check_float "snapshot sum" 108.9 sum;
      let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 buckets in
      Alcotest.(check int) "bucket counts partition the samples" 6 total;
      List.iter (fun (lo, hi, n) -> if n > 0 && lo >= hi then Alcotest.fail "bad bucket bounds") buckets
  | _ -> Alcotest.fail "expected a histogram snapshot"

let metrics_snapshot_order_and_json () =
  let mk () =
    let reg = Metrics.create () in
    let c = Metrics.counter reg "first" in
    let g = Metrics.gauge reg "second" in
    let h = Metrics.histogram ~lo:1.0 ~base:2.0 ~buckets:4 reg "third" in
    Metrics.add c 3;
    Metrics.set g 0.5;
    Metrics.observe h 1.5;
    reg
  in
  let snap = Metrics.snapshot (mk ()) in
  Alcotest.(check (list string)) "registration order" [ "first"; "second"; "third" ]
    (List.map fst snap);
  (* same operations -> byte-identical JSON (the engine's determinism
     contract) *)
  Alcotest.(check string) "deterministic JSON" (Metrics.to_json (mk ())) (Metrics.to_json (mk ()));
  let json = Metrics.to_json (mk ()) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter rendered" true (contains "\"first\": 3" json);
  Alcotest.(check bool) "histogram rendered" true (contains "\"count\": 1" json)

let metrics_json_floats () =
  Alcotest.(check string) "integral floats compact" "42" (Metrics.json_float 42.0);
  Alcotest.(check string) "negative integral" "-3" (Metrics.json_float (-3.0));
  let pi = Metrics.json_float 3.125 in
  Alcotest.(check bool) "non-integral round-trips" true (float_of_string pi = 3.125)

let metrics_counter_hammered_from_domains () =
  (* counters are Atomic-backed: 4 domains incrementing concurrently
     must lose nothing *)
  let reg = Metrics.create () in
  let c = Metrics.counter reg "hits" in
  let per_domain = 25_000 in
  let workers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              if (i + d) land 1 = 0 then Metrics.incr c else Metrics.add c 1
            done))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "exact total" (4 * per_domain) (Metrics.counter_value c)

let metrics_hist_dump_restore () =
  let mk () =
    let reg = Metrics.create () in
    (reg, Metrics.histogram ~lo:1.0 ~base:2.0 ~buckets:10 reg "h")
  in
  let reg, h = mk () in
  let rng = Rng.create 31 in
  for _ = 1 to 500 do
    Metrics.observe h (Rng.float rng 100.0)
  done;
  let lo, base, nb = Metrics.hist_params h in
  Util.check_float "lo" 1.0 lo;
  Util.check_float "base" 2.0 base;
  Alcotest.(check int) "buckets" 10 nb;
  let reg2, h2 = mk () in
  Metrics.hist_restore h2 ~counts:(Metrics.hist_buckets h) ~sum:(Metrics.hist_sum h);
  Alcotest.(check int) "count restored" (Metrics.hist_count h) (Metrics.hist_count h2);
  Util.check_float "sum restored" (Metrics.hist_sum h) (Metrics.hist_sum h2);
  List.iter
    (fun q -> Util.check_float (Printf.sprintf "q%.2f" q) (Metrics.quantile h q) (Metrics.quantile h2 q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  Alcotest.(check string) "snapshot JSON identical" (Metrics.to_json reg) (Metrics.to_json reg2);
  (match Metrics.hist_restore h2 ~counts:[| 1 |] ~sum:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket-count mismatch accepted");
  match Metrics.hist_restore h2 ~counts:(Array.make 10 (-1)) ~sum:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bucket count accepted"

let crc32_known_values () =
  (* the standard CRC-32 check value, plus structure properties the
     checkpoint format relies on *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  Alcotest.(check int32) "streaming = one-shot" (Crc32.digest "hello world")
    (Crc32.update (Crc32.digest "hello ") "world");
  Alcotest.(check string) "hex rendering" "cbf43926" (Crc32.to_hex (Crc32.digest "123456789"));
  Alcotest.(check (option int32)) "hex roundtrip" (Some 0xCBF43926l) (Crc32.of_hex_opt "cbf43926");
  Alcotest.(check (option int32)) "short rejected" None (Crc32.of_hex_opt "cbf4392");
  Alcotest.(check (option int32)) "long rejected" None (Crc32.of_hex_opt "cbf439261");
  Alcotest.(check (option int32)) "non-hex rejected" None (Crc32.of_hex_opt "cbf4392g");
  (* single-bit damage is detected *)
  let s = "section meta 8 deadbeef" in
  let flipped = Bytes.of_string s in
  Bytes.set flipped 3 (Char.chr (Char.code (Bytes.get flipped 3) lxor 1));
  Alcotest.(check bool) "bit flip changes digest" false
    (Crc32.digest s = Crc32.digest (Bytes.to_string flipped))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick rng_seeds_differ;
    Alcotest.test_case "rng int bounds" `Quick rng_int_bounds;
    Alcotest.test_case "rng int_in bounds" `Quick rng_int_in_bounds;
    Alcotest.test_case "rng float bounds" `Quick rng_float_bounds;
    Alcotest.test_case "rng uniformity" `Quick rng_int_roughly_uniform;
    Alcotest.test_case "rng shuffle permutes" `Quick rng_shuffle_permutes;
    Alcotest.test_case "rng sample distinct" `Quick rng_sample_distinct;
    Alcotest.test_case "rng zipf skew" `Quick rng_zipf_range_and_skew;
    Alcotest.test_case "rng split" `Quick rng_split_independent;
    Alcotest.test_case "stats basics" `Quick stats_basics;
    Alcotest.test_case "stats percentile" `Quick stats_percentile;
    Alcotest.test_case "stats geo mean" `Quick stats_geo_mean;
    Alcotest.test_case "stats empty raises" `Quick stats_empty_raises;
    Alcotest.test_case "floatx approx" `Quick floatx_approx;
    Alcotest.test_case "floatx compensated sum" `Quick floatx_sum_stable;
    Alcotest.test_case "tbl renders rectangular" `Quick tbl_renders;
    Alcotest.test_case "tbl arity check" `Quick tbl_arity_check;
    Alcotest.test_case "metrics counter/gauge" `Quick metrics_counter_gauge;
    Alcotest.test_case "metrics duplicate name" `Quick metrics_duplicate_name_rejected;
    Alcotest.test_case "metrics histogram buckets" `Quick metrics_histogram_buckets_and_quantile;
    Alcotest.test_case "metrics snapshot order + json" `Quick metrics_snapshot_order_and_json;
    Alcotest.test_case "metrics json floats" `Quick metrics_json_floats;
    Alcotest.test_case "metrics counter 4-domain hammer" `Quick metrics_counter_hammered_from_domains;
    Alcotest.test_case "metrics histogram dump/restore" `Quick metrics_hist_dump_restore;
    Alcotest.test_case "crc32 known values" `Quick crc32_known_values;
    Util.qtest qcheck_rng_bounds;
    Util.qtest qcheck_stats_mean_bounds;
    Util.qtest qcheck_sorted_percentile_matches;
  ]
