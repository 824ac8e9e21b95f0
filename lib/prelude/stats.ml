let check a name = if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty sample")

let mean a =
  check a "mean";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  check a "variance";
  let m = mean a in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
  acc /. float_of_int (Array.length a)

let stddev a = sqrt (variance a)

let min a =
  check a "min";
  Array.fold_left Float.min a.(0) a

let max a =
  check a "max";
  Array.fold_left Float.max a.(0) a

(* Heap sort specialised to float arrays: the comparisons compile to
   float compares and the sifted value stays unboxed, so a sort calls
   no closure and allocates nothing. *)
let sort_in_place (a : float array) =
  let sift i len =
    let x = Array.unsafe_get a i in
    let i = ref i and sifting = ref true in
    while !sifting do
      let c = (2 * !i) + 1 in
      if c >= len then sifting := false
      else begin
        (* the larger child *)
        let c =
          if c + 1 < len && Array.unsafe_get a (c + 1) > Array.unsafe_get a c then c + 1 else c
        in
        let y = Array.unsafe_get a c in
        if y > x then begin
          Array.unsafe_set a !i y;
          i := c
        end
        else sifting := false
      end
    done;
    Array.unsafe_set a !i x
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let top = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a last);
    Array.unsafe_set a last top;
    sift 0 last
  done

let percentile_sorted b p =
  check b "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let n = Array.length b in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then b.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. b.(lo)) +. (w *. b.(hi))

let percentile a p =
  let b = Array.copy a in
  Array.sort compare b;
  percentile_sorted b p

let median a = percentile a 50.0

let geo_mean a =
  check a "geo_mean";
  let acc =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geo_mean: nonpositive sample";
        acc +. log x)
      0.0 a
  in
  exp (acc /. float_of_int (Array.length a))

let summary a = (mean a, stddev a, min a, median a, max a)
