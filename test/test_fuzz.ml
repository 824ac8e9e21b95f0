(* Parser fuzzing: every mutilated input must come back as a structured
   [Err.t] (or parse fine) — never as a raw stdlib exception such as
   [Failure "int_of_string"] or an [Invalid_argument] escaping from a
   constructor, and never as a runaway allocation from a tampered
   header. *)

open Dmn_prelude
module I = Dmn_core.Instance
module P = Dmn_core.Placement
module S = Dmn_core.Serial

let corpus_seed = 20260806

(* ---------- mutations ---------- *)

let truncate rng s =
  if String.length s = 0 then s else String.sub s 0 (Rng.int rng (String.length s))

let bit_flip rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8) land 0xff));
    Bytes.to_string b
  end

(* Swap two whitespace-separated tokens in place, keeping the line
   structure intact otherwise. *)
let token_swap rng s =
  let lines = String.split_on_char '\n' s in
  let toks =
    List.concat_map (fun l -> String.split_on_char ' ' l |> List.filter (( <> ) "")) lines
  in
  match Array.of_list toks with
  | [||] -> s
  | a ->
      let i = Rng.int rng (Array.length a) and j = Rng.int rng (Array.length a) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      (* re-join with the original per-line token counts *)
      let k = ref 0 in
      lines
      |> List.map (fun l ->
             let cnt = String.split_on_char ' ' l |> List.filter (( <> ) "") |> List.length in
             let row = Array.sub a !k (min cnt (Array.length a - !k)) in
             k := !k + Array.length row;
             String.concat " " (Array.to_list row))
      |> String.concat "\n"

let header_tamper rng s =
  let lines = String.split_on_char '\n' s in
  let tampered =
    match Rng.int rng 5 with
    | 0 -> [ "dmnet-instance v2" ]
    | 1 -> [ "dmnet-Instance v1" ]
    | 2 -> [ "totally-not-dmnet" ]
    | 3 -> [ "dmnet-instance v1"; "999999999 999999999 999999999" ]
    | _ -> []
  in
  match lines with
  | _ :: rest when Rng.int rng 2 = 0 -> String.concat "\n" (tampered @ rest)
  | _ :: _ :: rest -> String.concat "\n" (tampered @ rest)
  | _ -> String.concat "\n" tampered

let mutate rng s =
  match Rng.int rng 4 with
  | 0 -> truncate rng s
  | 1 -> bit_flip rng s
  | 2 -> token_swap rng s
  | _ -> header_tamper rng s

(* ---------- the property ---------- *)

let shown s = if String.length s <= 120 then s else String.sub s 0 120 ^ "..."

let well_behaved what parse s =
  match parse s with
  | Ok _ -> ()
  | Error (_ : Err.t) -> ()
  | exception e ->
      Alcotest.failf "%s: raw exception %s on input %S" what (Printexc.to_string e) (shown s)

let instance_corpus rng =
  List.init 12 (fun i ->
      let n = 2 + Rng.int rng 10 in
      S.instance_to_string (Util.random_graph_instance ~objects:(1 + (i mod 3)) rng n))

let placement_corpus rng =
  List.init 12 (fun _ ->
      let objects = 1 + Rng.int rng 4 in
      let copies =
        Array.init objects (fun _ -> List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng 12))
      in
      S.placement_to_string (P.make copies))

(* 1000 mutated files through the two parsers: 600 instances, 400
   placements. Each input gets 1-3 stacked mutations. *)
let fuzz_structured_errors () =
  let rng = Rng.create corpus_seed in
  let run what parse corpus count =
    let corpus = Array.of_list corpus in
    for _ = 1 to count do
      let s = ref (Rng.pick rng corpus) in
      for _ = 0 to Rng.int rng 3 do
        s := mutate rng !s
      done;
      well_behaved what parse !s
    done
  in
  run "instance" (fun s -> S.instance_of_string_res s) (instance_corpus rng) 600;
  run "placement" (fun s -> S.placement_of_string_res s) (placement_corpus rng) 400

(* Pure garbage (random bytes) should also only yield structured
   errors. *)
let fuzz_random_bytes () =
  let rng = Rng.create (corpus_seed + 1) in
  for _ = 1 to 100 do
    let len = Rng.int rng 200 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    well_behaved "instance" (fun s -> S.instance_of_string_res s) s;
    well_behaved "placement" (fun s -> S.placement_of_string_res s) s
  done

(* ---------- round-trip properties ---------- *)

let instance_roundtrip_property =
  QCheck.Test.make ~name:"instance round-trips through Serial" ~count:40
    QCheck.(pair (int_range 2 14) (int_range 1 3))
    (fun (n, objects) ->
      let rng = Rng.create ((n * 1009) + objects) in
      let inst = Util.random_graph_instance ~objects rng n in
      let inst2 = Err.get_ok (S.instance_of_string_res (S.instance_to_string inst)) in
      I.n inst = I.n inst2
      && I.objects inst = I.objects inst2
      && List.for_all
           (fun v ->
             I.cs inst v = I.cs inst2 v
             && List.for_all
                  (fun x ->
                    I.reads inst ~x v = I.reads inst2 ~x v
                    && I.writes inst ~x v = I.writes inst2 ~x v)
                  (List.init objects Fun.id))
           (List.init n Fun.id))

let placement_roundtrip_property =
  QCheck.Test.make ~name:"placement round-trips through Serial" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 6) (list_of_size (Gen.int_range 1 5) (int_range 0 30)))
    (fun rows ->
      let p = P.make (Array.of_list rows) in
      let p2 = Err.get_ok (S.placement_of_string_res (S.placement_to_string p)) in
      P.objects p = P.objects p2
      && List.for_all (fun x -> P.copies p ~x = P.copies p2 ~x) (List.init (P.objects p) Fun.id))

let suite =
  [
    Alcotest.test_case "1000 mutated files yield structured errors" `Quick fuzz_structured_errors;
    Alcotest.test_case "random bytes yield structured errors" `Quick fuzz_random_bytes;
    Util.qtest instance_roundtrip_property;
    Util.qtest placement_roundtrip_property;
  ]
