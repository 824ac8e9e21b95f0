(* CRC-32 (the zlib/PNG polynomial, reflected 0xEDB88320), table-driven.
   Used by [Serial.Checkpoint] to detect torn or bit-rotted sections; a
   pure function of the bytes, platform- and endianness-independent. *)

(* The running value lives in a native int (32 bits fit in 63), so the
   byte loop allocates nothing: checkpoints CRC every section body on
   every write. *)
let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc s =
  let t = Lazy.force table in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for k = 0 to String.length s - 1 do
    c := t.((!c lxor Char.code s.[k]) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let digest s = update 0l s
let to_hex c = Printf.sprintf "%08lx" c

let of_hex_opt s =
  if String.length s <> 8 then None
  else
    let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) s in
    if not ok then None else Some (Int32.of_string ("0x" ^ s))
