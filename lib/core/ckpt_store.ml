open Dmn_prelude

(* Generational checkpoint directory.

   Layout: <dir>/gen-000042.ckpt, one dmnet-ckpt v4 file per generation.

   The generation files are the only record of the generation set: a
   directory scan lists them and the highest number is the newest.
   Generations are written once (atomically, via {!Serial.write_file_res})
   and then only ever deleted. A save writes the next generation, then
   prunes all but the newest [keep]. A crash between the two leaves one
   generation too many; it is durable (fsynced before its rename) and
   the journal covers it (synced before any epoch whose checkpoint is
   due), so it simply counts as the newest until the next save prunes
   the oldest. *)

let ( let* ) = Result.bind
let gen_name g = Printf.sprintf "gen-%06d.ckpt" g
let gen_path dir g = Filename.concat dir (gen_name g)

(* Every generation on disk, ascending. *)
let gens_res dir =
  Result.map (List.map fst) (Serial.scan_numbered_res dir ~prefix:"gen-" ~suffix:".ckpt")

type listing = { latest : int; gens : int list }

let read_manifest_res dir =
  let* gens = gens_res dir in
  match List.rev gens with
  | [] -> Err.error ~file:dir Err.Io "no checkpoint generations found"
  | latest :: _ -> Ok { latest; gens }

type loaded = { ckpt : Serial.Checkpoint.t; generation : int; fallbacks : int }

let load_res dir =
  let* { gens; _ } = read_manifest_res dir in
  let rec newest_first skipped = function
    | [] ->
        Err.errorf ~file:dir Err.Parse "all %d checkpoint generations are corrupt or unreadable"
          (List.length gens)
    | g :: older -> (
        match Serial.Checkpoint.load_res (gen_path dir g) with
        | Ok ckpt -> Ok { ckpt; generation = g; fallbacks = skipped }
        | Error _ -> newest_first (skipped + 1) older)
  in
  newest_first 0 (List.rev gens)

let remove_gen dir g = try Sys.remove (gen_path dir g) with Sys_error _ -> ()

let save_res dir ~keep ckpt =
  if keep < 1 then invalid_arg "Ckpt_store.save: keep must be >= 1";
  let* () = Serial.ensure_dir_res dir in
  (* not the listing: an empty directory is the first save, not an error *)
  let* gens = gens_res dir in
  let next = match List.rev gens with g :: _ -> g + 1 | [] -> 0 in
  let* () = Serial.Checkpoint.save_res (gen_path dir next) ckpt in
  (* the oldest of the on-disk generations plus the new one, beyond [keep] *)
  let drop = List.length gens + 1 - keep in
  List.iteri (fun i g -> if i < drop then remove_gen dir g) gens;
  Ok next

type fsck_report = { f_generations : int; f_latest : int; f_corrupt : int; f_repaired : bool }

let fsck_res ?(repair = false) dir =
  let* { gens; _ } = read_manifest_res dir in
  let valid, corrupt =
    List.partition (fun g -> Result.is_ok (Serial.Checkpoint.load_res (gen_path dir g))) gens
  in
  match List.rev valid with
  | [] ->
      Err.errorf ~file:dir Err.Parse "no valid checkpoint generation (%d corrupt)"
        (List.length corrupt)
  | latest :: _ ->
      let repaired = repair && corrupt <> [] in
      if repaired then List.iter (remove_gen dir) corrupt;
      Ok
        {
          f_generations = List.length valid;
          f_latest = latest;
          f_corrupt = List.length corrupt;
          f_repaired = repaired;
        }

let save dir ~keep ckpt = Err.get_ok (save_res dir ~keep ckpt)
let load dir = Err.get_ok (load_res dir)
