open Dmn_prelude
module Ck = Serial.Checkpoint
module Row = Epoch_row

(* Generational checkpoint directory.

   Layout: <dir>/gen-000042.ckpt, one dmnet-ckpt v5 file per generation,
   and <dir>/epochs.log, the append-only log of epoch rows.

   The generation files are the only record of the generation set: a
   directory scan lists them and the highest number is the newest.
   Generations are written once (atomically, via {!Serial.write_file_res})
   and then only ever deleted. Each names a prefix of the log by row
   count, byte length and CRC-32, and a row enters the log once, fsynced
   before the first generation that names it, so a generation stays
   the same size however long the run. A save appends the rows no
   generation covers yet, writes the next generation, then prunes all
   but the newest [keep]. A crash between the log's fsync and the
   rename leaves rows that no generation names: a tail that load
   ignores and the next writer truncates. A crash between the rename
   and the prune leaves one generation too many; it is durable (fsynced
   before its rename) and the journal covers it (synced before any
   epoch whose checkpoint is due), so it simply counts as the newest
   until the next save prunes the oldest. *)

let ( let* ) = Result.bind
let gen_name g = Printf.sprintf "gen-%06d.ckpt" g
let gen_path dir g = Filename.concat dir (gen_name g)
let log_path dir = Filename.concat dir "epochs.log"

(* Every generation on disk, ascending. *)
let gens_res dir =
  Result.map (List.map fst) (Serial.scan_numbered_res dir ~prefix:"gen-" ~suffix:".ckpt")

type listing = { latest : int; gens : int list }

let read_manifest_res dir =
  let* gens = gens_res dir in
  match List.rev gens with
  | [] -> Err.error ~file:dir Err.Io "no checkpoint generations found"
  | latest :: _ -> Ok { latest; gens }

(* ----- the row log: one line per epoch, one token per schema field in
   table order (the tokens of a v4 checkpoint's epoch row) ----- *)

let add_row buf r =
  List.iteri
    (fun i (f : Row.field) ->
      if i > 0 then Buffer.add_char buf ' ';
      match f.kind with
      | Int (get, _) -> Buffer.add_string buf (string_of_int (get r))
      | Float (get, _) -> Buffer.add_string buf (Printf.sprintf "%.17g" (get r)))
    Row.fields;
  Buffer.add_char buf '\n'

(* The bytes of the prefix [p] out of the log's contents [log]. *)
let prefix_text ~file (p : Ck.log_prefix) log =
  if String.length log < p.l_bytes then
    Err.failf ~file Err.Validation
      "the log holds %d bytes but a generation names a %d-byte prefix" (String.length log)
      p.l_bytes;
  let text = String.sub log 0 p.l_bytes in
  let crc = Crc32.digest text in
  if crc <> p.l_crc then
    Err.failf ~file Err.Validation "log prefix is corrupt: CRC mismatch (stored %s, computed %s)"
      (Crc32.to_hex p.l_crc) (Crc32.to_hex crc);
  text

(* The rows of the prefix checkpoint [c] names, with every check the v4
   epochs section ran: token count, non-negative counts and non-NaN
   floats, index = position, one row per completed epoch, and rows
   summing to the meta section's consumed events and applied topology
   events. *)
let rows_of_prefix ~file (c : Ck.t) log =
  let text = prefix_text ~file c.log log in
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> List.rev rest
    | _ -> Err.fail ~file Err.Parse "log prefix does not end at a row boundary"
  in
  if List.length lines <> c.log.l_rows then
    Err.failf ~file Err.Validation "log prefix holds %d rows but the generation names %d"
      (List.length lines) c.log.l_rows;
  let arity = List.length Row.fields in
  let rows =
    List.mapi
      (fun i line ->
        let ln = i + 1 in
        let toks = String.split_on_char ' ' line in
        if List.length toks <> arity then
          Err.failf ~file ~line:ln Err.Parse
            "malformed epoch row: expected %d space-separated fields" arity;
        let r =
          List.fold_left2
            (fun r (f : Row.field) tok ->
              let bad kind what = Err.failf ~file ~line:ln ~token:tok kind what f.gauge in
              match f.kind with
              | Int (_, set) -> (
                  match int_of_string_opt tok with
                  | Some v when v >= 0 -> set r v
                  | Some _ -> bad Err.Validation "%s must be non-negative"
                  | None -> bad Err.Parse "expected an integer %s")
              | Float (_, set) -> (
                  match float_of_string_opt tok with
                  | Some v when not (Float.is_nan v) -> set r v
                  | _ -> bad Err.Parse "expected a number for %s"))
            Row.zero Row.fields toks
        in
        if r.index <> i then
          Err.failf ~file ~line:ln Err.Validation "epoch row %d carries index %d" i r.index;
        r)
      lines
  in
  let sum field = List.fold_left (fun a r -> a + field r) 0 rows in
  let consumed = sum (fun r -> r.Row.events) in
  if consumed <> c.events_consumed then
    Err.failf ~file Err.Validation
      "epoch rows account for %d events but meta says %d were consumed" consumed
      c.events_consumed;
  let applied = sum (fun r -> r.Row.topo) in
  if applied <> c.topo_applied then
    Err.failf ~file Err.Validation
      "epoch rows account for %d topology events but meta says %d were applied" applied
      c.topo_applied;
  rows

let read_log dir = Serial.read_file_res (log_path dir)

(* One generation and the rows of the log prefix it names. *)
let load_gen dir log g =
  let* ckpt = Ck.load_res (gen_path dir g) in
  let* log = log in
  let* rows = Err.protect (fun () -> rows_of_prefix ~file:(log_path dir) ckpt log) in
  Ok (ckpt, rows)

type loaded = {
  ckpt : Ck.t;
  rows : Row.t list;
  dir : string;
  generation : int;
  fallbacks : int;
}

let load_res dir =
  let* { gens; _ } = read_manifest_res dir in
  let log = read_log dir in
  let rec newest_first skipped = function
    | [] ->
        Err.errorf ~file:dir Err.Validation
          "all %d checkpoint generations are corrupt, unreadable or name a damaged log prefix"
          (List.length gens)
    | g :: older -> (
        match load_gen dir log g with
        | Ok (ckpt, rows) -> Ok { ckpt; rows; dir; generation = g; fallbacks = skipped }
        | Error _ -> newest_first (skipped + 1) older)
  in
  newest_first 0 (List.rev gens)

let remove_gen dir g = try Sys.remove (gen_path dir g) with Sys_error _ -> ()

(* ----- writing ----- *)

type t = { dir : string; keep : int; mutable prefix : Ck.log_prefix }

let logged t = t.prefix.l_rows

(* Device and inode, so that two spellings of one path agree. *)
let same_dir a b =
  match (Unix.stat a, Unix.stat b) with
  | sa, sb -> sa.Unix.st_dev = sb.Unix.st_dev && sa.Unix.st_ino = sb.Unix.st_ino
  | exception Unix.Unix_error _ -> false

let create_res ?resume dir ~keep =
  if keep < 1 then invalid_arg "Ckpt_store.create_res: keep must be >= 1";
  let* () = Serial.ensure_dir_res dir in
  let path = log_path dir in
  match resume with
  | Some (l : loaded) when same_dir l.dir dir ->
      (* the run continues its own history: only rows no generation
         names go, and no byte a valid generation names is rewritten *)
      let* () = Serial.io_res path (fun () -> Unix.truncate path l.ckpt.log.l_bytes) in
      Ok { dir; keep; prefix = l.ckpt.log }
  | _ ->
      (* A new history. Generations already here name rows this log
         will not hold, so they go first; a crash before the log is
         replaced leaves them deleted, not dangling. *)
      let* gens = gens_res dir in
      List.iter (remove_gen dir) gens;
      let* prefix =
        match resume with
        | None ->
            (* no fsync: the first save that appends a row fsyncs the
               log, and the generation's rename fsyncs the directory *)
            let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
            let* () = Serial.io_res path (fun () -> Unix.close (Unix.openfile path flags 0o644)) in
            Ok Ck.empty_log
        | Some l ->
            (* resumed into another directory: an atomic copy of the
               prefix the resumed generation names *)
            let* log = read_log l.dir in
            let* text = Err.protect (fun () -> prefix_text ~file:(log_path l.dir) l.ckpt.log log) in
            let* () = Serial.write_file_res path text in
            Ok l.ckpt.log
      in
      Ok { dir; keep; prefix }

let append_res t rows =
  List.iteri
    (fun i (r : Row.t) ->
      if r.index <> t.prefix.l_rows + i then
        invalid_arg "Ckpt_store.append: rows must continue the log, one per epoch")
    rows;
  if rows = [] then Ok t.prefix
  else begin
    let buf = Buffer.create 256 in
    List.iter (add_row buf) rows;
    let text = Buffer.contents buf in
    let len = String.length text and path = log_path t.dir in
    let* () =
      Serial.io_res path (fun () ->
          Fault.check "ckpt.log.write";
          let fd =
            Serial.retry_eintr (fun () -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0)
          in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* bytes past the prefix are a tail no generation names *)
              if (Unix.fstat fd).Unix.st_size <> t.prefix.l_bytes then
                Serial.retry_eintr (fun () -> Unix.ftruncate fd t.prefix.l_bytes);
              ignore (Unix.lseek fd t.prefix.l_bytes Unix.SEEK_SET : int);
              (* injected torn append: half the rows reach the file,
                 then the write fails *)
              let stop = if Fault.fires "ckpt.log.short" then len / 2 else len in
              let rec loop off =
                if off < stop then
                  loop
                    (off
                    + Serial.retry_eintr (fun () -> Unix.write_substring fd text off (stop - off)))
              in
              loop 0;
              if stop < len then
                Err.failf Err.Fault "injected torn log append (%d of %d bytes)" stop len;
              Fault.check "ckpt.log.sync";
              Serial.retry_eintr (fun () -> Unix.fsync fd)))
    in
    t.prefix <-
      {
        l_rows = t.prefix.l_rows + List.length rows;
        l_bytes = t.prefix.l_bytes + len;
        l_crc = Crc32.update t.prefix.l_crc text;
      };
    Ok t.prefix
  end

let save_res t (ckpt : Ck.t) =
  if ckpt.log <> t.prefix then
    invalid_arg "Ckpt_store.save: a generation must name the log prefix append made durable";
  (* not the listing: an empty directory is the first save, not an error *)
  let* gens = gens_res t.dir in
  let next = match List.rev gens with g :: _ -> g + 1 | [] -> 0 in
  let* () = Ck.save_res (gen_path t.dir next) ckpt in
  (* the oldest of the on-disk generations plus the new one, beyond [keep] *)
  let drop = List.length gens + 1 - t.keep in
  List.iteri (fun i g -> if i < drop then remove_gen t.dir g) gens;
  Ok next

type fsck_report = {
  f_generations : int;
  f_latest : int;
  f_covered : int;
  f_corrupt : int;
  f_tail_bytes : int;
  f_repaired : bool;
}

let fsck_res ?(repair = false) dir =
  let* { gens; _ } = read_manifest_res dir in
  let log = read_log dir in
  let checked = List.map (fun g -> (g, load_gen dir log g)) gens in
  let valid = List.filter_map (function g, Ok (c, _) -> Some (g, c) | _, Error _ -> None) checked in
  let corrupt = List.filter_map (function g, Error _ -> Some g | _, Ok _ -> None) checked in
  match List.rev valid with
  | [] ->
      Err.errorf ~file:dir Err.Validation "no valid checkpoint generation (%d corrupt)"
        (List.length corrupt)
  | (latest, (c : Ck.t)) :: _ ->
      let size = match log with Ok s -> String.length s | Error _ -> 0 in
      let tail = size - c.log.l_bytes in
      let repaired = repair && (corrupt <> [] || tail > 0) in
      let* () =
        if not repaired then Ok ()
        else begin
          List.iter (remove_gen dir) corrupt;
          Serial.io_res (log_path dir) (fun () -> Unix.truncate (log_path dir) c.log.l_bytes)
        end
      in
      Ok
        {
          f_generations = List.length valid;
          f_latest = latest;
          f_covered = c.events_consumed + c.topo_consumed;
          f_corrupt = List.length corrupt;
          f_tail_bytes = tail;
          f_repaired = repaired;
        }

let load dir = Err.get_ok (load_res dir)

(* Pruning removes only journal segments a durable checkpoint covers,
   so the chain that survives must begin at or before the checkpoint's
   coverage and reach it. *)
let covers_res ?file ~covered ~base ~reach () =
  if base > covered then
    Err.errorf ?file Err.Validation
      "the journal chain begins at item %d but the checkpoint only covers %d — segments were \
       pruned past the checkpoint"
      base covered
  else if covered > reach then
    Err.errorf ?file Err.Validation
      "the checkpoint covers %d items but the journal chain only reaches %d — the journal lost \
       durable events"
      covered reach
  else Ok ()
