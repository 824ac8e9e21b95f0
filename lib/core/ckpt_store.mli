(** Generational checkpoint directory.

    A checkpoint {e directory} holds the last K checkpoint generations,
    each a self-guarded [dmnet-ckpt v4] file ({!Serial.Checkpoint})
    named [gen-NNNNNN.ckpt]. The files themselves are the only record
    of the generation set: a directory scan lists them, and the highest
    number is the newest.

    {!save_res} writes the next generation (atomic tmp + fsync + rename)
    {e then} deletes all but the newest [keep]. A crash between the two
    steps leaves one generation too many, all of them loadable; the next
    save prunes it.

    {!load_res} tries the generations newest-first and returns the first
    that passes CRC/parse, counting the skipped ones in [fallbacks] — a
    corrupt latest generation degrades to the previous one instead of
    failing. *)

val gen_name : int -> string
(** [gen_name g] is the filename of generation [g], e.g.
    ["gen-000042.ckpt"]. *)

type listing = {
  latest : int;  (** newest generation number *)
  gens : int list;  (** every generation on disk, ascending; never empty *)
}

val read_manifest_res : string -> (listing, Dmn_prelude.Err.t) result
(** [read_manifest_res dir] lists the generations in [dir] by scanning
    for [gen-*.ckpt] files (the directory is the manifest). Errors when
    [dir] cannot be read or holds no generation. Does not validate the
    files: see {!load_res} and {!fsck_res}. *)

val save_res :
  string -> keep:int -> Serial.Checkpoint.t -> (int, Dmn_prelude.Err.t) result
(** [save_res dir ~keep ckpt] writes the next generation into [dir]
    (creating it if needed), prunes generations beyond the newest
    [keep], and returns the new generation number.
    @raise Invalid_argument if [keep < 1]. *)

val save : string -> keep:int -> Serial.Checkpoint.t -> int
(** {!save_res}, raising [Err.Error]. *)

type loaded = {
  ckpt : Serial.Checkpoint.t;
  generation : int;  (** the generation that loaded cleanly *)
  fallbacks : int;  (** corrupt or unreadable newer generations skipped to get here *)
}

val load_res : string -> (loaded, Dmn_prelude.Err.t) result
(** [load_res dir] loads the newest valid generation, newest-first.
    Errors only when no generation in [dir] passes validation. *)

val load : string -> loaded
(** {!load_res}, raising [Err.Error]. *)

type fsck_report = {
  f_generations : int;  (** generations that load cleanly *)
  f_latest : int;  (** newest valid generation *)
  f_corrupt : int;  (** generations failing CRC/parse *)
  f_repaired : bool;  (** true iff [~repair] deleted corrupt generations *)
}

val fsck_res : ?repair:bool -> string -> (fsck_report, Dmn_prelude.Err.t) result
(** Offline validation of a checkpoint directory: loads every
    generation and reports the corrupt ones; with [~repair:true]
    deletes them. Errors when no valid generation exists at all. A
    healthy directory yields [f_corrupt = 0]. *)
