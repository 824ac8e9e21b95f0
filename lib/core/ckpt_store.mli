(** Generational checkpoint directory.

    A checkpoint {e directory} holds the last K checkpoint generations,
    each a self-guarded [dmnet-ckpt v5] file ({!Serial.Checkpoint})
    named [gen-NNNNNN.ckpt], and [epochs.log], an append-only log with
    one line per completed epoch (the {!Epoch_row.fields} tokens, in
    table order). The generation files themselves are the only record
    of the generation set: a directory scan lists them, and the highest
    number is the newest. Each generation names the log prefix it
    covers by row count, byte length and CRC-32, so a generation's size
    does not grow with the run; this module is the only one that knows
    the log's name, format and fsync.

    A save ({!append_res} then {!save_res}) appends the rows no
    generation covers yet and fsyncs the log, {e then} writes the next
    generation (atomic tmp + fsync + rename + directory fsync), {e then}
    deletes all but the newest [keep]. A crash after the log's fsync
    leaves rows that no generation names, a tail that load ignores and
    a resumed writer truncates; a crash before the prune leaves one
    generation too many, all of them loadable; the next save prunes it.

    {!load_res} tries the generations newest-first and returns the first
    whose own CRCs and named log prefix both validate, counting the
    skipped ones in [fallbacks] — a corrupt latest generation, or a
    damaged row only it covers, degrades to the previous generation
    instead of failing. *)

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

type loaded = {
  ckpt : Serial.Checkpoint.t;
  rows : Epoch_row.t list;
      (** the log prefix the generation names: one row per completed
          epoch, chronological *)
  dir : string;  (** the directory it was loaded from *)
  generation : int;  (** the generation that loaded cleanly *)
  fallbacks : int;  (** corrupt or unreadable newer generations skipped to get here *)
}

val load_res : string -> (loaded, Dmn_prelude.Err.t) result
(** [load_res dir] loads the newest valid generation, newest-first, and
    reads the rows of the log prefix it names, checking them as a v4
    generation's inline rows were checked: the prefix's length and
    CRC-32, one row per completed epoch ([next_epoch]), each row's
    token count, non-negative counts and non-NaN floats, index =
    position, and rows summing to the generation's consumed events and
    applied topology events. Errors ([Validation] when generations
    exist but none passes) only when no generation in [dir] loads. *)

val load : string -> loaded
(** {!load_res}, raising [Err.Error]. *)

type t
(** A checkpoint directory open for writing: the generation count to
    keep and the log prefix the next generation names. *)

val create_res : ?resume:loaded -> string -> keep:int -> (t, Dmn_prelude.Err.t) result
(** [create_res ?resume dir ~keep] opens [dir] (creating it if needed)
    for a run's checkpoints.
    - Without [?resume] the run starts a new history: every generation
      in [dir] is deleted (it names rows of another run's log), then
      [epochs.log] is created empty. Nothing is fsynced here: the first
      save that appends a row fsyncs the log.
    - With [?resume] loaded from [dir] itself, the log is truncated to
      the prefix the resumed generation names, dropping only rows that
      no valid generation names; the generations stay.
    - With [?resume] loaded from another directory, [dir]'s generations
      are deleted and its log becomes an atomic copy (tmp + fsync +
      rename) of the resumed prefix.
    @raise Invalid_argument if [keep < 1]. *)

val logged : t -> int
(** Rows in the log prefix, i.e. epochs some generation can name. *)

val append_res :
  t -> Epoch_row.t list -> (Serial.Checkpoint.log_prefix, Dmn_prelude.Err.t) result
(** [append_res t rows] appends [rows] (chronological, indices
    continuing from {!logged}) to the log, fsyncs it, and returns the
    prefix that now covers them, for the next generation to name. A
    tail past the current prefix (a torn or unnamed append) is
    overwritten. Appending no rows writes nothing. Fault points:
    ["ckpt.log.write"] (before the write), ["ckpt.log.short"] (half the
    bytes reach the file, then the write fails), ["ckpt.log.sync"]
    (before the fsync).
    @raise Invalid_argument if the indices do not continue the log. *)

val save_res : t -> Serial.Checkpoint.t -> (int, Dmn_prelude.Err.t) result
(** [save_res t ckpt] writes [ckpt] as the next generation, prunes
    generations beyond the newest [keep], and returns the new
    generation number.
    @raise Invalid_argument if [ckpt.log] is not the prefix the last
    {!append_res} returned. *)

type fsck_report = {
  f_generations : int;  (** generations that load cleanly *)
  f_latest : int;  (** newest valid generation *)
  f_covered : int;
      (** items (requests and topology events) the newest valid
          generation has consumed: the journal offset it covers *)
  f_corrupt : int;  (** generations failing CRC/parse, or whose log prefix fails *)
  f_tail_bytes : int;
      (** log bytes past the newest valid generation's prefix: rows
          appended by a save that crashed before its rename, a kill
          artifact rather than damage *)
  f_repaired : bool;  (** true iff [~repair] deleted or truncated anything *)
}

val fsck_res : ?repair:bool -> string -> (fsck_report, Dmn_prelude.Err.t) result
(** Offline validation of a checkpoint directory: loads every
    generation with the prefix it names and reports the corrupt ones
    and the log's tail; with [~repair:true] deletes the corrupt
    generations and truncates the tail. Errors when no valid
    generation exists at all. A healthy directory yields
    [f_corrupt = 0]. *)

val covers_res :
  ?file:string -> covered:int -> base:int -> reach:int -> unit -> (unit, Dmn_prelude.Err.t) result
(** The coverage rule between a checkpoint and the journal chain it
    resumes from. [covers_res ~covered ~base ~reach ()] is [Ok ()] when
    a checkpoint covering [covered] items lies within a chain that
    begins at absolute item [base] and reaches item [reach]: journal
    pruning only removes segments a durable checkpoint covers, so a
    chain beginning past the coverage lost items only the checkpoint
    vouched for, and a chain ending before it lost durable events.
    Both are [Validation] errors naming [file] when given. A resume
    from a pruned chain and [dmnet fsck --ckpt --journal] both apply
    it. *)
