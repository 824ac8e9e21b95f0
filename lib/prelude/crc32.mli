(** CRC-32 checksums (the zlib/PNG polynomial, reflected 0xEDB88320).

    A pure function of the input bytes — platform- and
    endianness-independent — used by [Serial.Checkpoint] to detect torn
    or corrupted sections, and by [Ckpt_store] to pin the epoch-row log
    prefix a generation names. Reference value:
    [digest "123456789" = 0xCBF43926l]. *)

(** [digest s] is the CRC-32 of the whole string. *)
val digest : string -> int32

(** [update crc s] extends a running checksum: [update (digest a) b] is
    [digest (a ^ b)]. The empty digest is [0l]. *)
val update : int32 -> string -> int32

(** [to_hex c] is the checksum as 8 lowercase hex digits. *)
val to_hex : int32 -> string

(** [of_hex_opt s] parses exactly 8 hex digits; [None] otherwise. *)
val of_hex_opt : string -> int32 option
