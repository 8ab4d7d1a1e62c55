(** LEB128 variable-length encoding of non-negative integers.

    Used throughout the SSTable and WAL formats. Encodes 7 bits per byte,
    least-significant group first, with the high bit of each byte marking
    continuation. OCaml's native [int] (63-bit) is supported in full. *)

exception Corrupt of string
(** Raised when decoding runs off the end of the input or the encoding is
    longer than {!max_length} bytes. *)

val max_length : int
(** Maximum number of bytes a 63-bit value can occupy (9). *)

val encoded_length : int -> int
(** [encoded_length v] is the number of bytes {!write} emits for [v].
    Raises [Invalid_argument] if [v < 0]. *)

val write : Buffer.t -> int -> unit
(** [write buf v] appends the encoding of [v] to [buf].
    Raises [Invalid_argument] if [v < 0]. *)

val put : bytes -> pos:int -> int -> int
(** [put b ~pos v] writes the encoding of [v] at offset [pos] and returns
    the offset one past the last byte written. *)

val read : string -> pos:int -> int * int
(** [read s ~pos] decodes a value starting at [pos] and returns
    [(value, next_pos)]. Raises {!Corrupt} on malformed input. *)

val read_at : string -> limit:int -> int ref -> int
(** [read_at s ~limit cursor] decodes the value starting at [!cursor],
    which must end before [limit], and advances [cursor] past it. Decoders
    that walk a buffer keep one cursor and so allocate nothing per value.
    Raises {!Corrupt} on malformed input, including a value running past
    [limit]. Raises [Invalid_argument] if [!cursor < 0] or
    [limit > String.length s]. *)
