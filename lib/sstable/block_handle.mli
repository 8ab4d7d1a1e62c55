(** Pointer to a block within a table file: offset and (payload) size,
    varint-encoded. Stored in index entries and the footer. *)

type t = { offset : int; size : int }

val encode : Buffer.t -> t -> unit
val decode : string -> pos:int -> t * int
(** Returns the handle and the position past it. Raises
    [Clsm_util.Varint.Corrupt] on malformed input. *)

val decode_sub : string -> pos:int -> len:int -> t
(** [decode_sub s ~pos ~len = fst (decode (String.sub s pos len) ~pos:0)],
    read in place. *)

val max_encoded_length : int
