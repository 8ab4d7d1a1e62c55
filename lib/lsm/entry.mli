(** Stored values: either user data or the deletion marker ⊥ — "deleting
    [a key] is performed by putting a deletion marker as the key's value"
    (paper §2.1). *)

type t = Value of string | Tombstone

val encode : t -> string
val decode : string -> t
(** Raises [Invalid_argument] on an unknown tag. *)

val decode_sub : string -> pos:int -> len:int -> t
(** [decode_sub s ~pos ~len = decode (String.sub s pos len)], copying the
    value bytes once. *)

val is_tombstone : t -> bool

val to_option : t -> string option
(** [Value v ↦ Some v], [Tombstone ↦ None]. *)
