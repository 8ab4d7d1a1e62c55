(** Reader for blocks produced by {!Block_builder}: in-memory parse plus a
    seekable iterator that binary-searches the restart array and then scans
    forward, reconstructing prefix-compressed keys in a per-iterator buffer.
    Seeks compare stored keys against the target in place
    ({!Comparator.t.compare_sub}) and allocate nothing; a key string is
    built only when {!Iter.key} is called. *)

exception Corrupt of string
(** Raised by {!parse} and by every iterator operation that meets a
    malformed trailer, entry or varint. *)

type t

val parse : ?len:int -> Comparator.t -> string -> t
(** Validate the trailer and wrap the serialized block: the first [len]
    bytes of the string (default all of it), so a block can be parsed in
    place inside a larger on-disk image without copying.
    Raises {!Corrupt} if the restart array is malformed. *)

val num_restarts : t -> int

val size_bytes : t -> int
(** Length of the block itself ([len] at {!parse}). *)

module Iter : sig
  type iter

  val make : t -> iter
  (** Fresh iterator, initially invalid. *)

  val seek_to_first : iter -> unit

  val seek : iter -> string -> unit
  (** Position at the first entry with key [>= target] under the block's
      comparator (invalid if none). *)

  val seek_le : iter -> string -> unit
  (** Position at the {e last} entry with key [<= target] (invalid if
      none). Used for newest-version-not-exceeding-a-snapshot lookups when
      versions are ordered by ascending timestamp. *)

  val seek_last : iter -> unit
  (** Position at the last entry of the block (invalid if empty). *)

  val valid : iter -> bool
  val key : iter -> string
  (** Raises [Invalid_argument] if not {!valid}. *)

  val value : iter -> string

  val with_value : iter -> (string -> pos:int -> len:int -> 'a) -> 'a
  (** [with_value it f] applies [f] to the bytes of the current value in
      place (the block's backing string, offset and length), so a caller
      that decodes the value copies it once. Raises [Invalid_argument] if
      not {!valid}. *)

  val with_entry : iter -> (string -> string -> pos:int -> len:int -> 'a) -> 'a
  (** [with_entry it f = f (key it) data ~pos ~len], the value passed in
      place as by {!with_value}. *)

  val next : iter -> unit

  val fold : (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** Fold over all entries in order. *)
end
