(** Key ordering used by blocks, tables and the LSM layer.

    Like LevelDB's [Comparator] option: the disk format stores opaque byte
    strings; ordering is supplied by the caller so the LSM layer can order
    internal keys (user key ascending, timestamp ascending) without an
    order-preserving byte encoding. *)

type t = {
  name : string;
  compare : string -> string -> int;
  compare_sub : string -> pos:int -> len:int -> string -> int;
      (** [compare_sub a ~pos ~len b = compare (String.sub a pos len) b],
          without building the substring: blocks compare their stored keys
          against a probe in place. Raises [Invalid_argument] if the range
          is out of bounds. *)
}

val bytewise : t
(** Plain [String.compare]. *)
