(** Fixed-width little-endian integer codecs used by the on-disk formats. *)

val write_fixed32 : Buffer.t -> int -> unit
(** [write_fixed32 buf v] appends [v land 0xffffffff] as 4 LE bytes. *)

val write_fixed64 : Buffer.t -> int -> unit
(** [write_fixed64 buf v] appends [v] as 8 LE bytes (63-bit payload; the
    top bit is always zero). *)

val get_fixed32 : string -> pos:int -> int
(** [get_fixed32 s ~pos] reads 4 LE bytes at [pos] as a non-negative int. *)

val get_fixed64 : string -> pos:int -> int
(** [get_fixed64 s ~pos] reads 8 LE bytes at [pos]. Raises [Failure] if the
    stored value does not fit in a 63-bit OCaml int. *)

val put_fixed32 : bytes -> pos:int -> int -> unit
val put_fixed64 : bytes -> pos:int -> int -> unit

val compare_bytes : string -> pos_a:int -> string -> pos_b:int -> len:int -> int
(** [compare_bytes a ~pos_a b ~pos_b ~len] orders the [len] bytes at
    [a.[pos_a]] and [b.[pos_b]] lexicographically as unsigned bytes:
    [-1], [0] or [1]. Allocation-free. Raises [Invalid_argument] if either
    range is out of bounds. *)
