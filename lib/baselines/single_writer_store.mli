(** LevelDB-style baseline: the cLSM store {!Clsm_core.Db} under LevelDB's
    concurrency control — "coarse-grained synchronization that forces all
    puts to be executed sequentially" (paper §6).

    A thin wrapper: one global mutex around a {!Clsm_core.Db}. Writes
    ({!put}, {!delete}, {!put_if_absent}) and {!get_snap} run the store's
    operation inside the mutex, so they execute one at a time. Reads
    ({!get}, {!get_at}, {!range}) take it briefly, as LevelDB's component
    pin does, and search without it. Everything else — recovery, the WAL
    modes, quarantine, flush and compaction — is the one {!Clsm_core.Db}
    implementation; maintenance runs on the process-wide pool of
    [Options.scheduler], so a baseline store starts no domain of its own.

    Semantically equivalent to {!Clsm_core.Db}; only the synchronization
    differs. This is the competitor for the write/read scalability
    comparisons (Figures 5–8) and, via {!Striped_rmw}, the lock-striping
    RMW baseline of Figure 9. *)

type t

val open_store : Clsm_core.Options.t -> t
val close : t -> unit

val put : t -> key:string -> value:string -> unit
val delete : t -> key:string -> unit
val get : t -> string -> string option

val put_if_absent : t -> key:string -> value:string -> bool
(** Install [value] unless [key] is present; [true] if this call did.
    The lookup and the put both run inside the global mutex, so no other
    write lands between them. *)

type snapshot

val get_snap : t -> snapshot
val snapshot_ts : snapshot -> int
val release_snapshot : t -> snapshot -> unit
val get_at : t -> snapshot -> string -> string option

val range :
  ?snapshot:snapshot ->
  ?start:string ->
  ?stop:string ->
  ?limit:int ->
  t ->
  (string * string) list

val compact_now : t -> unit
val stats : t -> Clsm_core.Stats.snapshot
val level_file_counts : t -> int list
