(** The maintenance pool: one event-driven worker pool shared by every
    store in the process.

    Each store (or shard) registers as a {e source}: a [next] that
    claims its highest-priority runnable job under the store's own
    bookkeeping and a [run] that executes it and releases the claim.
    Workers claim round-robin across sources, so a busy store cannot
    starve another, then park on a {!Clsm_primitives.Wakeup} cell until
    a write path calls {!wake} or the fallback tick fires. The tick is a
    systhread inside worker 0's domain: the pool owns exactly
    [num_workers] domains, started on the first {!register} and joined
    on the last {!unregister}. *)

type t
type source

val create : ?num_workers:int -> ?tick_interval:float -> unit -> t
(** [num_workers] defaults to [2] ([0]: nothing runs in the
    background); [tick_interval] (seconds) defaults to [0.25]. *)

val shared : t
(** The process-wide default pool, [create ()]; [Options.default]
    injects it. *)

val register : t -> next:(unit -> Job.t option) -> run:(Job.t -> unit) -> source
(** Add a source and wake the workers. [next] must be thread-safe and
    claim the job it returns; [run] must release the claim even on
    failure (exceptions escaping [next] or [run] are caught and logged
    by the worker). Starts the pool's worker domains if none run. *)

val unregister : source -> unit
(** Remove the source: no worker claims from it again, and the call
    returns only after every job of the source already claimed has
    returned from [run]. Joins the worker domains when this was the
    last source. Idempotent. Must not be called from the source's own
    [next] or [run]. *)

val wake : source -> unit
(** Signal the workers that the source may have work. Never blocks;
    safe from any domain; cheap when all workers are busy. A no-op once
    the source is unregistered. *)

val jobs_run : t -> int
(** Total jobs executed across all sources (for stats and tests). *)

val running_workers : t -> int
(** Worker domains currently running: [num_workers] while any source is
    registered, [0] otherwise. *)

val fan_out : (unit -> 'a) list -> ('a, exn) result list
(** Run the thunks concurrently and join them all: the first on the
    calling domain, each of the rest on a freshly spawned domain (n
    thunks cost n-1 spawns). Results are returned in input order;
    an exception inside a thunk becomes its [Error] — none is lost,
    none escapes. Used to fan a claimed compaction out into
    range-partitioned subcompactions without tying up other pool
    workers. *)
