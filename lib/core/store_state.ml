(* The store's shared state, factored out of the store functor so the
   layered subsystems — Recovery, Backpressure, Maintenance_hooks and the
   algorithm core in Store — can all be written against the same record
   without living in one monolithic module. OCaml functors are
   applicative, so every [Store_state.Make (M)] names the same types. *)

module Make (M : Memtable_intf.S) = struct
  open Clsm_primitives
  open Clsm_lsm

  (* A memory component: the skip-list plus the log that covers it. *)
  type memcomp = {
    mem : M.t;
    wal : Clsm_wal.Wal_writer.t option;
    wal_number : int;
  }

  type imm_slot = No_imm | Imm of memcomp

  (* The claim table: every maintenance job in flight, under [cm]. A
     claim conflicts with an equal one ([Flush] serializes the paper's
     beforeMerge/afterMerge pair, [Repair] and [Scrub] run one at a
     time) and two [Levels] claims conflict iff their level ranges
     intersect, so parallel compactions only ever merge disjoint ranges.
     A picked compaction carries its task and a reference on the version
     it was picked from, so input files cannot be retired between claim
     and execution. Readmission claims the whole range [(0, bottom)].
     [waiting] lists the claims a blocked caller is waiting for; new
     non-blocking claims that conflict with one are refused, so a steady
     compaction stream cannot starve repair. While [draining] (callers
     inside [compact_now]) is positive, the pool claims no compaction. *)
  type claimed_compaction = {
    task : Compaction.task;
    pinned : Version.t Refcounted.t;
  }

  type claim = Flush | Repair | Scrub | Levels of int * int

  type claims = {
    cm : Mutex.t;
    mutable held : (claim * claimed_compaction option) list;
    mutable waiting : claim list;
    draining : int Atomic.t;
  }

  (* Self-healing state. Read paths never mutate the version or the
     manifest directly (they may hold the shared lock, which cannot be
     upgraded): a corruption verdict is only *enqueued* here, and the
     maintenance [Repair] job — which holds no locks on entry — performs
     the actual quarantine swap and manifest record. *)
  type heal = {
    hm : Mutex.t;
    mutable pending_quarantine : (int * string) list;
        (* (table number, detail) verdicts awaiting the Repair job,
           deduplicated against themselves and [quarantined] *)
    mutable quarantined : int list;
        (* dropped from the read view and recorded in the manifest;
           cleared by repair finalization *)
    mutable scrub_cursor : (int * int) option;
        (* (table number, data-block index) to resume the current scrub
           pass from; [None] between passes *)
    mutable scrub_next_due : float;
    mutable repair_next_due : float;
        (* damping for repair attempts that can fail and be retried
           (degraded recovery, quarantine finalization) *)
  }

  type t = {
    opts : Options.t;
    lock : Shared_lock.t;
    clock : Clock.t;
        (* the logical-time domain: timeCounter, Active/put_active,
           snapTime and the snapshot registry. Private by default;
           injected (shared) when this store is one shard of a
           range-sharded deployment *)
    pm : memcomp Rcu_box.t;
    pimm : imm_slot Rcu_box.t;
    pd : Version.t Rcu_box.t;
    next_file : int Atomic.t;
    cache : Clsm_sstable.Block.t Clsm_sstable.Cache.t;
    stats : Stats.t;
    stop : bool Atomic.t;
    install : Mutex.t;
        (* serializes component installs + manifest saves: the manifest
           written must describe a version no concurrent install is
           tearing, and must hit disk before the WAL it obsoletes is
           deleted *)
    claims : claims;
    backpressure : Backpressure.t;
    compact_pointers : string array; (* per-level round-robin cursors *)
    mutable source : Clsm_maintenance.Scheduler.source option;
        (* this store's registration with [opts.scheduler], the
           maintenance pool; set once, right after the record is built *)
    degraded : string option Atomic.t;
        (* Some reason once an unrecoverable IO failure (ENOSPC, failed
           fsync) hits a maintenance path: the store stops accepting
           writes and scheduling maintenance but keeps serving reads *)
    heal : heal;
    mutable closed : bool;
    close_mutex : Mutex.t;
  }

  let alloc_file_number t () = Atomic.fetch_and_add t.next_file 1

  (* First degradation reason wins; later failures are consequences. *)
  let degrade t reason =
    ignore (Atomic.compare_and_set t.degraded None (Some reason) : bool)

  let is_degraded t = Atomic.get t.degraded <> None

  let fresh_heal ~quarantined =
    {
      hm = Mutex.create ();
      pending_quarantine = [];
      quarantined;
      scrub_cursor = None;
      scrub_next_due = Unix.gettimeofday ();
      repair_next_due = 0.0;
    }

  let current_pm t = Refcounted.value (Rcu_box.peek t.pm)
  let current_imm t = Refcounted.value (Rcu_box.peek t.pimm)
  let current_version t = Refcounted.value (Rcu_box.peek t.pd)

  (* Signal the maintenance pool that work exists (memtable over
     threshold, rotation, stall). The paper's sleep-polling background
     loop is gone: this is a real Mutex+Condition wakeup. *)
  let wake_bg t =
    match t.source with
    | Some s ->
        Stats.incr_maintenance_wakeups t.stats;
        Clsm_maintenance.Scheduler.wake s
    | None -> ()

  (* Record a corruption verdict against a table file, deduplicated, and
     signal maintenance. Safe from any read path (only takes the heal
     mutex). Returns whether the verdict was fresh. *)
  let enqueue_quarantine t ~number ~detail =
    let h = t.heal in
    let fresh =
      Mutex.protect h.hm (fun () ->
          if
            List.mem_assoc number h.pending_quarantine
            || List.mem number h.quarantined
          then false
          else begin
            h.pending_quarantine <- (number, detail) :: h.pending_quarantine;
            true
          end)
    in
    if fresh then begin
      Stats.incr_corruptions_detected t.stats;
      wake_bg t
    end;
    fresh

  let quarantine_counts t =
    let h = t.heal in
    Mutex.protect h.hm (fun () ->
        (List.length h.pending_quarantine, List.length h.quarantined))

  (* ---------- manifest ---------- *)

  let manifest_of_state t =
    let v = current_version t in
    let l0 =
      List.map (fun f -> (0, (Refcounted.value f).Table_file.number)) v.Version.l0
    in
    let deeper =
      List.concat
        (List.mapi
           (fun i files ->
             List.map
               (fun f -> (i + 1, (Refcounted.value f).Table_file.number))
               files)
           (Array.to_list v.Version.levels))
    in
    {
      Manifest.next_file_number = Atomic.get t.next_file;
      last_ts = Clock.now t.clock;
      wal_number = (current_pm t).wal_number;
      files = l0 @ deeper;
      quarantined = Mutex.protect t.heal.hm (fun () -> t.heal.quarantined);
    }

  let save_manifest t =
    Manifest.save ~env:t.opts.Options.env ~dir:t.opts.Options.dir
      (manifest_of_state t)
  [@@requires_lock install]
end
