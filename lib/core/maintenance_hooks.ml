(* The merge hooks (paper Algorithm 1, beforeMerge/afterMerge) and the
   job layer the maintenance scheduler drives. Expensive work — merging
   sorted runs to disk — happens outside any lock, so a flush and
   several compactions on disjoint level ranges proceed in parallel
   across worker domains. Every job in flight holds a claim in one table
   ([claims], under [cm]), and every version change goes through one
   exclusive section, {!install}: component swaps take the
   shared-exclusive lock in exclusive mode, and installs + manifest
   saves are additionally serialized by [t.install] so the manifest
   always describes a settled version and lands before the WAL or input
   tables it obsoletes are deleted. *)

module Make (M : Memtable_intf.S) = struct
  open Clsm_primitives
  open Clsm_lsm
  module Job = Clsm_maintenance.Job
  module Scheduler = Clsm_maintenance.Scheduler
  module Env = Clsm_env.Env
  module State = Store_state.Make (M)
  open State

  let src = Logs.Src.create "clsm.db.maintenance" ~doc:"cLSM store maintenance"

  module Log = (val Logs.src_log src : Logs.LOG)
  module Retry = Clsm_env.Retry_policy

  (* Maintenance-path IO commit points run under the configured retry
     policy: a transient fault (EINTR-ish fsync hiccup, brief ENOSPC)
     rides through a few backed-off attempts instead of degrading the
     store on first touch. Only [Env.Error] is retried — [Env.Crashed]
     is the test harness's kill switch and corruption is never
     transient. *)
  let with_retry t ~what f =
    Retry.run t.opts.Options.retry
      ~on_retry:(fun ~attempt ~delay e ->
        Stats.incr_io_retries t.stats;
        Log.warn (fun m ->
            m "%s failed (attempt %d), retrying in %.1fms: %s" what attempt
              (delay *. 1e3) (Printexc.to_string e)))
      f

  (* An environment failure inside maintenance (failed fsync, out of
     space) that survives the retry policy must not take down the worker
     domain or be retried forever: the store degrades to read-only —
     reads keep working off the installed components — and the error is
     surfaced through [health] and the [Degraded] exception on writes.

     A corruption verdict is different: the media lied, but only about
     one table. Quarantining it (containment) keeps the store writable;
     degrading would punish every key for one rotten block. *)
  let guard_io t ~what f =
    try f () with
    | (Env.Error _ | Env.Crashed) as e ->
        degrade t (what ^ " failed: " ^ Printexc.to_string e);
        Log.err (fun m ->
            m "%s failed, store degraded to read-only: %s" what
              (Printexc.to_string e))
    | Table_file.Corruption { number; detail; _ } ->
        ignore (enqueue_quarantine t ~number ~detail : bool);
        Log.err (fun m ->
            m "%s hit corrupt table %06d (%s): quarantine queued" what number
              detail)

  (* ---------- the claim table ---------- *)

  let conflicts a b =
    match (a, b) with
    | Levels (s1, t1), Levels (s2, t2) -> s1 <= t2 && s2 <= t1
    | a, b -> a = b

  (* [claim] is free when no held claim conflicts with it and — for
     non-blocking claimers ([~yield]) — no blocked caller waits for a
     conflicting one. *)
  let free_locked t claim ~yield =
    let c = t.claims in
    (not (List.exists (fun (h, _) -> conflicts h claim) c.held))
    && not (yield && List.exists (conflicts claim) c.waiting)
  [@@requires_lock cm]

  let try_claim_locked ?task t claim ~yield =
    free_locked t claim ~yield
    && begin
         t.claims.held <- (claim, task) :: t.claims.held;
         true
       end
  [@@requires_lock cm]

  let release t claim =
    let c = t.claims in
    Mutex.protect c.cm (fun () ->
        c.held <- List.filter (fun (h, _) -> h <> claim) c.held)

  (* The one wait loop: block until [claim] is free. While waiting, the
     claim is listed in [waiting], so conflicting non-blocking claims are
     refused and a steady stream of them cannot starve this one. *)
  let claim_blocking t claim =
    let c = t.claims in
    let rec wait () =
      let got =
        Mutex.protect c.cm (fun () ->
            let got = try_claim_locked t claim ~yield:false in
            c.waiting <- List.filter (( <> ) claim) c.waiting;
            if not got then c.waiting <- claim :: c.waiting;
            got)
      in
      if not got then begin
        Unix.sleepf 0.0005;
        wait ()
      end
    in
    wait ()
  [@@excludes_locks]

  let with_claim t claim f =
    claim_blocking t claim;
    Fun.protect ~finally:(fun () -> release t claim) f

  (* Every level, L0 through the bottom: what readmission claims, and
     what waiting for "no compaction in flight" amounts to. *)
  let all_levels t = Levels (0, t.opts.Options.lsm.Lsm_config.num_levels - 1)

  (* ---------- install ---------- *)

  (* The afterMerge exclusive section — the one place a version is
     swapped. Under [t.install]: [edit] derives the next version from the
     current one under the exclusive lock ([None]: save the manifest
     only), and with [~flush] the immutable memtable P'm is cleared in
     the same swap. The manifest is then saved, and only after it landed
     does [after_save] run (marking merge inputs obsolete) and the old
     version retire: anything the manifest stopped referencing may be
     deleted, never earlier. *)
  let install ?(flush = false) ?(after_save = ignore) t ~what edit =
    Mutex.protect t.install (fun () ->
        let old_pd, old_imm =
          Shared_lock.with_exclusive t.lock (fun () ->
              (* Pd first, then P'm: a lock-free reader going Pm, P'm,
                 Pd may see the flushed data twice but never miss it. *)
              let old_pd =
                Option.map
                  (fun next ->
                    Rcu_box.swap t.pd
                      (Refcounted.create ~release:Version.release next))
                  (edit (current_version t))
              in
              ( old_pd,
                if flush then
                  Some (Rcu_box.swap t.pimm (Refcounted.create No_imm))
                else None ))
        in
        Fun.protect
          ~finally:(fun () ->
            Option.iter Refcounted.retire old_pd;
            Option.iter Refcounted.retire old_imm)
          (fun () ->
            with_retry t ~what (fun () -> save_manifest t);
            after_save ()))
  [@@excludes_locks]

  (* Replace a merge's inputs by its [outputs]. [edit] runs inside the
     exclusive section, before the manifest is written. *)
  let install_merge ?(edit = ignore) t ~what task outputs =
    install t ~what
      ~after_save:(fun () ->
        List.iter
          (fun f -> Table_file.mark_obsolete (Refcounted.value f))
          (task.Compaction.inputs_lo @ task.Compaction.inputs_hi))
      (fun cur ->
        edit ();
        Some (Compaction.apply cur task ~outputs));
    List.iter Refcounted.retire outputs
  [@@excludes_locks]

  (* ---------- merge hooks ---------- *)

  (* beforeMerge: freeze Cm as C'm and open a fresh Cm (Algorithm 1 lines
     8-12). Returns false when a previous immutable component is still being
     merged. Caller holds the flush claim. *)
  let rotate t =
    match current_imm t with
    | Imm _ -> false
    | No_imm ->
        if M.is_empty (current_pm t).mem then false
        else begin
          let wal_number = alloc_file_number t () in
          let wal =
            if t.opts.Options.wal_enabled then
              Some
                (with_retry t ~what:"WAL create" (fun () ->
                     Clsm_wal.Wal_writer.create
                       ~mode:(Options.wal_mode t.opts)
                       ~observer:(Stats.wal_observer t.stats)
                       ~env:t.opts.Options.env
                       (Table_file.wal_path ~dir:t.opts.Options.dir wal_number)))
            else None
          in
          let fresh = { mem = M.create (); wal; wal_number } in
          Shared_lock.lock_exclusive t.lock;
          (* P'm <- Pm, then Pm <- new: readers traversing Pm then P'm may see
             the old component twice but can never miss it. *)
          let old_pm_cell = Rcu_box.peek t.pm in
          let imm_cell =
            Refcounted.create (Imm (Refcounted.value old_pm_cell))
          in
          let old_imm_cell = Rcu_box.swap t.pimm imm_cell in
          let old_pm_cell' = Rcu_box.swap t.pm (Refcounted.create fresh) in
          Shared_lock.unlock_exclusive t.lock;
          assert (old_pm_cell == old_pm_cell');
          Refcounted.retire old_imm_cell;
          Refcounted.retire old_pm_cell';
          Stats.incr_rotations t.stats;
          true
        end

  (* Merge C'm into the disk component, then afterMerge: install the new
     version and clear P'm (Algorithm 1 lines 13-17). Caller holds the
     flush claim. *)
  let flush_imm t =
    match current_imm t with
    | No_imm -> false
    | Imm mc ->
        let snapshots = Clock.gc_snapshots t.clock ~now:(Unix.gettimeofday ()) in
        let bytes = M.approximate_bytes mc.mem in
        (* Safe to retry wholesale: a failed attempt cleans up its partial
           outputs (Compaction.cleanup_failed), so each retry starts from
           a blank slate. *)
        let outputs =
          with_retry t ~what:"memtable flush write" (fun () ->
              Compaction.write_sorted_run ~cfg:t.opts.Options.lsm
                ~dir:t.opts.Options.dir ~cache:t.cache ~env:t.opts.Options.env
                ~alloc_number:(alloc_file_number t) ~snapshots
                ~drop_tombstones:false (M.iter mc.mem))
        in
        install t ~flush:true ~what:"manifest save (flush)" (fun cur ->
            Some
              (Version.create
                 ~l0:(outputs @ cur.Version.l0)
                 ~levels:cur.Version.levels));
        List.iter Refcounted.retire outputs;
        Stats.incr_flushes t.stats;
        Stats.add_bytes_flushed t.stats bytes;
        (* Durability order: the manifest that stops referencing the old
           WAL has landed, so the WAL may disappear. *)
        (match mc.wal with
        | Some w ->
            let env = t.opts.Options.env in
            (* The manifest no longer references this log: failure to close
               or delete it only leaves an orphan that the next recovery
               collects, so it must not degrade or kill the worker. *)
            (try Clsm_wal.Wal_writer.close w
             with Env.Error _ | Env.Crashed -> ());
            (try Env.(env.remove) (Clsm_wal.Wal_writer.path w)
             with Env.Error _ | Env.Crashed -> ())
        | None -> ());
        Log.debug (fun m ->
            m "flushed %d bytes into %d L0 file(s)" bytes (List.length outputs));
        true

  (* Push everything buffered to disk: a pending C'm, then the current
     memtable. Caller holds the flush claim. *)
  let flush_all t =
    ignore (flush_imm t : bool);
    ignore (rotate t : bool);
    ignore (flush_imm t : bool)

  (* Run one claimed compaction: merge outside any lock, then install.
     Caller owns the claim on the task's level range. *)
  let run_compaction t task =
    let snapshots = Clock.gc_snapshots t.clock ~now:(Unix.gettimeofday ()) in
    let started = Unix.gettimeofday () in
    (* The expensive merge, range-partitioned across domains when the
       knob allows: each subrange gets its own clamped merge cursor and
       table writer, and the combined output list is installed below in
       one version swap + manifest save, exactly like a sequential
       merge — a crash can only ever observe all of it or none of it. *)
    let outputs, fanout =
      with_retry t ~what:"compaction merge" (fun () ->
          Compaction.run_parallel ~cfg:t.opts.Options.lsm
            ~dir:t.opts.Options.dir ~cache:t.cache ~env:t.opts.Options.env
            ~alloc_number:(alloc_file_number t) ~snapshots
            ~fan_out:Scheduler.fan_out
            ~max_subcompactions:t.opts.Options.max_subcompactions task)
    in
    let merge_duration_ns =
      int_of_float ((Unix.gettimeofday () -. started) *. 1e9)
    in
    let bytes =
      List.fold_left
        (fun a f -> a + (Refcounted.value f).Table_file.size)
        0
        (task.Compaction.inputs_lo @ task.Compaction.inputs_hi)
    in
    install_merge t ~what:"manifest save (compaction)" task outputs;
    (if task.Compaction.src_level >= 1 then
       match Version.files_range task.Compaction.inputs_lo with
       | Some (_, largest) ->
           t.compact_pointers.(task.Compaction.src_level - 1) <- largest
       | None -> ());
    Stats.incr_compactions t.stats ~src_level:task.Compaction.src_level ();
    Stats.record_compaction_run t.stats ~fanout ~duration_ns:merge_duration_ns;
    Stats.add_bytes_compacted t.stats bytes;
    Log.debug (fun m ->
        m "compacted level %d (%d bytes) into %d file(s), %d subcompaction(s)"
          task.Compaction.src_level bytes (List.length outputs) fanout)

  let flush_needed t =
    (match current_imm t with Imm _ -> true | No_imm -> false)
    || M.approximate_bytes (current_pm t).mem > t.opts.Options.memtable_bytes

  (* Pick and claim a compaction whose level range is free. The version
     the task was picked from is pinned so its input files cannot be
     released before the task runs.

     Tombstone dropping is pinned while the quarantine ledger is
     non-empty: a quarantined table is invisible to the version, so
     "nothing deeper than the target" may be a fiction — dropping a
     tombstone whose only covered older values live in the quarantined
     table would resurrect the deleted key on readmission. The version
     is acquired BEFORE the ledger is read, and a quarantine enters the
     ledger before (in the same exclusive section as) its swap, so a
     version lacking a quarantined table is always seen with a non-empty
     ledger and its [deeper_levels_empty] verdict is never trusted. *)
  let claim_compaction_locked t =
    let cell = Rcu_box.acquire t.pd in
    let pin_tombstones =
      let h = t.heal in
      Mutex.protect h.hm (fun () ->
          h.pending_quarantine <> [] || h.quarantined <> [])
    in
    let skip ~src ~target = not (free_locked t (Levels (src, target)) ~yield:true) in
    match
      Compaction.pick ~cfg:t.opts.Options.lsm
        ~level_pointers:t.compact_pointers ~skip ~pin_tombstones
        (Refcounted.value cell)
    with
    | Some ({ Compaction.src_level; target_level; _ } as task) ->
        t.claims.held <-
          (Levels (src_level, target_level), Some { task; pinned = cell })
          :: t.claims.held;
        Some (Job.Compact { src_level; target_level })
    | None ->
        Refcounted.decr cell;
        None
  [@@requires_lock cm]

  (* ---------- self-healing: quarantine, scrub, repair ---------- *)

  (* Containment: swap every table with a pending corruption verdict out
     of the read view and record it in the manifest, so neither this
     process nor a recovery after crash ever reads the rotten file again.
     Overlapping data in other tables keeps serving the key range; the
     store's health becomes [`Partial] (reported by the store layer from
     the quarantine ledger), not [`Degraded] — writes continue.

     Runs regardless of [auto_repair] (containment is not optional). *)
  let apply_pending_quarantines t =
    let h = t.heal in
    if Mutex.protect h.hm (fun () -> h.pending_quarantine <> []) then begin
      let swapped = ref [] in
      install t ~what:"manifest save (quarantine)" (fun cur ->
          (* Taken inside the install section, so a concurrent caller
             that finds the queue empty returns only after these swaps. *)
          swapped :=
            Mutex.protect h.hm (fun () ->
                (* a table already compacted away needs no quarantine *)
                let present =
                  List.filter
                    (fun (n, _) -> Version.find_file cur n <> None)
                    (List.rev h.pending_quarantine)
                in
                h.pending_quarantine <- [];
                (* Ledger first, swap second (see
                   [claim_compaction_locked]). *)
                h.quarantined <- List.map fst present @ h.quarantined;
                List.iter (fun _ -> Stats.incr_quarantined_tables t.stats) present;
                present);
          if !swapped = [] then None
          else Some (Version.remove_files cur (List.map fst !swapped)));
      List.iter
        (fun (number, detail) ->
          Log.err (fun m -> m "quarantined table %06d: %s" number detail))
        !swapped
    end
  [@@excludes_locks]

  (* One scrub slice: re-verify up to [budget] blocks (checksums plus
     structural decode, bypassing the block cache) starting from the
     pass cursor; corrupt tables are enqueued for quarantine and the
     pass continues with the next file. When the file set is exhausted
     the active WAL tail is checked too and the pass closes, scheduling
     the next one [scrub_interval] later. Returns the problems found.
     Caller holds the scrub claim. *)
  let scrub_slice t ~budget =
    let h = t.heal in
    let problems = ref [] in
    let cell = Rcu_box.acquire t.pd in
    Fun.protect
      ~finally:(fun () -> Refcounted.decr cell)
      (fun () ->
        let v = Refcounted.value cell in
        let files =
          v.Version.l0 @ List.concat (Array.to_list v.Version.levels)
          |> List.map Refcounted.value
          |> List.sort (fun a b ->
                 Int.compare a.Table_file.number b.Table_file.number)
        in
        let resume_file, resume_block =
          Mutex.protect h.hm (fun () ->
              match h.scrub_cursor with Some c -> c | None -> (min_int, 0))
        in
        let used = ref 0 in
        let cursor = ref None in
        (try
           List.iter
             (fun tf ->
               let number = tf.Table_file.number in
               (* Files below the cursor were verified earlier this pass
                  (or compacted away, which also re-verified them). *)
               if number >= resume_file then begin
                 let rec step from_block =
                   if !used >= budget then begin
                     cursor := Some (number, from_block);
                     raise Exit
                   end;
                   match
                     Clsm_sstable.Table.scrub ~from_block
                       ~max_blocks:(budget - !used) tf.Table_file.table
                   with
                   | Ok { Clsm_sstable.Table.blocks_checked; next_block } -> (
                       used := !used + blocks_checked;
                       Stats.add_scrubbed_blocks t.stats blocks_checked;
                       match next_block with Some nb -> step nb | None -> ())
                   | Error detail ->
                       problems :=
                         Printf.sprintf "table %06d: %s" number detail
                         :: !problems;
                       ignore (enqueue_quarantine t ~number ~detail : bool)
                 in
                 step (if number = resume_file then resume_block else 0)
               end)
             files;
           (* Whole disk component verified: check the live WAL tail. A
              corrupt tail is not fatal — the memtable still holds every
              record — but it must be surfaced and retired by a flush
              before a crash would make recovery salvage short. The
              writer may have an append in flight, so only the prefix it
              has fully written is classified ([written_bytes] is read
              BEFORE the file): a racing half-written record can never
              masquerade as corruption. *)
           (match (current_pm t).wal with
            | Some w when not (Clsm_wal.Wal_writer.poisoned w) -> (
                let path = Clsm_wal.Wal_writer.path w in
                let synced = Clsm_wal.Wal_writer.written_bytes w in
                match
                  Clsm_wal.Wal_reader.read_records ~env:t.opts.Options.env
                    ~strict:false ~max_bytes:synced path
                with
                | _, Clsm_wal.Wal_reader.Corrupt_tail ->
                    let p = path ^ ": corrupt WAL tail" in
                    problems := p :: !problems;
                    Stats.incr_corruptions_detected t.stats;
                    Log.err (fun m -> m "scrub: %s" p);
                    wake_bg t
                | _, (Clsm_wal.Wal_reader.Clean | Clsm_wal.Wal_reader.Torn_tail)
                  ->
                    ())
            | Some _ | None -> ());
           cursor := None
         with Exit -> ());
        let finished = !cursor = None in
        Mutex.protect h.hm (fun () ->
            h.scrub_cursor <- !cursor;
            if finished then
              h.scrub_next_due <-
                Unix.gettimeofday () +. t.opts.Options.scrub_interval);
        (List.rev !problems, finished))

  (* Synchronous full scrub pass (the CLI's [scrub], repair's final vet
     and the tests call this): verify every sstable block plus the WAL
     tail from the beginning, regardless of any background cursor, queue
     quarantines for anything rotten and apply them before returning.
     Returns human-readable problem descriptions, [] when clean. *)
  let scrub_now t =
    let problems =
      with_claim t Scrub (fun () ->
          Mutex.protect t.heal.hm (fun () -> t.heal.scrub_cursor <- None);
          let problems, finished = scrub_slice t ~budget:max_int in
          assert finished;
          problems)
    in
    apply_pending_quarantines t;
    problems
  [@@excludes_locks]

  (* Readmission is an ordinary compaction with a forced input set.
     Where a re-verified table may rejoin the tree is constrained by
     [Version.get], which answers from the shallowest component holding
     the key: a table of old values spliced at L0 shadows newer versions
     at L1+, while one spliced deep is shadowed by older versions above
     it. We do not know the table's age relative to anything still in
     the tree — least of all its former L0 siblings, which interleave
     with it in time. The one placement needing no such trust is a
     collapse: merge it with every file whose user-key range overlaps it
     at ANY level, L0 included (closed transitively, so the whole range's
     history is one merge), and install the output at the bottom level.
     Afterwards no copy of an affected key survives anywhere shallower to
     shadow the merge's winner; files flushed after the closure's version
     snapshot are strictly newer than everything on disk at that point
     and win by timestamp. Tombstones ride through
     ([drop_tombstones = false]) and keep covering the readmitted puts.
     A readmission moves no round-robin pointer and is not counted as a
     compaction.

     Caller holds the repair claim and the claim on every level, so the
     closure can be neither consumed nor overlapped at the bottom by a
     concurrent compaction. Raises [Env.Error] on transient IO trouble
     and {!Table_file.Corruption} naming whichever merge input (possibly
     the readmitted table itself) turned out rotten. *)
  let readmit t ~number qcell =
    let user_range f =
      let tf = Refcounted.value f in
      Internal_key.
        (user_key_of tf.Table_file.smallest, user_key_of tf.Table_file.largest)
    in
    (* Pin each closure file past the version cell it was found in;
       flushes racing us only add files newer than this snapshot. *)
    let closure =
      Rcu_box.with_ref t.pd (fun v ->
          let files =
            v.Version.l0 @ List.concat (Array.to_list v.Version.levels)
            |> List.filter (fun f -> (Refcounted.value f).Table_file.smallest <> "")
          in
          (* widen the user-key range until no file overlaps it partly *)
          let rec close (lo, hi) =
            let inputs =
              List.filter
                (fun f ->
                  let l, h = user_range f in
                  h >= lo && l <= hi)
                files
            in
            let widened =
              List.fold_left
                (fun (lo, hi) f ->
                  let l, h = user_range f in
                  (min lo l, max hi h))
                (lo, hi) inputs
            in
            if widened = (lo, hi) then inputs else close widened
          in
          let inputs = close (user_range qcell) in
          List.iter
            (fun f ->
              (* live in the pinned version, so the count is positive *)
              let ok = Refcounted.try_incr f in
              assert ok)
            inputs;
          inputs)
    in
    Fun.protect
      ~finally:(fun () -> List.iter Refcounted.decr closure)
      (fun () ->
        let task =
          {
            Compaction.src_level = 0;
            inputs_lo = qcell :: closure;
            inputs_hi = [];
            target_level = t.opts.Options.lsm.Lsm_config.num_levels - 1;
            drop_tombstones = false;
          }
        in
        let outputs =
          Compaction.run ~cfg:t.opts.Options.lsm ~dir:t.opts.Options.dir
            ~cache:t.cache ~env:t.opts.Options.env
            ~alloc_number:(alloc_file_number t)
            ~snapshots:(Clock.gc_snapshots t.clock ~now:(Unix.gettimeofday ()))
            task
        in
        (* The manifest written by this install must not list [number]
           as quarantined: its data is back in the file set. *)
        install_merge t ~what:"manifest save (readmission)" task outputs
          ~edit:(fun () ->
            Mutex.protect t.heal.hm (fun () ->
                t.heal.quarantined <-
                  List.filter (fun n -> n <> number) t.heal.quarantined)))
  [@@excludes_locks]

  (* Repair out of [`Partial]. Every quarantined table gets a second
     chance: re-opened fresh and fully re-verified from disk. Rot that
     was transient (a bit flipped on some past read, not damage on the
     platter) re-verifies clean and the table is readmitted online via
     {!readmit}. Persistent damage gets the file renamed aside as
     evidence (never deleted); its key ranges keep answering from
     surviving overlapping data. Either way the QUARANTINE record is
     resolved. A final full scrub pass vets the whole component before
     [`Ok] is honest — fresh verdicts it finds are queued and block the
     transition until the next round. Returns [`Nothing] (no quarantined
     files), [`Repaired], or [`Blocked] (transient IO trouble or
     still-rotten data; retried after the damping interval). *)
  let finalize_quarantined t =
    let h = t.heal in
    let nums = Mutex.protect h.hm (fun () -> h.quarantined) in
    if nums = [] then `Nothing
    else begin
      let env = t.opts.Options.env in
      let dir = t.opts.Options.dir in
      let blocked = ref false in
      let drop number =
        Mutex.protect h.hm (fun () ->
            h.quarantined <- List.filter (fun n -> n <> number) h.quarantined)
      in
      let resolve number =
        let path = Table_file.table_path ~dir number in
        let discard () =
          (try Env.(env.rename) ~src:path ~dst:(path ^ ".quarantined")
           with Env.Error _ -> ());
          Log.warn (fun m ->
              m
                "repair: table %06d is damaged on disk, renamed aside as \
                 %s.quarantined"
                number (Filename.basename path));
          drop number
        in
        let still_rotten detail =
          Log.warn (fun m -> m "repair: table %06d still rotten: %s" number detail);
          discard ()
        in
        if not (Env.(env.file_exists) path) then
          (* compacted away in a race before the quarantine swap; the
             record is moot *)
          drop number
        else
          (* the footer/index/filter load can hit the same rot the data
             blocks did *)
          match Table_file.open_number ~cache:t.cache ~env ~dir number with
          | exception Env.Crashed -> raise Env.Crashed
          | exception Env.Error _ -> blocked := true
          | exception _ -> discard ()
          | tf -> (
              let qcell = Refcounted.create ~release:Table_file.release tf in
              match
                Fun.protect
                  ~finally:(fun () -> Refcounted.decr qcell)
                  (fun () ->
                    match Clsm_sstable.Table.verify tf.Table_file.table with
                    | Error detail -> `Rotten detail
                    (* an entry-less table holds nothing to restore *)
                    | Ok _ when tf.Table_file.smallest = "" -> `Empty
                    | Ok _ ->
                        readmit t ~number qcell;
                        `Readmitted)
              with
              | `Readmitted ->
                  Log.info (fun m ->
                      m "repair: table %06d re-verified clean, readmitted at \
                         the bottom level" number)
              | `Empty -> discard ()
              | `Rotten detail -> still_rotten detail
              | exception Env.Error _ -> blocked := true
              | exception Table_file.Corruption { number = n; detail; _ } ->
                  if n = number then still_rotten detail
                  else begin
                    (* a surviving merge input is rotten too: queue it
                       and retry the whole round *)
                    ignore (enqueue_quarantine t ~number:n ~detail : bool);
                    blocked := true
                  end)
      in
      with_claim t (all_levels t) (fun () -> List.iter resolve nums);
      (* Persist the purely-ledger resolutions (discards, moot records);
         readmissions already saved their manifest at install time. *)
      install t ~what:"manifest save (repair)" (fun _ -> None);
      if !blocked then `Blocked
      else
        (* Vet the whole component before claiming health. *)
        match scrub_now t with
        | exception Env.Error _ -> `Blocked
        | [] ->
            wake_bg t;
            `Repaired
        | _problems -> `Blocked
    end
  [@@excludes_locks]

  (* Repair out of [`Degraded]: prove the failure path works again by
     pushing everything buffered out to disk — clear any stuck immutable
     component, rotate the (possibly WAL-poisoned) memtable and flush
     it so a fresh log takes over, then commit a manifest as a final
     write-path probe. Success means the fault was transient after all:
     the degraded flag is lifted online, without reopening the store. *)
  let recover_from_degraded t =
    if Atomic.get t.degraded = None then `Nothing
    else if
      not (Mutex.protect t.claims.cm (fun () -> try_claim_locked t Flush ~yield:true))
    then `Blocked (* flush in flight *)
    else
      Fun.protect
        ~finally:(fun () -> release t Flush)
        (fun () ->
          match
            flush_all t;
            install t ~what:"manifest save (repair probe)" (fun _ -> None)
          with
          | () ->
              (match Atomic.get t.degraded with
              | Some reason ->
                  Log.info (fun m ->
                      m "repair: store restored to Ok (was degraded: %s)"
                        reason)
              | None -> ());
              Atomic.set t.degraded None;
              `Repaired
          | exception Env.Error _ -> `Blocked)

  (* The [Repair] job body. Containment always runs; the healing steps
     run when [auto_repair] is on or the caller forces them
     ([repair_now]). Caller holds the repair claim. *)
  let run_repair t ~force =
    let h = t.heal in
    apply_pending_quarantines t;
    if t.opts.Options.auto_repair || force then begin
      (* Damp the next attempt up front: a repair that fails (media
         still rotten, fault still live) must not hot-loop the pool. *)
      Mutex.protect h.hm (fun () ->
          h.repair_next_due <- Unix.gettimeofday () +. 1.0);
      let finalized = finalize_quarantined t in
      let recovered = recover_from_degraded t in
      List.iter
        (function
          | `Repaired -> Stats.incr_auto_repairs t.stats
          | `Nothing | `Blocked -> ())
        [ finalized; recovered ]
    end
  [@@excludes_locks]

  (* ---------- the pool's job interface ---------- *)

  (* Claim the highest-priority runnable job, in [Job.priority] order:
     an unclaimed needed flush first (it is what frees WAL space), then
     Repair, then compactions (Compaction.pick orders them L0→L1 first,
     then shallowest over-budget level), then Scrub when nothing else
     wants the worker. A degraded store skips the flush check — its
     write path is exactly what is broken — and claims nothing but
     Repair, which is the way back out. *)
  let next t =
    if Atomic.get t.stop then None
    else begin
      let h = t.heal in
      let now = Unix.gettimeofday () in
      let degraded = is_degraded t in
      let ( <|> ) a b = match a with Some _ -> a | None -> b () in
      Mutex.protect t.claims.cm (fun () ->
          let claim job c =
            if try_claim_locked t c ~yield:true then Some job else None
          in
          (if (not degraded) && flush_needed t then claim Job.Flush Flush
           else None)
          <|> (fun () ->
          let wanted =
            Mutex.protect h.hm (fun () ->
                h.pending_quarantine <> []
                || t.opts.Options.auto_repair
                   && now >= h.repair_next_due
                   && (h.quarantined <> [] || degraded))
          in
          if wanted then claim Job.Repair Repair else None)
          <|> fun () ->
          if degraded then None
          else
            (if Atomic.get t.claims.draining > 0 then None
             else claim_compaction_locked t)
            <|> fun () ->
            if
              t.opts.Options.scrub_interval > 0.0
              && Mutex.protect h.hm (fun () -> now >= h.scrub_next_due)
            then claim Job.Scrub Scrub
            else None)
    end

  let run_flush t =
    (* Clear a pending immutable component first, then rotate an
       over-budget memtable and flush the result. *)
    ignore (flush_imm t);
    if M.approximate_bytes (current_pm t).mem > t.opts.Options.memtable_bytes
    then if rotate t then ignore (flush_imm t)

  let run_scrub t =
    try
      ignore
        (scrub_slice t ~budget:t.opts.Options.scrub_block_budget
          : string list * bool)
    with Env.Error _ ->
      (* A transient read failure is not corruption and must not degrade
         the store off a hygiene pass: abandon the slice (the cursor is
         unchanged) and push the pass out a full interval so a
         persistently sick disk cannot hot-loop the worker. *)
      Mutex.protect t.heal.hm (fun () ->
          t.heal.scrub_next_due <-
            Unix.gettimeofday () +. Float.max 1.0 t.opts.Options.scrub_interval)

  (* Run a claimed job and release its claim. A compaction's claim is
     released only after its pinned version is dropped, so whoever waits
     for quiescence also waits for the inputs to become deletable. *)
  let run t (job : Job.t) =
    let released claim f = Fun.protect ~finally:(fun () -> release t claim) f in
    match job with
    | Job.Flush ->
        released Flush (fun () ->
            guard_io t ~what:"memtable flush" (fun () -> run_flush t))
    | Job.Repair ->
        released Repair (fun () ->
            guard_io t ~what:"repair" (fun () -> run_repair t ~force:false))
    | Job.Scrub ->
        released Scrub (fun () ->
            guard_io t ~what:"scrub" (fun () -> run_scrub t))
    | Job.Compact { src_level; target_level } ->
        let claim = Levels (src_level, target_level) in
        released claim (fun () ->
            match
              Mutex.protect t.claims.cm (fun () ->
                  Option.join (List.assoc_opt claim t.claims.held))
            with
            | None -> ()
            | Some { task; pinned } ->
                Fun.protect
                  ~finally:(fun () -> Refcounted.decr pinned)
                  (fun () ->
                    guard_io t ~what:"compaction" (fun () ->
                        run_compaction t task)))

  (* ---------- foreground maintenance ---------- *)

  (* Synchronously rotate, flush and compact to quiescence, cooperating
     with (not fighting) the background workers: claims are shared, and
     quiescence means no claimable work and no flush or compaction in
     flight. The caller runs the compactions ([draining]): a worker that
     won the first merge left it idling with the memtable it had just
     flushed uncollected, and a bulk load's peak heap swung by half. *)
  let compact_now t =
    let c = t.claims in
    let rec drain () =
      match
        Mutex.protect c.cm (fun () ->
            (* A degraded store must not keep re-claiming the same doomed
               task: stop draining, the directory is as compacted as it
               will get. *)
            if is_degraded t then `Idle
            else
              match claim_compaction_locked t with
              | Some job -> `Run job
              | None
                when List.exists
                       (function (Flush | Levels _), _ -> true | _ -> false)
                       c.held ->
                  `Wait
              | None -> `Idle)
      with
      | `Run job ->
          run t job;
          drain ()
      | `Wait ->
          (* wait out the flush and compactions in flight, then look again *)
          with_claim t Flush (fun () -> with_claim t (all_levels t) ignore);
          drain ()
      | `Idle -> ()
    in
    Atomic.incr c.draining;
    Fun.protect
      ~finally:(fun () -> Atomic.decr c.draining)
      (fun () ->
        with_claim t Flush (fun () ->
            guard_io t ~what:"foreground flush" (fun () -> flush_all t));
        drain ())
  [@@excludes_locks]

  (* Synchronous repair attempt (the Repair job, forced): containment,
     quarantine finalization and the degraded-recovery probe all run
     even with [auto_repair] off. *)
  let repair_now t =
    with_claim t Repair (fun () ->
        guard_io t ~what:"repair" (fun () -> run_repair t ~force:true))
  [@@excludes_locks]
end
