(* The event-driven maintenance layer: the Wakeup primitive, the job
   model, the scheduler, the graduated backpressure curve, and — against
   the real store — the regression the refactor exists for: a memtable
   rotation triggers a flush through a condvar signal, not a poll tick,
   plus a multi-domain stress test of writers, scanners and forced
   churn under the worker pool. *)

open Clsm_core
open Clsm_primitives
open Clsm_maintenance

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "clsm_test_maint_%d_%d" (Unix.getpid ()) !counter)
    in
    let rec rm path =
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
    in
    rm d;
    d

(* ---------- Wakeup primitive ---------- *)

let wakeup_signal_then_wait () =
  let w = Wakeup.create () in
  let seen = Wakeup.current w in
  Wakeup.signal w;
  (* Signal already issued: wait must return immediately, not block. *)
  let g = Wakeup.wait w ~seen in
  Alcotest.(check bool) "generation advanced" true (g > seen)

let wakeup_wakes_sleeping_waiter () =
  let w = Wakeup.create () in
  let woke = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        let seen = Wakeup.current w in
        ignore (Wakeup.wait w ~seen);
        Atomic.set woke true)
  in
  (* Give the waiter time to park, then signal. *)
  let rec park_wait n =
    if n > 0 && Wakeup.waiters w = 0 then begin
      Unix.sleepf 0.005;
      park_wait (n - 1)
    end
  in
  park_wait 200;
  Alcotest.(check int) "one parked waiter" 1 (Wakeup.waiters w);
  Wakeup.signal w;
  Domain.join waiter;
  Alcotest.(check bool) "waiter woke" true (Atomic.get woke)

(* ---------- Job model ---------- *)

let job_priorities () =
  let flush = Job.Flush in
  let l0 = Job.Compact { src_level = 0; target_level = 1 } in
  let deep = Job.Compact { src_level = 3; target_level = 4 } in
  Alcotest.(check bool) "flush beats L0 merge" true (Job.compare flush l0 < 0);
  Alcotest.(check bool) "L0 merge beats deep" true (Job.compare l0 deep < 0);
  Alcotest.(check (option (pair int int))) "flush occupies no levels" None
    (Job.levels flush);
  Alcotest.(check (option (pair int int))) "compact range" (Some (3, 4))
    (Job.levels deep)

(* ---------- Scheduler ---------- *)

(* A source whose [next] hands out [pending] flushes. *)
let counting_source () =
  let pending = Atomic.make 0 in
  let next () =
    let rec claim () =
      let n = Atomic.get pending in
      if n <= 0 then None
      else if Atomic.compare_and_set pending n (n - 1) then Some Job.Flush
      else claim ()
    in
    claim ()
  in
  (pending, next)

let await ?(timeout = 5.0) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done

(* With an effectively infinite tick, only the wake signal can run the
   job: the scheduler is event-driven, not polling. *)
let scheduler_runs_on_wake_not_tick () =
  let pending, next = counting_source () in
  let ran = Atomic.make 0 in
  let run _job = Atomic.incr ran in
  let pool = Scheduler.create ~num_workers:2 ~tick_interval:3600.0 () in
  let src = Scheduler.register pool ~next ~run in
  Unix.sleepf 0.05;
  Alcotest.(check int) "idle until work exists" 0 (Atomic.get ran);
  Atomic.set pending 3;
  Scheduler.wake src;
  await (fun () -> Atomic.get ran >= 3);
  Scheduler.unregister src;
  Alcotest.(check int) "all jobs ran without a tick" 3 (Atomic.get ran);
  Alcotest.(check int) "jobs counted" 3 (Scheduler.jobs_run pool);
  Alcotest.(check int) "last unregister joins the workers" 0
    (Scheduler.running_workers pool)

let scheduler_stop_joins_quickly () =
  let pool = Scheduler.create ~num_workers:1 ~tick_interval:3600.0 () in
  let src =
    Scheduler.register pool ~next:(fun () -> None) ~run:(fun _ -> ())
  in
  Unix.sleepf 0.02;
  Alcotest.(check int) "one worker, no ticker domain" 1
    (Scheduler.running_workers pool);
  let t0 = Unix.gettimeofday () in
  Scheduler.unregister src;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned in %.3fs despite 1h tick" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check int) "no worker left" 0 (Scheduler.running_workers pool)

(* One worker, two sources with work: claims alternate between them.
   Once a source is unregistered its [next] is never called again, even
   with work pending and the other source still served. *)
let scheduler_round_robin_and_unregister () =
  let pool = Scheduler.create ~num_workers:1 ~tick_interval:3600.0 () in
  let order = Atomic.make [] in
  let go = Atomic.make false in
  let record name = Atomic.set order (name :: Atomic.get order) in
  let source name =
    let pending, next = counting_source () in
    let probes_after_unregister = Atomic.make 0 in
    let unregistered = Atomic.make false in
    let next () =
      if Atomic.get unregistered then Atomic.incr probes_after_unregister;
      if Atomic.get go then next () else None
    in
    let src = Scheduler.register pool ~next ~run:(fun _ -> record name) in
    (src, pending, unregistered, probes_after_unregister)
  in
  let a, a_pending, a_unregistered, a_probes = source "a" in
  let b, b_pending, _, _ = source "b" in
  (* let the registration wake-ups settle so no probe sweep straddles
     [go] *)
  Unix.sleepf 0.05;
  Atomic.set a_pending 4;
  Atomic.set b_pending 4;
  Atomic.set go true;
  Scheduler.wake a;
  await (fun () -> List.length (Atomic.get order) >= 8);
  let served = List.rev (Atomic.get order) in
  Alcotest.(check int) "every job ran" 8 (List.length served);
  List.iteri
    (fun i name ->
      if i > 0 && name = List.nth served (i - 1) then
        Alcotest.failf "claim %d repeated source %s: %s" i name
          (String.concat "," served))
    served;
  Scheduler.unregister a;
  Atomic.set a_unregistered true;
  Atomic.set a_pending 5;
  Atomic.set b_pending 2;
  Scheduler.wake b;
  Scheduler.wake a;
  await (fun () -> List.length (Atomic.get order) >= 10);
  Unix.sleepf 0.05;
  Alcotest.(check int) "b still served" 10 (List.length (Atomic.get order));
  Alcotest.(check int) "a never probed after unregister" 0
    (Atomic.get a_probes);
  Alcotest.(check int) "a's work left unclaimed" 5 (Atomic.get a_pending);
  Scheduler.unregister b

(* A worker sweeps the source list it read when the sweep began, so a
   source unregistered mid-sweep is still on that list: the sweep must
   skip it. [b]'s [next], probed first in its sweep, unregisters [a],
   which comes later in the same sweep. *)
let scheduler_skips_source_unregistered_mid_sweep () =
  let pool = Scheduler.create ~num_workers:1 ~tick_interval:3600.0 () in
  let last = Atomic.make "" and a_src = Atomic.make None in
  let a_gone = Atomic.make false and a_probed_after = Atomic.make 0 in
  let b =
    Scheduler.register pool ~run:ignore ~next:(fun () ->
        (match Atomic.get a_src with
        | Some a when (not (Atomic.get a_gone)) && Atomic.get last <> "a" ->
            Scheduler.unregister a;
            Atomic.set a_gone true
        | _ -> ());
        Atomic.set last "b";
        None)
  in
  let a =
    Scheduler.register pool ~run:ignore ~next:(fun () ->
        if Atomic.get a_gone then Atomic.incr a_probed_after;
        Atomic.set last "a";
        None)
  in
  Atomic.set a_src (Some a);
  await (fun () ->
      Scheduler.wake b;
      Atomic.get a_gone);
  Unix.sleepf 0.05;
  Alcotest.(check bool) "a was unregistered mid-sweep" true (Atomic.get a_gone);
  Alcotest.(check int) "a never probed after unregister" 0
    (Atomic.get a_probed_after);
  Scheduler.unregister b

(* ---------- Backpressure curve ---------- *)

let backpressure_curve () =
  let config =
    { Backpressure.soft_l0 = 8; hard_l0 = 12; max_delay_ns = 1_000_000 }
  in
  Alcotest.(check int) "no delay below soft" 0
    (Backpressure.delay_ns config ~l0_files:7);
  let d8 = Backpressure.delay_ns config ~l0_files:8 in
  let d10 = Backpressure.delay_ns config ~l0_files:10 in
  let d11 = Backpressure.delay_ns config ~l0_files:11 in
  Alcotest.(check bool) "positive at soft" true (d8 > 0);
  Alcotest.(check bool) "monotone" true (d8 < d10 && d10 < d11);
  Alcotest.(check int) "max at hard-1" config.max_delay_ns d11;
  Alcotest.(check int) "capped past hard" config.max_delay_ns
    (Backpressure.delay_ns config ~l0_files:20);
  (* Degenerate config (soft = hard) must not divide by zero. *)
  let tight = { config with Backpressure.soft_l0 = 12 } in
  Alcotest.(check int) "soft=hard still capped" tight.max_delay_ns
    (Backpressure.delay_ns tight ~l0_files:12)

(* ---------- Stats JSON ---------- *)

let stats_json_shape () =
  let s = Stats.create () in
  Stats.incr_puts s;
  Stats.incr_compactions s ~src_level:0 ();
  Stats.incr_compactions s ~src_level:2 ();
  Stats.add_slowdown s ~delay_ns:1234;
  let json = Stats.to_json (Stats.read s) in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec at i = i + m <= n && (String.sub json i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "puts" true (has "\"puts\":1");
  Alcotest.(check bool) "per-level array" true
    (has "\"compactions_per_level\":[1,0,1");
  Alcotest.(check bool) "slowdown ns" true (has "\"slowdown_delay_ns\":1234");
  Alcotest.(check bool) "valid object" true
    (String.length json > 2
    && json.[0] = '{'
    && json.[String.length json - 1] = '}')

(* Counters are plain Atomics: domains hammering them concurrently must
   lose no increments, the fan-out high-watermark must converge to the
   true maximum, and a JSON snapshot taken afterwards must reflect the
   exact totals. *)
let stats_concurrent_updates () =
  let s = Stats.create () in
  let domains = 4 and per_domain = 5_000 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      Stats.incr_flushes s;
      (* Fanouts cycle 1..4 so the true max is exactly 4. *)
      Stats.record_compaction_run s
        ~fanout:((i mod 4) + 1)
        ~duration_ns:10;
      Stats.add_stall_ns s (d + 1)
    done
  in
  let doms = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join doms;
  let st = Stats.read s in
  let n = domains * per_domain in
  Alcotest.(check int) "flushes" n st.Stats.flushes;
  (* Each run records max 1 fanout subranges: cycle 1+2+3+4 per 4 runs. *)
  Alcotest.(check int) "subcompactions" (n / 4 * 10) st.Stats.subcompactions;
  Alcotest.(check int) "parallel runs" (n / 4 * 3) st.Stats.parallel_compactions;
  Alcotest.(check int) "fanout high-watermark" 4 st.Stats.max_compaction_fanout;
  Alcotest.(check int) "compaction ns" (n * 10) st.Stats.compaction_ns;
  Alcotest.(check int) "stall ns"
    (per_domain * (1 + 2 + 3 + 4))
    st.Stats.stall_ns;
  let json = Stats.to_json st in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec at i = i + m <= n && (String.sub json i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "json subcompactions" true
    (has (Printf.sprintf "\"subcompactions\":%d" st.Stats.subcompactions));
  Alcotest.(check bool) "json fanout" true (has "\"max_compaction_fanout\":4");
  Alcotest.(check bool) "json stall_ns" true
    (has (Printf.sprintf "\"stall_ns\":%d" st.Stats.stall_ns))

(* ---------- Store-level: event-driven flush regression ---------- *)

(* The seed's background loop slept between polls, so flush latency was
   bounded below by the poll interval. With the scheduler, a rotation
   signals a condvar: set the fallback tick to 30 s and require the flush
   to land orders of magnitude sooner. *)
let flush_without_poll_tick () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 4 * 1024;
      cache_bytes = 1 lsl 20;
      scheduler = Scheduler.create ~tick_interval:30.0 ();
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.level1_max_bytes = 64 * 1024;
          target_file_size = 16 * 1024;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      for i = 0 to 199 do
        Db.put db
          ~key:(Printf.sprintf "key-%04d" i)
          ~value:(String.make 64 'v')
      done;
      let deadline = t0 +. 10.0 in
      while
        (Db.stats db).Stats.flushes = 0 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.002
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      let st = Db.stats db in
      Alcotest.(check bool) "rotation happened" true
        (st.Stats.memtable_rotations >= 1);
      Alcotest.(check bool) "flush happened" true (st.Stats.flushes >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "flush in %.3fs, far below the 30s tick" elapsed)
        true
        (elapsed < 5.0);
      Alcotest.(check bool) "writes signalled the scheduler" true
        (st.Stats.maintenance_wakeups >= 1);
      (* Data must remain readable across rotation + flush. *)
      Alcotest.(check (option string)) "read-back" (Some (String.make 64 'v'))
        (Db.get db "key-0199"))

(* [compact_now] runs every compaction on its caller: a pool whose
   workers look for work every half millisecond must claim none of the
   many small merges a few bulk loads leave behind. *)
let compact_now_keeps_its_compactions () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let pool = Scheduler.create ~num_workers:2 ~tick_interval:0.0005 () in
  let opts =
    {
      base with
      Options.memtable_bytes = 4 lsl 20;
      cache_bytes = 1 lsl 20;
      scheduler = pool;
      scrub_interval = 0.0;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.l0_compaction_trigger = 1;
          level1_max_bytes = 32 * 1024;
          target_file_size = 8 * 1024;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      for round = 0 to 3 do
        for i = 0 to 1999 do
          Db.put db
            ~key:(Printf.sprintf "key-%05d" ((i * 7919) mod 2000))
            ~value:(Printf.sprintf "%d%s" round (String.make 100 'v'))
        done;
        let before = Scheduler.jobs_run pool in
        Db.compact_now db;
        Alcotest.(check int)
          (Printf.sprintf "round %d: no pool job during compact_now" round)
          0
          (Scheduler.jobs_run pool - before)
      done;
      let st = Db.stats db in
      Alcotest.(check bool) "compactions ran" true
        (Array.fold_left ( + ) 0 st.Stats.compactions_per_level >= 10);
      Alcotest.(check (list string)) "healthy" [] (Db.verify_integrity db);
      Alcotest.(check (option string)) "read-back"
        (Some ("3" ^ String.make 100 'v'))
        (Db.get db "key-01999"))

(* End-to-end through the real store with [max_subcompactions = 4]: the
   L0→L1 merge must fan out (stats record the parallelism), and reads,
   level invariants and recovery must be indistinguishable from the
   sequential path. *)
let parallel_subcompactions_e2e () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 1 lsl 20;
      cache_bytes = 1 lsl 20;
      max_subcompactions = 4;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.level1_max_bytes = 64 * 1024;
          target_file_size = 32 * 1024;
          l0_compaction_trigger = 3;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_store opts in
  let value round i = Printf.sprintf "r%d-%06d" round i in
  for round = 1 to 4 do
    for i = 1 to 300 do
      Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(value round i)
    done;
    (* Rotate + flush each round; round 3 reaches the L0 trigger and runs
       the fanned-out L0→L1 merge inside this call. *)
    Db.compact_now db
  done;
  for i = 1 to 300 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%04d newest version" i)
      (Some (value 4 i))
      (Db.get db (Printf.sprintf "k%04d" i))
  done;
  Alcotest.(check (list string)) "level invariants hold" []
    (Db.verify_integrity db);
  let st = Db.stats db in
  Alcotest.(check bool) "a compaction ran" true (st.Stats.compactions >= 1);
  Alcotest.(check bool) "it fanned out" true
    (st.Stats.parallel_compactions >= 1 && st.Stats.max_compaction_fanout >= 2);
  Alcotest.(check bool) "subranges counted" true
    (st.Stats.subcompactions > st.Stats.compactions);
  Alcotest.(check bool) "duration recorded" true (st.Stats.compaction_ns > 0);
  Db.close db;
  (* Recovery over the parallel-written level must be seamless. *)
  let db2 = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db2)
    (fun () ->
      Alcotest.(check (option string)) "survives reopen"
        (Some (value 4 123))
        (Db.get db2 "k0123");
      Alcotest.(check (list string)) "healthy after reopen" []
        (Db.verify_integrity db2))

(* ---------- Store-level: concurrency stress under the scheduler ---------- *)

let stress_writers_readers_churn () =
  let dir = fresh_dir () in
  let base = Options.default ~dir in
  let opts =
    {
      base with
      Options.memtable_bytes = 8 * 1024;
      cache_bytes = 1 lsl 20;
      scheduler = Scheduler.create ~num_workers:2 ~tick_interval:0.05 ();
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.level1_max_bytes = 32 * 1024;
          target_file_size = 8 * 1024;
          block_size = 1024;
        };
    }
  in
  let db = Db.open_store opts in
  let writers = 3 and per_writer = 300 in
  let value w i = Printf.sprintf "w%d-value-%06d" w i in
  let key w i = Printf.sprintf "w%d-key-%04d" w i in
  (* Seed the atomic pair scanners assert on. *)
  Db.write_batch db
    [ Db.Batch_put ("pair-a", "0"); Db.Batch_put ("pair-b", "0") ];
  let stop_readers = Atomic.make false in
  let failures : string list Atomic.t = Atomic.make [] in
  let fail msg = Atomic.set failures (msg :: Atomic.get failures) in
  let writer w () =
    for i = 0 to per_writer - 1 do
      Db.put db ~key:(key w i) ~value:(value w i);
      (* Batches keep the pair equal at every snapshot. *)
      if i mod 50 = 0 then begin
        let v = string_of_int ((w * per_writer) + i) in
        Db.write_batch db [ Db.Batch_put ("pair-a", v); Db.Batch_put ("pair-b", v) ]
      end
    done
  in
  let reader () =
    while not (Atomic.get stop_readers) do
      let s = Db.get_snap db in
      (* Atomic-batch invariant under a snapshot. *)
      let a = Db.get_at db s "pair-a" and b = Db.get_at db s "pair-b" in
      if a <> b then
        fail
          (Printf.sprintf "pair diverged under snapshot: %s vs %s"
             (Option.value a ~default:"-")
             (Option.value b ~default:"-"));
      (* Snapshot scans must be stable while compactions churn beneath. *)
      let r1 = Db.range ~snapshot:s ~start:"w0-" ~stop:"w1-" db in
      let r2 = Db.range ~snapshot:s ~start:"w0-" ~stop:"w1-" db in
      if r1 <> r2 then fail "snapshot scan not repeatable";
      List.iter
        (fun (k, v) ->
          if not (String.length v >= 3 && String.sub v 0 3 = "w0-") then
            fail (Printf.sprintf "foreign value %s under key %s" v k))
        r1;
      Db.release_snapshot db s
    done
  in
  let churn () =
    for _ = 1 to 3 do
      Db.compact_now db;
      Unix.sleepf 0.01
    done
  in
  let reader_doms = List.init 2 (fun _ -> Domain.spawn reader) in
  let writer_doms = List.init writers (fun w -> Domain.spawn (writer w)) in
  let churn_dom = Domain.spawn churn in
  List.iter Domain.join writer_doms;
  Domain.join churn_dom;
  Atomic.set stop_readers true;
  List.iter Domain.join reader_doms;
  (* Everything written must be readable: no lost updates. *)
  Db.compact_now db;
  for w = 0 to writers - 1 do
    for i = 0 to per_writer - 1 do
      match Db.get db (key w i) with
      | Some v when v = value w i -> ()
      | Some v -> fail (Printf.sprintf "%s: wrong value %s" (key w i) v)
      | None -> fail (Printf.sprintf "%s: lost" (key w i))
    done
  done;
  Alcotest.(check (list string)) "no consistency violations" []
    (Atomic.get failures);
  Alcotest.(check (list string)) "level invariants hold" []
    (Db.verify_integrity db);
  let st = Db.stats db in
  Alcotest.(check bool) "maintenance actually churned" true
    (st.Stats.flushes >= 1 && st.Stats.memtable_rotations >= 1);
  Db.close db;
  (* Reopen: recovery must see every key (WAL + manifest consistent). *)
  let db2 = Db.open_store opts in
  Fun.protect
    ~finally:(fun () -> Db.close db2)
    (fun () ->
      Alcotest.(check (option string)) "survives reopen"
        (Some (value 2 (per_writer - 1)))
        (Db.get db2 (key 2 (per_writer - 1))))

(* ---------- Store-level: one pool for every store ---------- *)

(* Every store registers with the process-wide pool, so the number of
   open stores is not bounded by the runtime's domain limit: 64 stores
   on [Options.default] each flush in the background, all on the
   default pool's two workers. *)
let many_stores_share_one_pool () =
  let n = 64 in
  let dirs = List.init n (fun _ -> fresh_dir ()) in
  let open_one dir =
    Db.open_store
      { (Options.default ~dir) with Options.memtable_bytes = 4 * 1024 }
  in
  let opened = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun db -> try Db.close db with _ -> ()) !opened)
    (fun () ->
      List.iter (fun dir -> opened := open_one dir :: !opened) dirs;
      let dbs = List.rev !opened in
      Alcotest.(check int) "the default pool's two workers, no more" 2
        (Scheduler.running_workers Scheduler.shared);
      List.iter
        (fun db ->
          for i = 0 to 19 do
            Db.put db
              ~key:(Printf.sprintf "k%03d" i)
              ~value:(String.make 300 'v')
          done)
        dbs;
      await ~timeout:30.0 (fun () ->
          List.for_all (fun db -> (Db.stats db).Stats.flushes >= 1) dbs);
      List.iteri
        (fun i db ->
          Alcotest.(check bool)
            (Printf.sprintf "store %d flushed in the background" i)
            true
            ((Db.stats db).Stats.flushes >= 1))
        dbs;
      List.iter Db.close dbs;
      opened := [];
      Alcotest.(check int) "no worker after the last close" 0
        (Scheduler.running_workers Scheduler.shared));
  List.iter
    (fun dir ->
      let db = open_one dir in
      Fun.protect
        ~finally:(fun () -> Db.close db)
        (fun () ->
          Alcotest.(check (option string))
            "data survives" (Some (String.make 300 'v')) (Db.get db "k019")))
    [ List.hd dirs; List.nth dirs (n - 1) ]

(* An env whose table builds crawl while [slow] is set, and which counts
   the table files being written: a compaction can be caught in flight. *)
let slow_table_env ~slow ~open_tables =
  let base = Clsm_env.Env.unix in
  let create_writer path =
    let w = base.Clsm_env.Env.create_writer path in
    if not (Filename.check_suffix path ".sst.tmp") then w
    else begin
      Atomic.incr open_tables;
      let crawl () = if Atomic.get slow then Unix.sleepf 0.02 in
      {
        Clsm_env.Env.w_append =
          (fun s ->
            crawl ();
            w.Clsm_env.Env.w_append s);
        w_fsync =
          (fun () ->
            crawl ();
            w.Clsm_env.Env.w_fsync ());
        w_close =
          (fun () ->
            w.Clsm_env.Env.w_close ();
            Atomic.decr open_tables);
      }
    end
  in
  { base with Clsm_env.Env.create_writer }

(* Closing store A while the shared pool runs A's compaction waits for
   that job; store B, on the same pool, keeps being maintained. *)
let close_waits_for_inflight_job () =
  let pool = Scheduler.create ~num_workers:2 ~tick_interval:0.05 () in
  let dir_a = fresh_dir () and dir_b = fresh_dir () in
  let opts ?(env = Clsm_env.Env.unix) ?(memtable_bytes = 4 * 1024)
      ?(l0_trigger = 100) dir =
    let base = Options.default ~dir in
    {
      base with
      Options.memtable_bytes;
      env;
      scheduler = pool;
      scrub_interval = 0.0;
      lsm =
        {
          base.Options.lsm with
          Clsm_lsm.Lsm_config.l0_compaction_trigger = l0_trigger;
          l0_slowdown_trigger = 200;
          l0_stall_limit = 300;
          block_size = 1024;
        };
    }
  in
  let value i = Printf.sprintf "%04d%s" i (String.make 1000 'a') in
  (* Phase 1: at least two L0 files, with compaction held off. *)
  let a = Db.open_store (opts dir_a) in
  for i = 0 to 39 do
    Db.put a ~key:(Printf.sprintf "a%04d" i) ~value:(value i);
    if i mod 20 = 19 then Db.compact_now a
  done;
  (match Db.level_file_counts a with
  | l0 :: deeper ->
      Alcotest.(check bool) "L0 piled up, nothing deeper" true
        (l0 >= 2 && List.for_all (( = ) 0) deeper)
  | [] -> Alcotest.fail "no levels");
  Db.close a;
  let b = Db.open_store (opts dir_b) in
  (* Phase 2: reopen A with the L0 trigger armed, so the pool claims an
     L0->L1 compaction at once, and catch it mid-build. *)
  let slow = Atomic.make true and open_tables = Atomic.make 0 in
  let a =
    Db.open_store
      (opts
         ~env:(slow_table_env ~slow ~open_tables)
         ~memtable_bytes:(1 lsl 20) ~l0_trigger:2 dir_a)
  in
  await (fun () -> Atomic.get open_tables > 0);
  Alcotest.(check bool) "compaction in flight" true (Atomic.get open_tables > 0);
  Alcotest.(check int) "not finished yet" 0
    (Array.fold_left ( + ) 0 (Db.stats a).Stats.compactions_per_level);
  Db.close a;
  Alcotest.(check int) "close returned after the job's table was written" 0
    (Atomic.get open_tables);
  Alcotest.(check int) "the compaction completed before close returned" 1
    (Array.fold_left ( + ) 0 (Db.stats a).Stats.compactions_per_level);
  (* B is still served by the same pool. *)
  let flushed = (Db.stats b).Stats.flushes in
  for i = 0 to 19 do
    Db.put b ~key:(Printf.sprintf "b%04d" i) ~value:(value i)
  done;
  await (fun () -> (Db.stats b).Stats.flushes > flushed);
  Alcotest.(check bool) "B keeps flushing" true
    ((Db.stats b).Stats.flushes > flushed);
  Alcotest.(check (list string)) "B healthy" [] (Db.verify_integrity b);
  Db.close b;
  List.iter
    (fun (dir, key, i) ->
      let db = Db.open_store (opts dir) in
      Fun.protect
        ~finally:(fun () -> Db.close db)
        (fun () ->
          Alcotest.(check (list string)) "healthy after reopen" []
            (Db.verify_integrity db);
          Alcotest.(check (option string)) "data survives" (Some (value i))
            (Db.get db key)))
    [ (dir_a, "a0039", 39); (dir_b, "b0019", 19) ];
  Alcotest.(check int) "pool idle after the last close" 0
    (Scheduler.running_workers pool)

let suites =
  [
    ( "maintenance.wakeup",
      [
        Alcotest.test_case "signal then wait" `Quick wakeup_signal_then_wait;
        Alcotest.test_case "wakes sleeping waiter" `Quick
          wakeup_wakes_sleeping_waiter;
      ] );
    ( "maintenance.job",
      [ Alcotest.test_case "priorities" `Quick job_priorities ] );
    ( "maintenance.scheduler",
      [
        Alcotest.test_case "event-driven, not polling" `Quick
          scheduler_runs_on_wake_not_tick;
        Alcotest.test_case "stop joins despite long tick" `Quick
          scheduler_stop_joins_quickly;
        Alcotest.test_case "round-robin; unregistered never claimed" `Quick
          scheduler_round_robin_and_unregister;
        Alcotest.test_case "unregister mid-sweep is honoured" `Quick
          scheduler_skips_source_unregistered_mid_sweep;
      ] );
    ( "maintenance.backpressure",
      [ Alcotest.test_case "graduated delay curve" `Quick backpressure_curve ] );
    ( "maintenance.stats",
      [
        Alcotest.test_case "to_json shape" `Quick stats_json_shape;
        Alcotest.test_case "concurrent counter updates" `Quick
          stats_concurrent_updates;
      ] );
    ( "maintenance.store",
      [
        Alcotest.test_case "flush without poll tick" `Quick
          flush_without_poll_tick;
        Alcotest.test_case "parallel subcompactions end-to-end" `Quick
          parallel_subcompactions_e2e;
        Alcotest.test_case "writers/readers/churn stress" `Slow
          stress_writers_readers_churn;
        Alcotest.test_case "compact_now keeps its compactions" `Quick
          compact_now_keeps_its_compactions;
      ] );
    ( "maintenance.pool",
      [
        Alcotest.test_case "64 stores share the default pool" `Quick
          many_stores_share_one_pool;
        Alcotest.test_case "close waits for the in-flight job" `Quick
          close_waits_for_inflight_job;
      ] );
  ]
