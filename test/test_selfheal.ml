(* Self-healing unit tests: the Retry_policy backoff schedule under a
   fake clock, the quarantine -> repair round trip for both transient
   and persistent corruption, and the transient-fsync profile that must
   complete through retries without ever degrading the store. The
   multi-seed bit-rot campaign lives in test_torture.ml. *)

open Clsm_core
module Scheduler = Clsm_maintenance.Scheduler
open Clsm_lsm
open Clsm_env

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "clsm_test_selfheal_%d_%d" (Unix.getpid ()) !counter)
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

let small_opts ?(env = Env.unix) dir =
  let base = Options.default ~dir in
  {
    base with
    Options.memtable_bytes = 16 * 1024;
    wal_enabled = true;
    wal_sync = `Async;
    env;
    cache_bytes = 1 lsl 20;
    scheduler = Scheduler.create ~num_workers:1 ~tick_interval:0.01 ();
    (* tests drive scrub/repair explicitly *)
    scrub_interval = 0.0;
    auto_repair = false;
    lsm =
      {
        base.Options.lsm with
        Lsm_config.level1_max_bytes = 64 * 1024;
        target_file_size = 8 * 1024;
        l0_compaction_trigger = 3;
        block_size = 1024;
      };
  }

(* ---------- Retry_policy under a fake clock ---------- *)

(* A policy whose clock only advances when [sleep] is called, so every
   schedule decision is a pure function of the attempt history. *)
let fake_clock_policy ?deadline ?(jitter = 0.0) ?(max_attempts = 5)
    ?(initial_delay = 0.01) ?(max_delay = 0.08) () =
  let now = ref 0.0 in
  let slept = ref [] in
  let p =
    {
      Retry_policy.max_attempts;
      initial_delay;
      max_delay;
      multiplier = 2.0;
      jitter;
      deadline;
      sleep =
        (fun d ->
          slept := d :: !slept;
          now := !now +. d);
      now = (fun () -> !now);
    }
  in
  (p, slept)

let io_error = Env.Error { op = "fsync"; path = "x"; message = "EIO" }

let retry_until_success () =
  let p, slept = fake_clock_policy () in
  let attempts = ref 0 in
  let retries = ref 0 in
  let v =
    Retry_policy.run p
      ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retries)
      (fun () ->
        incr attempts;
        if !attempts < 3 then raise io_error;
        "ok")
  in
  Alcotest.(check string) "result" "ok" v;
  Alcotest.(check int) "attempts" 3 !attempts;
  Alcotest.(check int) "on_retry fired per sleep" 2 !retries;
  (* The recorded sleeps are exactly the published schedule. *)
  Alcotest.(check (list (float 1e-9)))
    "schedule"
    [
      Retry_policy.delay_for p ~attempt:1; Retry_policy.delay_for p ~attempt:2;
    ]
    (List.rev !slept)

let exhaustion_reraises_last () =
  let p, slept = fake_clock_policy ~max_attempts:4 () in
  let attempts = ref 0 in
  (match
     Retry_policy.run p (fun () ->
         incr attempts;
         raise io_error)
   with
  | _ -> Alcotest.fail "expected Env.Error after exhaustion"
  | exception Env.Error { op; _ } -> Alcotest.(check string) "op" "fsync" op);
  Alcotest.(check int) "all attempts used" 4 !attempts;
  Alcotest.(check int) "no sleep after the last attempt" 3 (List.length !slept)

let crashed_is_never_retried () =
  let p, slept = fake_clock_policy () in
  let attempts = ref 0 in
  (match
     Retry_policy.run p (fun () ->
         incr attempts;
         raise Env.Crashed)
   with
  | _ -> Alcotest.fail "expected Env.Crashed to propagate"
  | exception Env.Crashed -> ());
  Alcotest.(check int) "single attempt" 1 !attempts;
  Alcotest.(check int) "no sleeps" 0 (List.length !slept)

let delay_grows_then_caps () =
  let p, _ = fake_clock_policy ~max_attempts:8 () in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.01
    (Retry_policy.delay_for p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.02
    (Retry_policy.delay_for p ~attempt:2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.04
    (Retry_policy.delay_for p ~attempt:3);
  (* 0.08 cap: attempts 4, 5, ... all clamp to max_delay. *)
  Alcotest.(check (float 1e-9)) "attempt 4 capped" 0.08
    (Retry_policy.delay_for p ~attempt:4);
  Alcotest.(check (float 1e-9)) "attempt 7 capped" 0.08
    (Retry_policy.delay_for p ~attempt:7)

let jitter_is_deterministic_and_bounded () =
  let p, _ = fake_clock_policy ~jitter:0.5 ~max_attempts:8 () in
  let p0, _ = fake_clock_policy ~jitter:0.0 ~max_attempts:8 () in
  let distinct = ref false in
  for attempt = 1 to 7 do
    let d = Retry_policy.delay_for p ~attempt in
    let d' = Retry_policy.delay_for p ~attempt in
    let base = Retry_policy.delay_for p0 ~attempt in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "attempt %d reproducible" attempt)
      d d';
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within +/-50%%" attempt)
      true
      (d >= (base *. 0.5) -. 1e-12 && d <= (base *. 1.5) +. 1e-12);
    if abs_float (d -. base) > 1e-9 then distinct := true
  done;
  Alcotest.(check bool) "jitter actually perturbs the schedule" true !distinct

let deadline_cuts_retries_short () =
  (* 10ms, 20ms, 40ms... under a 25ms deadline the third attempt's
     preceding sleep would already overrun, so run gives up after two
     attempts even though max_attempts allows ten. *)
  let p, slept = fake_clock_policy ~max_attempts:10 ~deadline:0.025 () in
  let attempts = ref 0 in
  (match
     Retry_policy.run p (fun () ->
         incr attempts;
         raise io_error)
   with
  | _ -> Alcotest.fail "expected Env.Error at the deadline"
  | exception Env.Error _ -> ());
  Alcotest.(check int) "deadline bounded the attempts" 2 !attempts;
  Alcotest.(check int) "one sleep" 1 (List.length !slept)

(* ---------- quarantine -> repair round trip ---------- *)

let fill db =
  for i = 0 to 599 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(Printf.sprintf "v%04d" i)
  done;
  Db.compact_now db

let check_all db =
  for i = 0 to 599 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%04d" i)
      (Some (Printf.sprintf "v%04d" i))
      (Db.get db (Printf.sprintf "k%04d" i))
  done

(* Transient rot of one chosen table: flip bytes in its first data
   block, let a scrub quarantine it, then put the bytes back — the
   medium is clean again by the time repair re-verifies it. *)
let rot_on_disk_until_scrubbed db dir number =
  let path = Filename.concat dir (Printf.sprintf "%06d.sst" number) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let write_at_64 b =
    ignore (Unix.lseek fd 64 Unix.SEEK_SET : int);
    ignore (Unix.write fd b 0 4 : int)
  in
  let saved = Bytes.create 4 in
  ignore (Unix.lseek fd 64 Unix.SEEK_SET : int);
  Alcotest.(check int) "read the original bytes" 4 (Unix.read fd saved 0 4);
  write_at_64 (Bytes.of_string "\xde\xad\xbe\xef");
  let problems = Db.scrub_now db in
  write_at_64 saved;
  Unix.close fd;
  problems

let sst_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".sst")
  |> List.map (fun n -> int_of_string (Filename.chop_suffix n ".sst"))

(* What gets transiently rotten: every table at once (the injector's
   lying reads), one table whose key range overlaps nothing else, or an
   L1 table whose readmission closure takes in L0 and the rest of L1. *)
type rot_input = Every_table | Isolated_table | Table_under_l0

(* Transient rot: the chosen tables fail their scrub, get quarantined,
   then re-verify clean from disk once the lie is gone — repair must
   readmit them (a compaction into the bottom level) and lose nothing:
   every key reads its newest value, tombstones included. *)
let transient_rot_round_trip input () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:5 () in
  let base = small_opts ~env:(Faulty_env.env f) dir in
  let opts =
    match input with
    | Every_table -> base
    (* only compact_now flushes, so the table layout is deterministic *)
    | Isolated_table | Table_under_l0 ->
        { base with Options.memtable_bytes = 1 lsl 20 }
  in
  let db = Db.open_store opts in
  let expected = Hashtbl.create 1024 in
  let put key value =
    Db.put db ~key ~value;
    Hashtbl.replace expected key (Some value)
  in
  let key i = Printf.sprintf "k%04d" i in
  let problems =
    match input with
    | Every_table ->
        for i = 0 to 599 do
          put (key i) (Printf.sprintf "v%04d" i)
        done;
        Db.compact_now db;
        Faulty_env.set_fault_rates f ~corrupt_read_1_in:1 ();
        let problems = Db.scrub_now db in
        Faulty_env.set_fault_rates f ~corrupt_read_1_in:0 ();
        problems
    | Isolated_table ->
        for i = 0 to 49 do
          put (Printf.sprintf "a%04d" i) "a"
        done;
        Db.compact_now db;
        let q = List.hd (sst_files dir) in
        for i = 0 to 49 do
          put (Printf.sprintf "m%04d" i) "m"
        done;
        Db.compact_now db;
        Alcotest.(check int) "two disjoint tables" 2 (List.length (sst_files dir));
        rot_on_disk_until_scrubbed db dir q
    | Table_under_l0 ->
        (* two flushes of two tables each: the second pair triggers
           the L0->L1 merge *)
        for round = 1 to 2 do
          for i = 0 to 599 do
            put (key i) (Printf.sprintf "r%d-%04d" round i)
          done;
          Db.compact_now db
        done;
        for i = 0 to 599 do
          if i mod 50 = 0 then begin
            Db.delete db ~key:(key i);
            Hashtbl.replace expected (key i) None
          end
          else if i mod 7 = 0 then put (key i) (Printf.sprintf "r3-%04d" i)
        done;
        Db.compact_now db;
        (match Db.level_file_counts db with
        | l0 :: l1 :: _ when l0 >= 1 && l1 >= 2 -> ()
        | counts ->
            Alcotest.failf "expected L0 tables over two or more in L1: %s"
              (String.concat "," (List.map string_of_int counts)));
        let q =
          match Manifest.load ~dir () with
          | Some m -> List.assoc 1 m.Manifest.files
          | None -> Alcotest.fail "manifest missing"
        in
        rot_on_disk_until_scrubbed db dir q
  in
  Alcotest.(check bool) "scrub saw the rot" true (problems <> []);
  (match Db.health db with
  | `Partial _ -> ()
  | `Ok -> Alcotest.fail "quarantine must surface as `Partial"
  | `Degraded r -> Alcotest.failf "bit-rot must not degrade: %s" r);
  let s = Db.stats db in
  Alcotest.(check bool) "corruptions counted" true
    (s.Stats.corruptions_detected > 0);
  Alcotest.(check bool) "tables quarantined" true
    (s.Stats.quarantined_tables > 0);
  (match Db.repair_now db with
  | `Ok -> ()
  | `Partial r | `Degraded r -> Alcotest.failf "repair did not heal: %s" r);
  Alcotest.(check bool) "repair counted" true
    ((Db.stats db).Stats.auto_repairs > 0);
  Alcotest.(check bool) "readmitted into the bottom level" true
    (List.nth (List.rev (Db.level_file_counts db)) 0 > 0);
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option string)) k v (Db.get db k))
    expected;
  Alcotest.(check (list string)) "verify clean" [] (Db.verify_integrity db);
  (* Nothing was set aside: readmission, not discard. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".quarantined" then
        Alcotest.failf "transiently rotten table was discarded: %s" name)
    (Sys.readdir dir);
  Db.close db

(* Persistent rot: damage on the platter. Repair must set the table
   aside (rename, drop from the manifest) and return the store to [`Ok]
   — minus the damaged table's keys, which is the documented trade. *)
let persistent_rot_round_trip () =
  let dir = fresh_dir () in
  let opts = small_opts dir in
  let db = Db.open_store opts in
  fill db;
  Db.close db;
  let sst =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".sst")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir sst in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 64 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad\xbe\xef") 0 4);
  Unix.close fd;
  let db = Db.open_store opts in
  let problems = Db.scrub_now db in
  Alcotest.(check bool) "scrub found the damage" true (problems <> []);
  (match Db.health db with
  | `Partial _ -> ()
  | `Ok | `Degraded _ -> Alcotest.fail "expected `Partial after quarantine");
  (match Db.repair_now db with
  | `Ok -> ()
  | `Partial r | `Degraded r -> Alcotest.failf "repair did not finish: %s" r);
  (* The damaged table is out of the tree but kept on disk for forensics. *)
  Alcotest.(check bool) "set aside as .quarantined" true
    (Sys.file_exists (path ^ ".quarantined"));
  Alcotest.(check bool) "no longer a live table" false (Sys.file_exists path);
  Alcotest.(check (list string)) "store consistent" [] (Db.verify_integrity db);
  (* Scans over the full range still work; only the lost table's keys are
     gone. *)
  let n = List.length (Db.range ~limit:10_000 db) in
  Alcotest.(check bool) "surviving keys readable" true (n > 0 && n < 600);
  Db.close db;
  (* The quarantine outcome is durable: a reopen neither resurrects the
     damaged table nor trips over the set-aside file. *)
  let db = Db.open_store opts in
  Alcotest.(check int) "reopen serves the same survivors" n
    (List.length (Db.range ~limit:10_000 db));
  Alcotest.(check (list string)) "clean after reopen" []
    (Db.verify_integrity db);
  Db.close db

(* A scan that hits a rotten table raises — and must still release what
   it pinned. Were the failed scans' read views still held, the tables
   the later compactions make obsolete would stay on disk. *)
let failed_scan_releases_its_pins () =
  let dir = fresh_dir () in
  let opts =
    {
      (small_opts dir) with
      (* only compact_now flushes and compacts, so the layout is
         deterministic *)
      Options.memtable_bytes = 1 lsl 20;
      scheduler = Scheduler.create ~num_workers:0 ();
    }
  in
  let db = Db.open_store opts in
  fill db;
  Db.close db;
  let sst = List.hd (List.sort compare (sst_files dir)) in
  let fd =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "%06d.sst" sst))
      [ Unix.O_RDWR ] 0
  in
  ignore (Unix.lseek fd 64 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xde\xad\xbe\xef") 0 4);
  Unix.close fd;
  let db = Db.open_store opts in
  (match Db.range ~limit:10_000 db with
  | _ -> Alcotest.fail "range over a rotten table must raise"
  | exception Table_file.Corruption _ -> ());
  (match Db.fold (fun _ _ n -> n + 1) db 0 with
  | _ -> Alcotest.fail "fold over a rotten table must raise"
  | exception Table_file.Corruption _ -> ());
  ignore (Db.repair_now db);
  (* Rewrite every key until L0 reaches its trigger: the compaction
     obsoletes every table the failed scans saw. *)
  for _ = 1 to opts.Options.lsm.Lsm_config.l0_compaction_trigger do
    fill db
  done;
  Alcotest.(check int) "no obsolete table left on disk"
    (List.fold_left ( + ) 0 (Db.level_file_counts db))
    (List.length (sst_files dir));
  check_all db;
  Db.close db

(* ---------- transient fsync faults ride through retry ---------- *)

let transient_fsync_completes_via_retry () =
  let dir = fresh_dir () in
  let f = Faulty_env.create ~seed:17 ~fsync_fail_1_in:4 () in
  let base = small_opts ~env:(Faulty_env.env f) dir in
  let opts =
    {
      base with
      (* The WAL's fsync gate poisons the writer on the first failure by
         design (it cannot know what reached disk), so this profile runs
         without a WAL and points squarely at the flush/compaction path.
         Sleeps are elided to keep the test fast; the schedule itself is
         covered by the fake-clock suite above. *)
      Options.wal_enabled = false;
      retry =
        {
          Retry_policy.default with
          max_attempts = 8;
          deadline = None;
          sleep = (fun _ -> ());
        };
    }
  in
  let db = Db.open_store opts in
  for i = 0 to 599 do
    Db.put db ~key:(Printf.sprintf "k%04d" i) ~value:(Printf.sprintf "v%04d" i)
  done;
  Db.compact_now db;
  (match Db.health db with
  | `Ok -> ()
  | `Partial r | `Degraded r ->
      Alcotest.failf "transient fsync faults must not stick: %s" r);
  let s = Db.stats db in
  Alcotest.(check bool)
    (Printf.sprintf "faults were injected (%d)" (Faulty_env.injected_faults f))
    true
    (Faulty_env.injected_faults f > 0);
  Alcotest.(check bool)
    (Printf.sprintf "retries absorbed them (io_retries=%d)" s.Stats.io_retries)
    true (s.Stats.io_retries > 0);
  check_all db;
  Alcotest.(check (list string)) "consistent" [] (Db.verify_integrity db);
  Db.close db

let suites =
  [
    ( "selfheal.retry",
      [
        Alcotest.test_case "retries until success" `Quick retry_until_success;
        Alcotest.test_case "exhaustion re-raises" `Quick exhaustion_reraises_last;
        Alcotest.test_case "crashed not retried" `Quick crashed_is_never_retried;
        Alcotest.test_case "delay grows then caps" `Quick delay_grows_then_caps;
        Alcotest.test_case "jitter deterministic" `Quick
          jitter_is_deterministic_and_bounded;
        Alcotest.test_case "deadline cuts short" `Quick
          deadline_cuts_retries_short;
      ] );
    ( "selfheal.quarantine",
      [
        Alcotest.test_case "transient rot round trip" `Quick
          (transient_rot_round_trip Every_table);
        Alcotest.test_case "transient rot, isolated table" `Quick
          (transient_rot_round_trip Isolated_table);
        Alcotest.test_case "transient rot, closure spans L0+L1" `Quick
          (transient_rot_round_trip Table_under_l0);
        Alcotest.test_case "persistent rot round trip" `Quick
          persistent_rot_round_trip;
        Alcotest.test_case "failed scan releases its pins" `Quick
          failed_scan_releases_its_pins;
      ] );
    ( "selfheal.retry-io",
      [
        Alcotest.test_case "transient fsync rides through" `Quick
          transient_fsync_completes_via_retry;
      ] );
  ]
