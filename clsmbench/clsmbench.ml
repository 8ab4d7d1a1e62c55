(* The cLSM benchmark.

     clsmbench --workload NAME --seed N --seconds S --trace 0|1

   Sets up a fresh store for the workload (preload, compact_now, warm
   pass; three times, the median is setup_s), then runs a closed loop from
   two client domains for S seconds: each client issues its next call
   only after the previous one returned. Every answer is checked by the
   oracle. The last line of stdout is one JSON object with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1). See
   METRICS.md for the workloads and what each metric should move. *)

open Clsmbench_lib
module Db = Clsm_core.Db
module Stats = Clsm_core.Stats
module Spec = Clsm_workload.Workload_spec
module Key_dist = Clsm_workload.Key_dist
module Rng = Clsm_workload.Rng
module W = Workloads

let clients = 2
let setups = 3
let op_get = 0
let op_put = 1
let op_scan = 2
let op_rmw = 3
let op_names = [| "get"; "put"; "scan"; "rmw" |]

(* Span names: the root span of each client operation, then the Db calls. *)
let span_names =
  [| "op.get"; "op.put"; "op.scan"; "op.rmw"; "core.get"; "core.put"; "core.get_snap";
     "core.range"; "core.release_snapshot"; "core.rmw" |]

let sp_get = 4
let sp_put = 5
let sp_get_snap = 6
let sp_range = 7
let sp_release = 8
let sp_rmw = 9

(* Tracing alternates with untraced slices of this length, so the traced
   run measures its own overhead on the same store state. *)
let slice_ns = 250_000_000

(* ---------- files: everything stays under the checkout ---------- *)

let data_root = ".clsmbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Bytes under [dir]; files that compaction deletes mid-walk count as 0. *)
let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      let entries = try Sys.readdir path with Sys_error _ -> [||] in
      Array.fold_left (fun a f -> a + dir_bytes (Filename.concat path f)) 0 entries
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let proc_field file field =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.equal (String.sub line 0 i) field ->
                let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
                Scanf.sscanf v "%d" Fun.id
            | _ -> go ())
        | exception End_of_file -> failwith ("no " ^ field ^ " in " ^ file)
      in
      go ())

(* Bytes this process passed to write(2): WAL, flushes, compactions and
   manifests alike. *)
let written_bytes () = proc_field "/proc/self/io" "wchar"
let rss_kb () = proc_field "/proc/self/status" "VmRSS"

(* Resident memory and the data directory's size, sampled by client 0
   between its ops. One end-of-run sample could land between a
   compaction's output and the deletion of its inputs, or on one GC
   cycle's peak; the median over the loop is what the store holds while
   it runs. *)
let sample_every_ns = 250_000_000

type footprint = { mutable rss : float list; mutable disk : float list; mutable next : int }

(* ---------- set-up ---------- *)

let setup (w : W.t) ~seed ~dir =
  rm_rf dir;
  mkdir_p dir;
  let db = Db.open_store (w.options ~dir) in
  (* Bulk load in key order, 256 keys per write batch: one put at a time
     spends most of the set-up in backpressure delays. *)
  let chunk = 256 in
  for c = 0 to (w.space - 1) / chunk do
    Db.write_batch db
      (List.init
         (min chunk (w.space - (c * chunk)))
         (fun j ->
           let i = (c * chunk) + j in
           Db.Batch_put (W.key w i, W.preload_value w i)))
  done;
  Db.compact_now db;
  (* Warm the cache with the workload's own key distribution. *)
  let rng = Rng.create (seed lxor 0x5eed) in
  for _ = 1 to min w.space 50_000 do
    let k = W.key w (Key_dist.next_index w.spec.Spec.keys rng) in
    if not (Oracle.get_ok ~key:k (Db.get db k)) then failwith ("set-up: wrong value for " ^ k)
  done;
  db

(* ---------- closed-loop clients ---------- *)

type client = {
  id : int;
  rng : Rng.t;
  samples : Samples.t;
  spans : Spans.t;  (** empty unless tracing *)
  last : int array;  (** last sequence number this client wrote per key, -1 *)
  mutable seq : int;
  mutable attempted : int;
  mutable failed : int;
  mutable user_bytes : int;
  mutable rmw_ok : int;
  mutable traced_ops : int;
  mutable untraced_ops : int;
  mutable finished_ns : int;
}

let make_client (w : W.t) ~rng ~seconds ~trace id =
  {
    id;
    rng;
    samples = Samples.create (seconds * 150_000);
    spans = Spans.create (if trace then seconds * 250_000 else 0);
    last = Array.make w.space (-1);
    seq = 0;
    attempted = 0;
    failed = 0;
    user_bytes = 0;
    rmw_ok = 0;
    traced_ops = 0;
    untraced_ops = 0;
    finished_ns = 0;
  }

let one_op (w : W.t) db c ~traced =
  let spec = w.spec in
  let value_len = spec.Spec.value_len and key_len = spec.Spec.key_len in
  let req = (c.id lsl 40) lor c.attempted in
  let op = Spec.next_op spec c.rng in
  let code =
    match op with Spec.Read -> op_get | Write -> op_put | Scan -> op_scan | Rmw -> op_rmw
  in
  let root = if traced then Spans.start c.spans ~name:code ~parent:(-1) ~req else -1 in
  let call name f =
    if traced then begin
      let id = Spans.start c.spans ~name ~parent:root ~req in
      match f () with
      | r ->
          Spans.stop c.spans id;
          r
      | exception e ->
          Spans.stop c.spans id;
          raise e
    end
    else f ()
  in
  let timed f =
    let t0 = Samples.now () in
    let r = f () in
    Samples.add c.samples ~op:code (Samples.now () - t0);
    r
  in
  c.attempted <- c.attempted + 1;
  let ok =
    try
      match op with
      | Spec.Read ->
          let key = W.key w (Key_dist.next_index spec.Spec.keys c.rng) in
          let v = timed (fun () -> call sp_get (fun () -> Db.get db key)) in
          Oracle.get_ok ~key v
      | Write ->
          let i = Key_dist.next_index spec.Spec.keys c.rng in
          let key = W.key w i in
          c.seq <- c.seq + 1;
          let value = Oracle.encode ~value_len ~key ~client:c.id ~seq:c.seq ~counter:0 in
          timed (fun () -> call sp_put (fun () -> Db.put db ~key ~value));
          c.last.(i) <- c.seq;
          c.user_bytes <- c.user_bytes + key_len + value_len;
          true
      | Scan ->
          let limit = Spec.scan_len spec c.rng in
          let i = min (Key_dist.next_index spec.Spec.keys c.rng) (w.space - limit) in
          let start = W.key w i in
          let rows =
            timed (fun () ->
                let snapshot = call sp_get_snap (fun () -> Db.get_snap db) in
                let rows = call sp_range (fun () -> Db.range ~snapshot ~start ~limit db) in
                call sp_release (fun () -> Db.release_snapshot db snapshot);
                rows)
          in
          Oracle.scan_ok ~key_index:(W.key_index w) ~start ~limit rows
      | Rmw ->
          let key = W.key w (Key_dist.next_index spec.Spec.keys c.rng) in
          c.seq <- c.seq + 1;
          let seq = c.seq and bad = ref false in
          let f old =
            match Option.bind old (Oracle.value_of_key ~key) with
            | Some d ->
                bad := false;
                Db.Set
                  (Oracle.encode ~value_len ~key ~client:c.id ~seq ~counter:(d.Oracle.counter + 1))
            | None ->
                bad := true;
                Db.Abort
          in
          ignore (timed (fun () -> call sp_rmw (fun () -> Db.rmw db ~key f)));
          if not !bad then begin
            c.rmw_ok <- c.rmw_ok + 1;
            c.user_bytes <- c.user_bytes + key_len + value_len
          end;
          not !bad
    with _ -> false
  in
  Spans.stop c.spans root;
  if not ok then c.failed <- c.failed + 1;
  if traced then c.traced_ops <- c.traced_ops + 1 else c.untraced_ops <- c.untraced_ops + 1

let run_client w db ~t_start ~deadline ~trace ~dir ?footprint c =
  let rec loop () =
    let t = Samples.now () in
    if t < deadline && not (Samples.full c.samples) then begin
      (match footprint with
      | Some f when t >= f.next ->
          f.rss <- float_of_int (rss_kb ()) /. 1024.0 :: f.rss;
          f.disk <- float_of_int (dir_bytes dir) :: f.disk;
          f.next <- t + sample_every_ns
      | _ -> ());
      let traced = trace && ((t - t_start) / slice_ns) land 1 = 1 in
      one_op w db c ~traced;
      loop ()
    end
    else c.finished_ns <- t
  in
  loop ()

(* ---------- end-of-run oracle ---------- *)

(* Keys whose final value is wrong: after puts, each key holds one
   client's last write (or its preload value); after RMWs, the counters
   sum to the RMWs that took effect. *)
let final_check (w : W.t) db cs =
  let bad = ref 0 in
  if w.spec.Spec.write_ratio > 0.0 then begin
    let last = Array.of_list (List.map (fun c -> c.last) cs) in
    for i = 0 to w.space - 1 do
      let key = W.key w i in
      if not (Oracle.final_ok ~last ~index:i ~key (Db.get db key)) then incr bad
    done
  end;
  if w.spec.Spec.rmw_ratio > 0.0 then begin
    let sum =
      Db.fold
        (fun key v acc ->
          match Oracle.value_of_key ~key v with
          | Some d -> acc + d.Oracle.counter
          | None ->
              incr bad;
              acc)
        db 0
    in
    let rmws = List.fold_left (fun a c -> a + c.rmw_ok) 0 cs in
    if not (Oracle.counters_ok ~sum ~rmws) then incr bad
  end;
  !bad

(* ---------- output ---------- *)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.15g" f

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let us ns = float_of_int ns /. 1e3

(* Per-layer metric units follow from the name's suffix. *)
let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends ".ns_p50" then "ns"
  else if ends ".us_p50" then "us"
  else if ends ".words" || ends "_per_op" || ends "_per_entry" then "words"
  else if ends ".mb_s" then "MB/s"
  else if ends "_s" then "s"
  else if ends "bytes_flushed" || ends "bytes_compacted" then "bytes"
  else if ends "_ratio" || ends "_share" then "ratio"
  else if ends "mean_batch" then "records"
  else "count"

(* ---------- metrics ---------- *)

type counters = {
  stats : Stats.snapshot;
  cache : Clsm_sstable.Cache.stats;
  gc : Gc.stat;
  wchar : int;
}

let counters db =
  { stats = Db.stats db; cache = Db.cache_stats db; gc = Gc.quick_stat (); wchar = written_bytes () }

let end_to_end (w : W.t) cs ~setup_s ~wall_ns ~before ~after ~footprint =
  let samples = List.map (fun c -> c.samples) cs in
  let all = Samples.sorted samples in
  let writes = Samples.sorted ~keep:(fun o -> o = op_put || o = op_rmw) samples in
  Printf.printf "  all  n=%d, writes n=%d (put and rmw)\n" (Array.length all) (Array.length writes);
  let user_bytes = List.fold_left (fun a c -> a + c.user_bytes) 0 cs in
  let live = w.space * (w.spec.Spec.key_len + w.spec.Spec.value_len) in
  [
    ("setup_s", "s", setup_s);
    ("throughput_ops_s", "1/s", float_of_int (Array.length all) /. (float_of_int wall_ns /. 1e9));
    ("write_p50_us", "us", us (Samples.percentile writes 0.5));
    ("op_p999_us", "us", us (Samples.percentile all 0.999));
    ( "write_amp",
      "ratio",
      float_of_int (after.wchar - before.wchar) /. float_of_int (max 1 user_bytes) );
    ("space_amp", "ratio", Samples.median_float footprint.disk /. float_of_int live);
    ("rss_mb", "MB", Samples.median_float footprint.rss);
  ]

(* Counter deltas over the loop and span statistics; the spans are
   written out here. *)
let per_layer (w : W.t) cs ~wall_ns ~before ~after =
  let spans = List.map (fun c -> c.spans) cs in
  mkdir_p (Filename.concat data_root "spans");
  Spans.write_tsv ~names:span_names
    (Filename.concat data_root (Printf.sprintf "spans/%s.tsv" w.name))
    spans;
  let span_us name = us (Spans.median_duration spans name) in
  let d f = float_of_int (f after.stats - f before.stats) in
  let dc f = float_of_int (f after.cache - f before.cache) in
  let hits = dc (fun s -> s.Clsm_sstable.Cache.hits)
  and misses = dc (fun s -> s.Clsm_sstable.Cache.misses) in
  let ops = float_of_int (List.fold_left (fun a c -> a + Samples.count c.samples) 0 cs) in
  let sum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cs) in
  [
    ( "core.backpressure.delay_s",
      (d (fun s -> s.Stats.slowdown_delay_ns) +. d (fun s -> s.Stats.stall_ns)) /. 1e9 );
    ( "core.backpressure.delayed_puts",
      d (fun s -> s.Stats.write_slowdowns) +. d (fun s -> s.Stats.write_stalls) );
    ( "core.rmw.conflict_ratio",
      d (fun s -> s.Stats.rmw_conflicts) /. Float.max 1.0 (d (fun s -> s.Stats.rmws)) );
    ("core.get_snap.us_p50", span_us sp_get_snap);
    ("core.range.us_p50", span_us sp_range);
    ("core.get.us_p50", span_us sp_get);
    ("core.put.us_p50", span_us sp_put);
    ("core.rmw.us_p50", span_us sp_rmw);
    ("core.memtable_rotations", d (fun s -> s.Stats.memtable_rotations));
    ("sstable.cache.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
    ("sstable.cache.evictions", dc (fun s -> s.Clsm_sstable.Cache.evictions));
    ("sstable.readahead_blocks", dc (fun s -> s.Clsm_sstable.Cache.readahead_blocks));
    ("lsm.flushes", d (fun s -> s.Stats.flushes));
    ("lsm.compactions", d (fun s -> s.Stats.compactions));
    ("lsm.bytes_flushed", d (fun s -> s.Stats.bytes_flushed));
    ("lsm.bytes_compacted", d (fun s -> s.Stats.bytes_compacted));
    ("maintenance.compaction_busy_s", d (fun s -> s.Stats.compaction_ns) /. 1e9);
    ("maintenance.busy_share", d (fun s -> s.Stats.compaction_ns) /. float_of_int wall_ns);
    ("maintenance.wakeups", d (fun s -> s.Stats.maintenance_wakeups));
    ("gc.minor_words_per_op", (after.gc.Gc.minor_words -. before.gc.Gc.minor_words) /. ops);
    ( "gc.promoted_words_per_op",
      (after.gc.Gc.promoted_words -. before.gc.Gc.promoted_words) /. ops );
    ( "gc.minor_collections",
      float_of_int (after.gc.Gc.minor_collections - before.gc.Gc.minor_collections) );
    ( "gc.major_collections",
      float_of_int (after.gc.Gc.major_collections - before.gc.Gc.major_collections) );
    ( "trace.overhead_ratio",
      sum (fun c -> c.untraced_ops) /. Float.max 1.0 (sum (fun c -> c.traced_ops)) );
    ("trace.client_self_share", Spans.root_self_share spans);
  ]

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: clsmbench --workload production|overwrite|scan_rmw --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (match int_of_string_opt v with Some n when n > 0 -> n | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match W.find !workload with Some w -> w | None -> usage () in
  if !seed < 0 || !seconds = 0 || !trace < 0 then usage ();
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  mkdir_p data_root;
  let dir = Filename.concat data_root w.name in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* Set up [setups] times from scratch; the last store is the one run. *)
      let setup_times = ref [] and db = ref None in
      for _ = 1 to setups do
        Option.iter Db.close !db;
        let t0 = Samples.now () in
        db := Some (setup w ~seed ~dir);
        setup_times := float_of_int (Samples.now () - t0) /. 1e9 :: !setup_times
      done;
      let db = Option.get !db in
      let setup_s = Samples.median_float !setup_times in
      let root = Rng.create seed in
      let cs =
        List.init clients (fun id -> make_client w ~rng:(Rng.split root) ~seconds ~trace id)
      in
      (* Collect the set-ups' garbage before the loop, not inside it. *)
      Gc.compact ();
      let before = counters db in
      let t_start = Samples.now () in
      let deadline = t_start + (seconds * 1_000_000_000) in
      let others =
        List.map
          (fun c -> Domain.spawn (fun () -> run_client w db ~t_start ~deadline ~trace ~dir c))
          (List.tl cs)
      in
      let footprint = { rss = []; disk = []; next = t_start } in
      run_client w db ~t_start ~deadline ~trace ~dir ~footprint (List.hd cs);
      List.iter Domain.join others;
      let wall_ns = List.fold_left (fun a c -> max a c.finished_ns) 0 cs - t_start in
      let after = counters db in
      let bad_keys = final_check w db cs in
      Db.close db;
      let attempted = List.fold_left (fun a c -> a + c.attempted) 0 cs in
      let failed = List.fold_left (fun a c -> a + c.failed) 0 cs + bad_keys in
      Printf.printf "workload %s seed %d: %d ops in %.3f s, %d failed, %d wrong final keys\n"
        w.name seed attempted
        (float_of_int wall_ns /. 1e9)
        failed bad_keys;
      let samples = List.map (fun c -> c.samples) cs in
      Array.iteri
        (fun code name ->
          let a = Samples.sorted ~keep:(fun o -> o = code) samples in
          if Array.length a > 0 then
            Printf.printf "  %-4s n=%d p50=%.2fus p99=%.2fus p999=%.2fus max=%.2fus\n" name
              (Array.length a)
              (us (Samples.percentile a 0.5))
              (us (Samples.percentile a 0.99))
              (us (Samples.percentile a 0.999))
              (us a.(Array.length a - 1)))
        op_names;
      let metrics =
        if trace then begin
          let loop = per_layer w cs ~wall_ns ~before ~after in
          let replays = Layers.replay w ~seed ~dir in
          List.map (fun (name, v) -> (name, layer_unit name, v)) (loop @ replays)
        end
        else end_to_end w cs ~setup_s ~wall_ns ~before ~after ~footprint
      in
      print_result ~correct:(failed = 0) ~attempted ~failed metrics)
