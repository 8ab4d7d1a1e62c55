(* Per-layer replays for the traced run: the workload's seeded key stream
   fed straight into each lower layer's public functions, timed per call
   with the monotonic clock, with minor-heap words per call from the
   calling domain's allocation counter. The library itself is not
   instrumented. *)

open Clsm_lsm
module Memtable = Clsm_core.Memtable
module Wal_writer = Clsm_wal.Wal_writer
module Table = Clsm_sstable.Table
module Bloom = Clsm_sstable.Bloom
module Cache = Clsm_sstable.Cache
module Refcounted = Clsm_primitives.Refcounted

let now = Samples.now

(* Run [f i] for every [i < n]; the median ns per call and the minor words
   allocated per call. *)
let timed n f =
  let lat = Array.make n 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    let t0 = now () in
    f i;
    lat.(i) <- now () - t0
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (max 1 n) in
  Array.sort compare lat;
  (float_of_int (Samples.percentile lat 0.5), words)

let pair name (ns, words) = [ (name ^ ".ns_p50", ns); (name ^ ".words", words) ]

let memtable ~keys ~values =
  let n = Array.length keys in
  let entries = Array.map (fun v -> Entry.Value v) values in
  let m = Memtable.create () in
  let add = timed n (fun i -> Memtable.add m ~user_key:keys.(i) ~ts:(i + 1) entries.(i)) in
  let get =
    timed n (fun i ->
        ignore (Sys.opaque_identity (Memtable.get m ~user_key:keys.(i) ~snap_ts:n)))
  in
  let install =
    timed n (fun i ->
        let _, loc = Memtable.locate_rmw m ~user_key:keys.(i) in
        ignore
          (Sys.opaque_identity
             (Memtable.try_install m loc ~user_key:keys.(i) ~ts:(n + i + 1) entries.(i))))
  in
  pair "memtable.add" add @ pair "memtable.get" get @ pair "memtable.rmw_install" install

(* Async appends from one domain; group-committed appends from two, whose
   latency is the host's fsync, so those two numbers are diagnostic. *)
let wal ~dir ~records =
  let n = Array.length records in
  let w = Wal_writer.create ~mode:Wal_writer.Async (Filename.concat dir "replay-async.log") in
  let async = timed n (fun i -> Wal_writer.append w records.(i)) in
  Wal_writer.close w;
  let commits = Atomic.make 0 and acked = Atomic.make 0 in
  let observer =
    {
      Wal_writer.on_group_commit =
        (fun ~records ->
          Atomic.incr commits;
          ignore (Atomic.fetch_and_add acked records));
      on_commit_wait = (fun ~ns:_ -> ());
    }
  in
  let { Clsm_core.Options.max_batch; max_delay_us } = Clsm_core.Options.default_group_commit in
  let g =
    Wal_writer.create ~observer
      ~mode:(Wal_writer.Group { max_batch; max_delay_us })
      (Filename.concat dir "replay-group.log")
  in
  let per_domain = min n 400 and deadline = now () + 1_000_000_000 in
  let writer d () =
    let lat = Array.make per_domain 0 and k = ref 0 in
    while !k < per_domain && now () < deadline do
      let t0 = now () in
      Wal_writer.append g records.(((2 * !k) + d) mod n);
      lat.(!k) <- now () - t0;
      incr k
    done;
    Array.sub lat 0 !k
  in
  let other = Domain.spawn (writer 1) in
  let mine = writer 0 () in
  let lat = Array.append mine (Domain.join other) in
  Wal_writer.close g;
  Array.sort compare lat;
  [
    ("wal.append_async.ns_p50", fst async);
    ("wal.append_async.words", snd async);
    ("wal.append_group.us_p50", float_of_int (Samples.percentile lat 0.5) /. 1e3);
    ( "wal.group.mean_batch",
      float_of_int (Atomic.get acked) /. float_of_int (max 1 (Atomic.get commits)) );
  ]

(* The tables the workload's store left in [dir] (store closed): every
   (table, key) probe a get would make after its bloom check, timed on a
   warmed cache of the workload's size. [absent] keys are outside the key
   space, so every bloom hit on them is a false positive. *)
let sstable ~dir ~cache_bytes ~bits_per_key ~space_keys ~keys ~absent =
  let cache = Cache.create ~capacity:cache_bytes ~weight:Clsm_sstable.Block.size_bytes () in
  let tables =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sst")
    |> List.sort compare
    |> List.map (fun f ->
           Table.open_file ~cache ~cmp:Internal_key.comparator (Filename.concat dir f))
  in
  let probes =
    Array.to_list keys
    |> List.concat_map (fun k ->
           List.filter_map
             (fun t -> if Table.may_contain t k then Some (t, Internal_key.make k 0) else None)
             tables)
    |> Array.of_list
  in
  let find i =
    let t, probe = probes.(i) in
    ignore (Sys.opaque_identity (Table.find_first_ge t probe))
  in
  for i = 0 to Array.length probes - 1 do
    find i
  done;
  let find_first_ge = timed (Array.length probes) find in
  List.iter Table.close tables;
  let bloom = Bloom.create ~bits_per_key (Array.to_list space_keys) in
  let mem, _ =
    timed (Array.length keys) (fun i -> ignore (Sys.opaque_identity (Bloom.mem bloom keys.(i))))
  in
  let false_pos = Array.fold_left (fun a k -> if Bloom.mem bloom k then a + 1 else a) 0 absent in
  let blocks = Cache.create ~capacity:max_int ~weight:(fun _ -> 1) () in
  Array.iter (fun k -> Cache.insert blocks k ()) keys;
  let hit, _ =
    timed (Array.length keys) (fun i ->
        ignore (Sys.opaque_identity (Cache.find blocks keys.(i))))
  in
  pair "sstable.table.find_first_ge" find_first_ge
  @ [
      ("sstable.bloom.mem.ns_p50", mem);
      ( "sstable.bloom.false_positive_ratio",
        float_of_int false_pos /. float_of_int (max 1 (Array.length absent)) );
      ("sstable.cache.find_hit.ns_p50", hit);
    ]

(* One merge step over [sources] overlapping sorted runs of the stream, as
   a scan merges the memtable and the levels. *)
let merge_iter ~keys ~values ~sources =
  let n = Array.length keys in
  let runs =
    List.init sources (fun s ->
        let run =
          Array.of_list
            (List.filter_map
               (fun i ->
                 if i mod sources = s then
                   Some (Internal_key.make keys.(i) (i + 1), Entry.encode (Entry.Value values.(i)))
                 else None)
               (List.init n Fun.id))
        in
        Array.sort (fun (a, _) (b, _) -> Internal_key.compare_encoded a b) run;
        Iter.of_array run)
  in
  let it = Merge_iter.merge ~cmp:Internal_key.compare_encoded runs in
  it.Iter.seek_to_first ();
  pair "lsm.merge_iter.next" (timed n (fun _ -> if it.Iter.valid () then it.Iter.next ()))

(* An L0->L1 merge of four overlapping L0 tables, each a memtable's worth
   of the stream, run sequentially. *)
let compaction ~dir ~cfg ~keys ~values =
  let n = Array.length keys and ways = 4 in
  let counter = Atomic.make 1 in
  let alloc_number () = Atomic.fetch_and_add counter 1 in
  let inputs =
    List.concat
      (List.init ways (fun w ->
           let m = Memtable.create () in
           Array.iteri
             (fun i k -> if i mod ways = w then Memtable.add m ~user_key:k ~ts:(i + 1) (Entry.Value values.(i)))
             keys;
           Compaction.write_sorted_run ~cfg ~dir ~alloc_number ~snapshots:[]
             ~drop_tombstones:false (Memtable.iter m)))
  in
  let bytes = List.fold_left (fun a f -> a + (Refcounted.value f).Table_file.size) 0 inputs in
  let task =
    {
      Compaction.src_level = 0;
      inputs_lo = inputs;
      inputs_hi = [];
      target_level = 1;
      drop_tombstones = true;
    }
  in
  let w0 = Gc.minor_words () and t0 = now () in
  let outputs, _ =
    Compaction.run_parallel ~cfg ~dir ~alloc_number ~snapshots:[] ~max_subcompactions:1 task
  in
  let dt = now () - t0 and words = Gc.minor_words () -. w0 in
  List.iter
    (fun f ->
      Table_file.mark_obsolete (Refcounted.value f);
      Refcounted.retire f)
    (inputs @ outputs);
  [
    ("lsm.compaction.run.mb_s", float_of_int bytes /. 1048576.0 /. (float_of_int dt /. 1e9));
    ("lsm.compaction.run.words_per_entry", words /. float_of_int (max 1 n));
  ]

(* Every replay, on [n] keys of the workload's seeded stream with values
   like the clients write; [dir] is the closed store's directory. *)
let replay (w : Workloads.t) ~seed ~dir =
  let spec = w.spec in
  let value_len = spec.Clsm_workload.Workload_spec.value_len in
  let n = min 50_000 ((16 lsl 20) / value_len) in
  let rng = Clsm_workload.Rng.create (seed lxor 0x1a7e5) in
  let keys =
    Array.init n (fun _ ->
        Workloads.key w
          (Clsm_workload.Key_dist.next_index spec.Clsm_workload.Workload_spec.keys rng))
  in
  let values =
    Array.mapi (fun j k -> Oracle.encode ~value_len ~key:k ~client:0 ~seq:j ~counter:0) keys
  in
  let records =
    Array.mapi
      (fun j k ->
        Clsm_core.Log_record.(encode { ts = j + 1; user_key = k; entry = Entry.Value values.(j) }))
      keys
  in
  let opts = w.options ~dir in
  let scratch = Filename.concat dir "replay" in
  Unix.mkdir scratch 0o755;
  memtable ~keys ~values
  @ wal ~dir:scratch ~records
  @ sstable ~dir ~cache_bytes:opts.cache_bytes ~bits_per_key:opts.lsm.Lsm_config.bits_per_key
      ~space_keys:(Array.init w.space (Workloads.key w))
      ~keys
      ~absent:(Array.init n (fun j -> Workloads.key w (w.space + j)))
  @ merge_iter ~keys ~values ~sources:4
  @ compaction ~dir:scratch ~cfg:opts.lsm ~keys ~values
