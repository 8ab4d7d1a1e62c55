(* The benchmark's workloads: an operation mix, a key space and the store
   options it runs under. Every workload keeps the store's default WAL
   policy ([`Async], paper §2.3) and its default maintenance scheduler. *)

module Spec = Clsm_workload.Workload_spec
module Key_dist = Clsm_workload.Key_dist
module Options = Clsm_core.Options

type t = {
  name : string;
  spec : Spec.t;
  space : int;  (** keys, all preloaded during set-up *)
  options : dir:string -> Options.t;
}

let mb n = n lsl 20

(* §5.2 production mix: heavy-tail keys, 40 B keys, 1 KB values, 90 %
   gets. About 62 MB of data against a 16 MB block cache, so gets go
   through the sstable cache, bloom filters and block reads; a 4 MB
   memtable keeps flush and compaction cycling. *)
let production =
  let space = 60_000 in
  {
    name = "production";
    spec = Spec.production ~read_ratio:0.9 ~space;
    space;
    options =
      (fun ~dir ->
        { (Options.default ~dir) with memtable_bytes = mb 4; cache_bytes = mb 16 });
  }

(* Uniform overwrites of a preloaded key space with small memtables and
   levels: skiplist insert, WAL append, rotation, flush, compaction and
   backpressure do nearly all the work. *)
let overwrite =
  let space = 200_000 in
  {
    name = "overwrite";
    spec = Spec.write_only ~space;
    space;
    options =
      (fun ~dir ->
        let d = Options.default ~dir in
        {
          d with
          memtable_bytes = mb 1;
          lsm =
            {
              d.lsm with
              Clsm_lsm.Lsm_config.level1_max_bytes = mb 4;
              target_file_size = mb 1;
            };
        });
  }

(* The paper's Fig. 7b/9 operations over a cache-resident Zipf key space
   (about 28 MB against the default 64 MB cache): half snapshot scans of
   10-20 keys, half RMW counter increments. Snapshots, merge iterators and
   the RMW conflict path do the work; nothing flushes. *)
let scan_rmw =
  let space = 100_000 in
  {
    name = "scan_rmw";
    spec =
      Spec.make ~name:"scan-rmw" ~read:0.0 ~scan:0.5 ~rmw:0.5 (Key_dist.zipf space);
    space;
    options = (fun ~dir -> Options.default ~dir);
  }

let all = [ production; overwrite; scan_rmw ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
let key t i = Key_dist.key_of_index ~key_len:t.spec.Spec.key_len i

let key_index t k =
  match int_of_string_opt k with
  | Some i when i >= 0 && i < t.space && String.equal (key t i) k -> Some i
  | _ -> None

let preload_value t i =
  Oracle.encode ~value_len:t.spec.Spec.value_len ~key:(key t i)
    ~client:Oracle.preload ~seq:0 ~counter:0
