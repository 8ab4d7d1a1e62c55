open Clsm_core

type t = { db : Db.t; mutex : Mutex.t (* the LevelDB global mutex *) }
type snapshot = Db.snapshot

let with_mutex t f = Mutex.protect t.mutex f

(* LevelDB's read path grabs the component pointers under the global
   mutex and searches without it. [Db] pins its components itself, so
   the baseline only pays the mutex round trip. *)
let pin t = with_mutex t ignore

let open_store opts = { db = Db.open_store opts; mutex = Mutex.create () }
let close t = Db.close t.db
let put t ~key ~value = with_mutex t (fun () -> Db.put t.db ~key ~value)
let delete t ~key = with_mutex t (fun () -> Db.delete t.db ~key)

let get t key =
  pin t;
  Db.get t.db key

let put_if_absent t ~key ~value =
  with_mutex t (fun () ->
      match Db.get t.db key with
      | Some _ -> false
      | None ->
          Db.put t.db ~key ~value;
          true)

let get_snap t = with_mutex t (fun () -> Db.get_snap t.db)
let snapshot_ts = Db.snapshot_ts
let release_snapshot t s = Db.release_snapshot t.db s

let get_at t s key =
  pin t;
  Db.get_at t.db s key

let range ?snapshot ?start ?stop ?limit t =
  pin t;
  Db.range ?snapshot ?start ?stop ?limit t.db

let compact_now t = Db.compact_now t.db
let stats t = Db.stats t.db
let level_file_counts t = Db.level_file_counts t.db
