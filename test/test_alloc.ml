(* Allocation budgets for the read path, in minor-heap words per call.

   [Gc.minor_words] counts the calling domain's allocation only, so with
   everything below running on one domain the numbers are deterministic:
   a budget that fails here is an allocation regression, not noise. Each
   measurement warms up first (key buffers grow, cache loads happen),
   then averages over [calls] repetitions. *)

open Clsm_sstable
open Clsm_lsm
open Clsm_primitives

let calls = 2_000

let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* Words a string of [len] bytes occupies on the heap, header included. *)
let string_words len = 1 + ((len + 8) / 8)

let check_budget what ~budget f =
  let words = words_per_call f in
  if words > budget then
    Alcotest.failf "%s: %.1f words/call, budget %.1f" what words budget

(* "0 words": below one word per call, so a per-call allocation of any
   size fails while the measurement's own boxed float does not. *)
let zero = 0.5

let tmp_dir =
  let d = Filename.concat (Filename.get_temp_dir_name ()) "clsm_test_alloc" in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let user_key i = Printf.sprintf "user/%06d/%s" i (String.make 24 'k')

let comparisons () =
  let a = Internal_key.make (user_key 7) 41 and b = Internal_key.make (user_key 7) 42 in
  let c = Internal_key.make (user_key 8) 1 in
  check_budget "compare_encoded, same user key" ~budget:zero (fun () ->
      ignore (Sys.opaque_identity (Internal_key.compare_encoded a b)));
  check_budget "compare_encoded, different user keys" ~budget:zero (fun () ->
      ignore (Sys.opaque_identity (Internal_key.compare_encoded a c)));
  let framed = "xx" ^ a ^ "yy" and len = String.length a in
  check_budget "Internal_key.comparator.compare_sub" ~budget:zero (fun () ->
      ignore
        (Sys.opaque_identity
           (Internal_key.comparator.Comparator.compare_sub framed ~pos:2 ~len b)));
  check_budget "Comparator.bytewise.compare_sub" ~budget:zero (fun () ->
      ignore
        (Sys.opaque_identity
           (Comparator.bytewise.Comparator.compare_sub framed ~pos:2 ~len b)));
  let k = user_key 7 in
  check_budget "Internal_key.compare_user_key" ~budget:zero (fun () ->
      ignore (Sys.opaque_identity (Internal_key.compare_user_key a k)))

let bloom () =
  let keys = List.init 1000 user_key in
  let filter = Bloom.create keys in
  let present = user_key 500 and absent = "absent-key" in
  check_budget "Bloom.mem, present" ~budget:zero (fun () ->
      ignore (Sys.opaque_identity (Bloom.mem filter present)));
  check_budget "Bloom.mem, absent" ~budget:zero (fun () ->
      ignore (Sys.opaque_identity (Bloom.mem filter absent)))

let varint () =
  let buf = Buffer.create 16 in
  Clsm_util.Varint.write buf 300_000_000;
  let s = Buffer.contents buf and cursor = ref 0 in
  check_budget "Varint.read_at" ~budget:zero (fun () ->
      cursor := 0;
      ignore
        (Sys.opaque_identity
           (Clsm_util.Varint.read_at s ~limit:(String.length s) cursor)))

let memtable_get () =
  let m = Clsm_core.Memtable.create () in
  for i = 0 to 999 do
    for ts = 1 to 3 do
      Clsm_core.Memtable.add m ~user_key:(user_key i) ~ts:((i * 3) + ts)
        (Entry.Value (String.make 100 'v'))
    done
  done;
  let k = user_key 500 in
  check_budget "Memtable.get hit" ~budget:40. (fun () ->
      ignore (Sys.opaque_identity (Clsm_core.Memtable.get m ~user_key:k ~snap_ts:max_int)))

let block_seeks () =
  (* Internal keys longer than the iterator's initial key buffer, several
     versions per user key, restart points every 4 entries. *)
  let b = Block_builder.create ~restart_interval:4 () in
  for i = 0 to 99 do
    for ts = 1 to 3 do
      Block_builder.add b ~key:(Internal_key.make (user_key i) ts) ~value:"value"
    done
  done;
  let block = Block.parse Internal_key.comparator (Block_builder.finish b) in
  let it = Block.Iter.make block in
  let probe = Internal_key.make (user_key 61) 2 in
  let miss = Internal_key.make (user_key 61 ^ "!") 0 in
  check_budget "Block.Iter.seek" ~budget:zero (fun () -> Block.Iter.seek it probe);
  check_budget "Block.Iter.seek_le, exact" ~budget:zero (fun () ->
      Block.Iter.seek_le it probe);
  check_budget "Block.Iter.seek_le, between keys" ~budget:zero (fun () ->
      Block.Iter.seek_le it miss);
  check_budget "Block.Iter.seek_last" ~budget:zero (fun () -> Block.Iter.seek_last it)

let table_find_last_le () =
  let path = Filename.concat tmp_dir "find_last_le.sst" in
  let b =
    Table_builder.create ~block_size:4096 ~cmp:Internal_key.comparator ~path ()
  in
  let value = String.make 200 'v' in
  for i = 0 to 999 do
    Table_builder.add b ~key:(Internal_key.make (user_key i) 1) ~value
  done;
  ignore (Table_builder.finish b);
  let cache = Cache.create ~capacity:(1 lsl 24) ~weight:Block.size_bytes () in
  let t = Table.open_file ~cache ~cmp:Internal_key.comparator path in
  let probe = Internal_key.make (user_key 700) max_int in
  let key_len = String.length probe in
  let budget =
    float_of_int (string_words key_len + string_words (String.length value) + 80)
  in
  check_budget "Table.find_last_le, cached block" ~budget (fun () ->
      ignore (Sys.opaque_identity (Table.find_last_le t probe)));
  Table.close t

let next_number = ref 0

let make_file ~cache keys =
  incr next_number;
  let number = !next_number in
  let b =
    Table_builder.create ~block_size:1024 ~filter_key_of:Internal_key.user_key_of
      ~cmp:Internal_key.comparator
      ~path:(Table_file.table_path ~dir:tmp_dir number)
      ()
  in
  List.iter
    (fun k ->
      Table_builder.add b ~key:(Internal_key.make k 1)
        ~value:(Entry.encode (Entry.Value "value")))
    keys;
  ignore (Table_builder.finish b);
  Refcounted.create ~release:Table_file.release
    (Table_file.open_number ~cache ~dir:tmp_dir number)

(* One level of [files] disjoint files of 20 keys each; a get for a key in
   the middle file. Per-get words must not depend on the file count. *)
let version_get_words files =
  let cache = Cache.create ~capacity:(1 lsl 24) ~weight:Block.size_bytes () in
  let l1 =
    List.init files (fun f -> make_file ~cache (List.init 20 (fun i -> user_key ((f * 20) + i))))
  in
  let levels = Array.make 2 [] in
  levels.(0) <- l1;
  let v = Version.create ~l0:[] ~levels in
  let k = user_key ((files / 2 * 20) + 7) in
  (match Version.get v ~user_key:k ~snap_ts:max_int with
  | Some (1, Entry.Value "value") -> ()
  | _ -> Alcotest.failf "%d files: the get missed" files);
  let words =
    words_per_call (fun () ->
        ignore (Sys.opaque_identity (Version.get v ~user_key:k ~snap_ts:max_int)))
  in
  Version.release v;
  List.iter Refcounted.retire l1;
  words

let version_get_flat () =
  let few = version_get_words 3 and many = version_get_words 30 in
  if many > few +. zero then
    Alcotest.failf "Version.get: %.1f words/get with 30 L1 files, %.1f with 3" many
      few

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "key comparison: 0 words" `Quick comparisons;
        Alcotest.test_case "Bloom.mem: 0 words" `Quick bloom;
        Alcotest.test_case "Varint.read_at: 0 words" `Quick varint;
        Alcotest.test_case "Memtable.get hit <= 40 words" `Quick memtable_get;
        Alcotest.test_case "block seeks: 0 words" `Quick block_seeks;
        Alcotest.test_case "Table.find_last_le: key + value + 80" `Quick
          table_find_last_le;
        Alcotest.test_case "Version.get flat in level width" `Quick version_get_flat;
      ] );
  ]
