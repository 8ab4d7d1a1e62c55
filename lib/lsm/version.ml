open Clsm_primitives

type file = Table_file.t Refcounted.t

type t = { l0 : file list; levels : file list array }

let empty ~num_levels =
  if num_levels < 2 then invalid_arg "Version.empty";
  { l0 = []; levels = Array.make (num_levels - 1) [] }

let addref file =
  (* Files listed in a live version always have a positive count: the
     caller holds a reference while constructing the new version. *)
  let ok = Refcounted.try_incr file in
  assert ok

let create ~l0 ~levels =
  List.iter addref l0;
  Array.iter (List.iter addref) levels;
  { l0; levels = Array.copy levels }

let release t =
  List.iter Refcounted.decr t.l0;
  Array.iter (List.iter Refcounted.decr) t.levels

let with_new_l0 t file = create ~l0:(file :: t.l0) ~levels:t.levels

let num_files t =
  List.length t.l0 + Array.fold_left (fun a l -> a + List.length l) 0 t.levels

let level_file_count t level =
  if level = 0 then List.length t.l0 else List.length t.levels.(level - 1)

let file_bytes files =
  List.fold_left (fun a f -> a + (Refcounted.value f).Table_file.size) 0 files

let level_bytes t level =
  if level = 0 then file_bytes t.l0 else file_bytes t.levels.(level - 1)

let total_bytes t =
  file_bytes t.l0 + Array.fold_left (fun a l -> a + file_bytes l) 0 t.levels

let user_range_contains tf user_key =
  let open Table_file in
  tf.smallest <> ""
  && Internal_key.compare_user_key tf.smallest user_key <= 0
  && Internal_key.compare_user_key tf.largest user_key >= 0

let version_of_binding ik data ~pos ~len = (ik, Entry.decode_sub data ~pos ~len)

(* Newest entry for [user_key] with ts <= probe's ts inside one file.
   Raises {!Table_file.Corruption} on a checksum/decode failure. *)
let search_file file ~user_key ~probe =
  let tf = Refcounted.value file in
  if not (user_range_contains tf user_key) then None
  else if not (Clsm_sstable.Table.may_contain tf.Table_file.table user_key)
  then None
  else
    match
      Table_file.with_table tf (fun table ->
          Clsm_sstable.Table.find_last_le_with table probe version_of_binding)
    with
    | Some (ik, entry) when Internal_key.compare_user_key ik user_key = 0 ->
        Some (Internal_key.ts_of ik, entry)
    | Some _ | None -> None

let get ?on_corrupt t ~user_key ~snap_ts =
  (* With [on_corrupt], a file that fails its checksum is reported and
     then treated as a miss: the remaining overlapping data still
     answers, possibly with an older committed version — that is the
     containment contract, surfaced as [`Partial] health by the store.
     Without it, the typed {!Table_file.Corruption} propagates. *)
  let search_file file ~user_key ~probe =
    match on_corrupt with
    | None -> search_file file ~user_key ~probe
    | Some report -> (
        try search_file file ~user_key ~probe
        with Table_file.Corruption { detail; _ } ->
          report (Refcounted.value file) detail;
          None)
  in
  let probe = Internal_key.make user_key snap_ts in
  (* L0 files may overlap, so every file is consulted and the newest
     matching version wins. *)
  let best =
    List.fold_left
      (fun acc file ->
        match (search_file file ~user_key ~probe, acc) with
        | (Some (ts, _) as hit), Some (best_ts, _) when ts > best_ts -> hit
        | Some _, Some _ -> acc
        | hit, None -> hit
        | None, acc -> acc)
      None t.l0
  in
  match best with
  | Some _ as hit -> hit
  | None ->
      (* Deeper levels are disjoint, but versions of one user key can
         straddle two adjacent files; the later file holds the newer
         versions, so a level's files are searched last-first (each
         skipped unless its range holds the key) without building a
         candidate list. *)
      let rec newest_first = function
        | [] -> None
        | f :: rest -> (
            match newest_first rest with
            | Some _ as hit -> hit
            | None -> search_file f ~user_key ~probe)
      in
      let rec search_levels i =
        if i >= Array.length t.levels then None
        else
          match newest_first t.levels.(i) with
          | Some _ as hit -> hit
          | None -> search_levels (i + 1)
      in
      search_levels 0

(* Table iterator that translates the sstable layer's stringly Corrupt
   into the typed {!Table_file.Corruption}. Scans do NOT transparently
   skip a rotten file — silently dropping a key range is a wrong answer;
   the caller gets the typed signal and the store quarantines. *)
let iter_of_file file =
  let tf = Refcounted.value file in
  let it = Iter.of_table tf.Table_file.table in
  let guard f x =
    try f x
    with Clsm_sstable.Table.Corrupt m -> raise (Table_file.typed_corruption tf m)
  in
  {
    Iter.seek_to_first = guard it.Iter.seek_to_first;
    seek = guard it.Iter.seek;
    valid = guard it.Iter.valid;
    key = guard it.Iter.key;
    value = guard it.Iter.value;
    next = guard it.Iter.next;
  }

let iters t =
  let l0_iters = List.map iter_of_file t.l0 in
  let level_iters =
    Array.to_list t.levels
    |> List.filter_map (fun files ->
           match files with
           | [] -> None
           | _ -> Some (Iter.concat (List.map iter_of_file files)))
  in
  l0_iters @ level_iters

let find_file t number =
  let in_list l =
    List.find_opt (fun f -> (Refcounted.value f).Table_file.number = number) l
  in
  match in_list t.l0 with
  | Some _ as hit -> hit
  | None ->
      Array.fold_left
        (fun acc l -> match acc with Some _ -> acc | None -> in_list l)
        None t.levels

let remove_files t numbers =
  let keep f = not (List.mem (Refcounted.value f).Table_file.number numbers) in
  create ~l0:(List.filter keep t.l0) ~levels:(Array.map (List.filter keep) t.levels)

let overlapping files ~smallest ~largest =
  let cmp = Internal_key.compare_encoded in
  List.filter
    (fun f ->
      let tf = Refcounted.value f in
      tf.Table_file.smallest <> ""
      && not
           (cmp tf.Table_file.largest smallest < 0
           || cmp tf.Table_file.smallest largest > 0))
    files

let files_range files =
  let cmp = Internal_key.compare_encoded in
  List.fold_left
    (fun acc f ->
      let tf = Refcounted.value f in
      if tf.Table_file.smallest = "" then acc
      else
        match acc with
        | None -> Some (tf.Table_file.smallest, tf.Table_file.largest)
        | Some (lo, hi) ->
            let lo =
              if cmp tf.Table_file.smallest lo < 0 then tf.Table_file.smallest
              else lo
            in
            let hi =
              if cmp tf.Table_file.largest hi > 0 then tf.Table_file.largest
              else hi
            in
            Some (lo, hi))
    None files

(* Multicopy recency ("newest copy wins", Patel et al.): a search stops
   at the shallowest component holding the key, so every version of a
   key in a shallower component must be newer than every version of it
   deeper down. L0 is one component (a search consults all its files).
   Reports the first offending key per pair of components, with a count. *)
let check_recency components =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* user key -> (oldest ts in the components above, its level) *)
  let above = Hashtbl.create 1024 in
  let violations = Hashtbl.create 8 in
  List.iter
    (fun (level, files) ->
      let here = Hashtbl.create 1024 in
      List.iter
        (fun f ->
          try
            Iter.fold
              (fun ik _ () ->
                let uk = Internal_key.user_key_of ik
                and ts = Internal_key.ts_of ik in
                match Hashtbl.find_opt here uk with
                | Some (lo, hi) -> Hashtbl.replace here uk (min lo ts, max hi ts)
                | None -> Hashtbl.replace here uk (ts, ts))
              (iter_of_file f) ()
          with Table_file.Corruption { number; detail; _ } ->
            problem "level %d file %06d: %s" level number detail)
        files;
      Hashtbl.iter
        (fun uk (lo, hi) ->
          match Hashtbl.find_opt above uk with
          | Some (oldest, upper) ->
              if hi >= oldest then begin
                let pair = (upper, level) in
                match Hashtbl.find_opt violations pair with
                | Some (example, n) ->
                    Hashtbl.replace violations pair (example, n + 1)
                | None ->
                    Hashtbl.replace violations pair
                      ((uk, hi, oldest), 1)
              end;
              if lo < oldest then Hashtbl.replace above uk (lo, level)
          | None -> Hashtbl.replace above uk (lo, level))
        here)
    components;
  Hashtbl.iter
    (fun (upper, level) ((uk, hi, oldest), n) ->
      problem
        "key %S (%d key(s) in all): ts %d at level %d is not older than ts \
         %d at level %d"
        uk n hi level oldest upper)
    violations;
  List.rev !problems

let validate t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let check_file level f =
    let tf = Refcounted.value f in
    match Clsm_sstable.Table.verify tf.Table_file.table with
    | Ok _ -> true
    | Error msg ->
        problem "level %d file %06d: %s" level tf.Table_file.number msg;
        false
  in
  let l0 = List.filter (check_file 0) t.l0 in
  let levels =
    Array.to_list
      (Array.mapi
         (fun i files ->
           let level = i + 1 in
           let sound = List.filter (check_file level) files in
           (* sorted and disjoint *)
           let rec pairs = function
             | a :: (b :: _ as rest) ->
                 let ta = Refcounted.value a and tb = Refcounted.value b in
                 if
                   Internal_key.compare_encoded ta.Table_file.largest
                     tb.Table_file.smallest >= 0
                 then
                   problem "level %d files %06d and %06d overlap" level
                     ta.Table_file.number tb.Table_file.number;
                 pairs rest
             | [ _ ] | [] -> ()
           in
           pairs files;
           (level, sound))
         t.levels)
  in
  List.rev_append !problems (check_recency ((0, l0) :: levels))
