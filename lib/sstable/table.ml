open Clsm_util
module Env = Clsm_env.Env

exception Corrupt of string

let next_table_id = Atomic.make 0

type t = {
  id : int;
  key_prefix : string;  (* "<id>:", the cache-key namespace of this table *)
  path : string;
  file : Env.random_file;
  cmp : Comparator.t;
  cache : Block.t Cache.t option;
  footer : Table_format.footer;
  index : Block.t;
  filter : Bloom.t;
  props : Table_format.properties;
  (* Accounting handles: the index block is pinned into the cache (direct
     reference, charged to the budget, never evicted) and the filter +
     properties weight is reserved, so the per-open-table RAM the reader
     keeps hot is visible in [Cache.stats]. *)
  index_pin : Block.t Cache.handle option;
  aux_reservation : string option;
}

let corrupt_block ~offset what =
  raise (Corrupt (Printf.sprintf "block@%d: %s" offset what))

(* Verify one block image ([payload ^ trailer] as laid out on disk) in
   place and return its payload length. The CRC covers the payload and the
   type byte, which sit together at the head of the image. Corrupt
   messages carry the block's byte offset so containment/quarantine can
   report exactly which block rotted. *)
let check_block_image ~offset raw =
  let size = String.length raw - Table_format.block_trailer_length in
  if size < 0 then corrupt_block ~offset "handle out of bounds";
  let stored = Crc32c.unmask (Binary.get_fixed32 raw ~pos:(size + 1)) in
  if stored <> Crc32c.sub raw ~pos:0 ~len:(size + 1) then
    corrupt_block ~offset "checksum mismatch";
  (match raw.[size] with
  | '\000' | '\001' -> ()
  | _ -> corrupt_block ~offset "unknown block type");
  size

let decompress ~offset raw size =
  try Simple_compress.decompress (String.sub raw 0 size)
  with Invalid_argument m -> corrupt_block ~offset m

(* The verified payload as a string of its own (filter and properties
   blocks, decoded once at open). *)
let decode_block_image ~offset raw =
  let size = check_block_image ~offset raw in
  if raw.[size] = '\000' then String.sub raw 0 size
  else decompress ~offset raw size

(* The verified payload parsed as a block. An uncompressed block is parsed
   in place over the image: one copy out of the file in all. *)
let parse_block_image cmp ~offset raw =
  let size = check_block_image ~offset raw in
  try
    if raw.[size] = '\000' then Block.parse ~len:size cmp raw
    else Block.parse cmp (decompress ~offset raw size)
  with Block.Corrupt m -> raise (Corrupt m)

let read_block_image (file : Env.random_file) handle =
  let { Block_handle.offset; size } = handle in
  try
    file.Env.rf_read ~pos:offset ~len:(size + Table_format.block_trailer_length)
  with Invalid_argument _ -> corrupt_block ~offset "handle out of bounds"

(* Read a block payload at [handle], verifying the CRC trailer. *)
let read_block_raw file handle =
  decode_block_image ~offset:handle.Block_handle.offset
    (read_block_image file handle)

let read_block file cmp handle =
  parse_block_image cmp ~offset:handle.Block_handle.offset
    (read_block_image file handle)

let open_file ?cache ?(env = Env.unix) ~cmp path =
  let file = env.Env.open_random path in
  let len = file.Env.rf_length in
  if len < Table_format.footer_length then raise (Corrupt "file too short");
  let footer_str =
    file.Env.rf_read
      ~pos:(len - Table_format.footer_length)
      ~len:Table_format.footer_length
  in
  let footer =
    try Table_format.decode_footer footer_str
    with Failure m -> raise (Corrupt m)
  in
  let index = read_block file cmp footer.Table_format.index_handle in
  let filter =
    try Bloom.decode (read_block_raw file footer.Table_format.filter_handle)
    with Invalid_argument m -> raise (Corrupt m)
  in
  let props =
    try
      Table_format.decode_properties
        (read_block_raw file footer.Table_format.props_handle)
    with Varint.Corrupt m | Invalid_argument m -> raise (Corrupt m)
  in
  let id = Atomic.fetch_and_add next_table_id 1 in
  let index_pin, aux_reservation =
    match cache with
    | None -> (None, None)
    | Some cache ->
        let pin_key = Printf.sprintf "%d:index" id in
        let aux_key = Printf.sprintf "%d:aux" id in
        let aux_weight =
          footer.Table_format.filter_handle.Block_handle.size
          + footer.Table_format.props_handle.Block_handle.size
          + Table_format.footer_length
        in
        let pin = Cache.pin cache pin_key index in
        Cache.reserve cache aux_key aux_weight;
        (Some pin, Some aux_key)
  in
  {
    id;
    key_prefix = string_of_int id ^ ":";
    path;
    file;
    cmp;
    cache;
    footer;
    index;
    filter;
    props;
    index_pin;
    aux_reservation;
  }

let close t =
  (match (t.cache, t.index_pin) with
  | Some cache, Some pin -> Cache.unpin cache pin
  | _ -> ());
  (match (t.cache, t.aux_reservation) with
  | Some cache, Some key -> Cache.unreserve cache key
  | _ -> ());
  (* Retire this table's data blocks so they stop competing with live
     tables for cache space (handles held by in-flight reads keep their
     blocks alive). *)
  (match t.cache with
  | Some cache -> Cache.remove_matching cache ~prefix:t.key_prefix
  | None -> ());
  t.file.Env.rf_close ()
let path t = t.path
let properties t = t.props
let file_size t = t.file.Env.rf_length
let may_contain t filter_key = Bloom.mem t.filter filter_key

let load_block t handle =
  let decode () = read_block t.file t.cmp handle in
  match t.cache with
  | None -> decode ()
  | Some cache ->
      let key = t.key_prefix ^ string_of_int handle.Block_handle.offset in
      Cache.find_or_add cache key decode

(* A block that passed its checksum can still hold a malformed entry or
   index value. Lookups and iteration report that as the table's
   corruption, which callers know how to contain (quarantine). *)
let handle_at data ~pos ~len =
  try Block_handle.decode_sub data ~pos ~len
  with Varint.Corrupt m -> raise (Corrupt ("index block: " ^ m))

let index_handle index_it = Block.Iter.with_value index_it handle_at

module Iter = struct
  type iter = {
    table : t;
    index_iter : Block.Iter.iter;
    mutable data_iter : Block.Iter.iter option;
    mutable seq_blocks : int;
        (* consecutive sequential (index [next]) block advances; reset by
           any seek, so point reads never trigger readahead *)
    mutable ra_until : int;
        (* file offset already covered by a readahead batch; nothing below
           this needs another batch *)
  }

  let make table =
    {
      table;
      index_iter = Block.Iter.make table.index;
      data_iter = None;
      seq_blocks = 0;
      ra_until = 0;
    }

  let block_end h =
    h.Block_handle.offset + h.Block_handle.size
    + Table_format.block_trailer_length

  (* Fetch up to [k] physically contiguous data blocks starting at the
     iterator's current index position in one pread, decode each and warm
     the cache. Any failure (short read, rot in one of the prefetched
     blocks) is swallowed: the scan falls back to on-demand single-block
     reads, which carry their own verification and error paths. *)
  let readahead_batch it cache k cur =
    let t = it.table in
    let probe = Block.Iter.make t.index in
    Block.Iter.seek probe (Block.Iter.key it.index_iter);
    let run = ref [ cur ] in
    let run_end = ref (block_end cur) in
    let n = ref 1 in
    Block.Iter.next probe;
    let continue = ref true in
    while !continue && !n < k && Block.Iter.valid probe do
      let h = index_handle probe in
      if h.Block_handle.offset = !run_end then begin
        run := h :: !run;
        run_end := block_end h;
        incr n;
        Block.Iter.next probe
      end
      else continue := false
    done;
    let handles = List.rev !run in
    it.ra_until <- !run_end;
    let key_of h = t.key_prefix ^ string_of_int h.Block_handle.offset in
    let missing =
      List.filter (fun h -> not (Cache.mem cache (key_of h))) handles
    in
    if List.length handles > 1 && missing <> [] then begin
      let base = cur.Block_handle.offset in
      let span = t.file.Env.rf_read ~pos:base ~len:(!run_end - base) in
      List.iter
        (fun h ->
          let image =
            String.sub span
              (h.Block_handle.offset - base)
              (h.Block_handle.size + Table_format.block_trailer_length)
          in
          Cache.insert cache (key_of h)
            (parse_block_image t.cmp ~offset:h.Block_handle.offset image))
        missing;
      Cache.note_readahead cache ~blocks:(List.length missing)
    end

  let maybe_readahead it =
    match it.table.cache with
    | None -> ()
    | Some cache ->
        let k = Cache.readahead_blocks cache in
        if k > 0 && it.seq_blocks >= 1 && Block.Iter.valid it.index_iter
        then begin
          let cur = index_handle it.index_iter in
          if cur.Block_handle.offset >= it.ra_until then
            try readahead_batch it cache k cur with _ -> ()
        end

  let load_data_block it =
    if Block.Iter.valid it.index_iter then begin
      let handle = index_handle it.index_iter in
      it.data_iter <- Some (Block.Iter.make (load_block it.table handle))
    end
    else it.data_iter <- None

  (* Advance to the first valid entry at or after the current position,
     skipping exhausted data blocks. *)
  let rec skip_exhausted it =
    match it.data_iter with
    | Some di when Block.Iter.valid di -> ()
    | Some _ | None ->
        Block.Iter.next it.index_iter;
        if Block.Iter.valid it.index_iter then begin
          it.seq_blocks <- it.seq_blocks + 1;
          maybe_readahead it;
          load_data_block it;
          (match it.data_iter with
          | Some di -> Block.Iter.seek_to_first di
          | None -> ());
          skip_exhausted it
        end
        else it.data_iter <- None

  let seek_to_first it =
    try
      it.seq_blocks <- 0;
      Block.Iter.seek_to_first it.index_iter;
      load_data_block it;
      (match it.data_iter with
      | Some di -> Block.Iter.seek_to_first di
      | None -> ());
      skip_exhausted it
    with Block.Corrupt m -> raise (Corrupt m)

  let seek it target =
    (* Index keys are the last key of each block, so the first index entry
       >= target points at the only block that can contain it. *)
    try
      it.seq_blocks <- 0;
      Block.Iter.seek it.index_iter target;
      load_data_block it;
      (match it.data_iter with
      | Some di -> Block.Iter.seek di target
      | None -> ());
      skip_exhausted it
    with Block.Corrupt m -> raise (Corrupt m)

  let valid it =
    match it.data_iter with Some di -> Block.Iter.valid di | None -> false

  let key it =
    match it.data_iter with
    | Some di -> Block.Iter.key di
    | None -> invalid_arg "Table.Iter.key: invalid iterator"

  let value it =
    match it.data_iter with
    | Some di -> Block.Iter.value di
    | None -> invalid_arg "Table.Iter.value: invalid iterator"

  let next it =
    match it.data_iter with
    | Some di -> (
        try
          Block.Iter.next di;
          skip_exhausted it
        with Block.Corrupt m -> raise (Corrupt m))
    | None -> ()
end

(* Fold over the in-memory index: [f last_key handle acc] per data block. *)
let fold_index f t acc =
  let it = Block.Iter.make t.index in
  let rec go acc =
    if Block.Iter.valid it then begin
      let acc = f (Block.Iter.key it) (index_handle it) acc in
      Block.Iter.next it;
      go acc
    end
    else acc
  in
  try
    Block.Iter.seek_to_first it;
    go acc
  with Block.Corrupt m -> raise (Corrupt m)

let index_anchors t =
  List.rev (fold_index (fun k h acc -> (k, h.Block_handle.size) :: acc) t [])

let pair_of_entry key data ~pos ~len = (key, String.sub data pos len)

let entry_of di f =
  if Block.Iter.valid di then Some (Block.Iter.with_entry di f) else None

(* The entries >= probe of the indexed block, else the first entry of a
   later block: what [Iter.seek] lands on, without building the
   two-level iterator. *)
let rec first_ge_from t index_it probe =
  if not (Block.Iter.valid index_it) then None
  else begin
    let di = Block.Iter.make (load_block t (index_handle index_it)) in
    Block.Iter.seek di probe;
    if Block.Iter.valid di then entry_of di pair_of_entry
    else begin
      Block.Iter.next index_it;
      first_ge_from t index_it probe
    end
  end

let find_first_ge t probe =
  let index_it = Block.Iter.make t.index in
  try
    Block.Iter.seek index_it probe;
    first_ge_from t index_it probe
  with Block.Corrupt m -> raise (Corrupt m)

let last_entry_of t index_it f =
  let di = Block.Iter.make (load_block t (index_handle index_it)) in
  Block.Iter.seek_last di;
  entry_of di f

let find_last_le_with t probe f =
  let index_it = Block.Iter.make t.index in
  try
    (* The first block whose last key >= probe is the only one that can
       hold entries in (prev_block.last, probe]; if it holds nothing <=
       probe, the answer is the last entry of the latest block entirely
       <= probe. *)
    Block.Iter.seek index_it probe;
    if Block.Iter.valid index_it then begin
      let di = Block.Iter.make (load_block t (index_handle index_it)) in
      Block.Iter.seek_le di probe;
      if Block.Iter.valid di then entry_of di f
      else begin
        (* Every entry of that block is > probe: fall back to the preceding
           block, i.e. the greatest index key <= probe. *)
        Block.Iter.seek_le index_it probe;
        if Block.Iter.valid index_it then last_entry_of t index_it f else None
      end
    end
    else begin
      (* probe is past every block: answer is the last entry of the table. *)
      Block.Iter.seek_last index_it;
      if Block.Iter.valid index_it then last_entry_of t index_it f else None
    end
  with Block.Corrupt m -> raise (Corrupt m)

let find_last_le t probe = find_last_le_with t probe pair_of_entry

let fold f t acc =
  let it = Iter.make t in
  Iter.seek_to_first it;
  let rec go acc =
    if Iter.valid it then begin
      let k = Iter.key it and v = Iter.value it in
      Iter.next it;
      go (f k v acc)
    end
    else acc
  in
  go acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

(* Re-read and re-decode the auxiliary blocks (index, bloom filter,
   properties) straight from disk. The in-memory copies were validated
   once at [open_file]; this catches rot that happened on the media since
   — the cache and the eager copies are deliberately bypassed. *)
let verify_aux_blocks t =
  try
    ignore
      (Block.parse t.cmp (read_block_raw t.file t.footer.Table_format.index_handle));
    ignore (Bloom.decode (read_block_raw t.file t.footer.Table_format.filter_handle));
    ignore
      (Table_format.decode_properties
         (read_block_raw t.file t.footer.Table_format.props_handle));
    Ok ()
  with
  | Corrupt m -> Error m
  | Block.Corrupt m -> Error ("index block: " ^ m)
  | Invalid_argument m -> Error ("filter block: " ^ m)
  | Varint.Corrupt m -> Error ("properties block: " ^ m)

(* Data-block handles in index (= key) order, straight from the in-memory
   index. *)
let data_block_handles t =
  Array.of_list (List.rev (fold_index (fun _ h acc -> h :: acc) t []))

type scrub_progress = { blocks_checked : int; next_block : int option }

let scrub ?(from_block = 0) ?max_blocks t =
  let handles = data_block_handles t in
  let n = Array.length handles in
  let from_block = max 0 from_block in
  let budget =
    match max_blocks with None -> max 1 (n + 3) | Some b -> max 1 b
  in
  try
    let checked = ref 0 in
    (* A pass starting at block 0 also re-verifies the footer-addressed
       auxiliary blocks (counted as three blocks against the budget). *)
    (if from_block = 0 then
       match verify_aux_blocks t with
       | Ok () -> checked := !checked + 3
       | Error m -> raise (Corrupt m));
    let i = ref from_block in
    while !i < n && !checked < budget do
      ignore (read_block t.file t.cmp handles.(!i));
      incr checked;
      incr i
    done;
    Ok
      {
        blocks_checked = !checked;
        next_block = (if !i >= n then None else Some !i);
      }
  with
  | Corrupt m -> Error m
  | Block.Corrupt m -> Error m

let verify t =
  let cmp = t.cmp.Comparator.compare in
  match
    match verify_aux_blocks t with
    | Error _ as e -> e
    | Ok () ->
        fold
          (fun k _ state ->
            match state with
            | Error _ as e -> e
            | Ok (count, prev) -> (
                match prev with
                | Some p when cmp p k >= 0 ->
                    Error (Printf.sprintf "key order violation after %S" p)
                | Some _ | None -> Ok (count + 1, Some k)))
          t
          (Ok (0, None))
  with
  | exception Corrupt msg -> Error msg
  | Error _ as e -> e
  | Ok (count, last) ->
      if count <> t.props.Table_format.num_entries then
        Error
          (Printf.sprintf "entry count %d does not match properties %d" count
             t.props.Table_format.num_entries)
      else if count > 0 && Some t.props.Table_format.largest <> last then
        Error "largest key does not match properties"
      else Ok count
