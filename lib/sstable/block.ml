open Clsm_util

exception Corrupt of string

type t = {
  data : string; (* the block is [data.[0 .. size)]; bytes past it are ignored *)
  size : int;
  limit : int; (* end of entry region / start of restart array *)
  num_restarts : int;
  cmp : Comparator.t;
}

let parse ?len cmp data =
  let n =
    match len with
    | None -> String.length data
    | Some n ->
        if n < 0 || n > String.length data then invalid_arg "Block.parse";
        n
  in
  if n < 4 then raise (Corrupt "block too small");
  let num_restarts = Binary.get_fixed32 data ~pos:(n - 4) in
  let trailer = 4 + (4 * num_restarts) in
  if num_restarts < 1 || trailer > n then raise (Corrupt "bad restart count");
  { data; size = n; limit = n - trailer; num_restarts; cmp }

let num_restarts t = t.num_restarts
let size_bytes t = t.size

let restart_offset t i =
  Binary.get_fixed32 t.data ~pos:(t.size - 4 - (4 * (t.num_restarts - i)))

(* Every malformed varint inside a block is a corrupt block. *)
let varint b cursor =
  try Varint.read_at b.data ~limit:b.size cursor
  with Varint.Corrupt m -> raise (Corrupt m)

module Iter = struct
  (* The current key lives in [key_buf.[0 .. key_len)], rebuilt in place
     from the shared prefix of its predecessor: stepping and seeking
     allocate nothing, and a key string is built only when {!key} asks. *)
  type iter = {
    block : t;
    cursor : int ref; (* varint read position *)
    mutable key_buf : Bytes.t;
    mutable key_len : int;
    mutable key_string : string; (* [key]'s copy, meaningful iff [key_fresh] *)
    mutable key_fresh : bool;
    mutable offset : int; (* start of current entry, or limit when done *)
    mutable next_offset : int;
    mutable cur_value_pos : int;
    mutable cur_value_len : int;
    mutable is_valid : bool;
  }

  let initial_key_capacity = 64

  let make block =
    {
      block;
      cursor = ref 0;
      key_buf = Bytes.create initial_key_capacity;
      key_len = 0;
      key_string = "";
      key_fresh = false;
      offset = block.limit;
      next_offset = block.limit;
      cur_value_pos = 0;
      cur_value_len = 0;
      is_valid = false;
    }

  let valid it = it.is_valid

  let key it =
    if not it.is_valid then invalid_arg "Block.Iter.key: invalid iterator";
    if not it.key_fresh then begin
      it.key_string <- Bytes.sub_string it.key_buf 0 it.key_len;
      it.key_fresh <- true
    end;
    it.key_string

  let value it =
    if not it.is_valid then invalid_arg "Block.Iter.value: invalid iterator";
    String.sub it.block.data it.cur_value_pos it.cur_value_len

  let with_value it f =
    if not it.is_valid then invalid_arg "Block.Iter.with_value: invalid iterator";
    f it.block.data ~pos:it.cur_value_pos ~len:it.cur_value_len

  let with_entry it f =
    f (key it) it.block.data ~pos:it.cur_value_pos ~len:it.cur_value_len

  (* Order of the current key against [target], compared in place. *)
  let compare_key it target =
    it.block.cmp.Comparator.compare_sub
      (Bytes.unsafe_to_string it.key_buf)
      ~pos:0 ~len:it.key_len target

  (* Decode the entry at [it.next_offset]; its shared prefix is the head of
     the current key, so only the suffix is copied. *)
  let decode_next it =
    let b = it.block in
    if it.next_offset >= b.limit then it.is_valid <- false
    else begin
      let cursor = it.cursor in
      cursor := it.next_offset;
      let shared = varint b cursor in
      let non_shared = varint b cursor in
      let value_len = varint b cursor in
      let pos = !cursor in
      if non_shared > b.limit - pos || value_len > b.limit - pos - non_shared
      then raise (Corrupt "entry overruns block");
      if shared > it.key_len then
        raise (Corrupt "shared prefix longer than previous key");
      let len = shared + non_shared in
      if len > Bytes.length it.key_buf then begin
        let grown = Bytes.create (max len (2 * Bytes.length it.key_buf)) in
        Bytes.blit it.key_buf 0 grown 0 shared;
        it.key_buf <- grown
      end;
      Bytes.blit_string b.data pos it.key_buf shared non_shared;
      it.key_len <- len;
      it.key_fresh <- false;
      it.cur_value_pos <- pos + non_shared;
      it.cur_value_len <- value_len;
      it.offset <- it.next_offset;
      it.next_offset <- it.cur_value_pos + value_len;
      it.is_valid <- true
    end

  let seek_to_restart it i =
    it.next_offset <- restart_offset it.block i;
    it.key_len <- 0;
    it.is_valid <- false

  let seek_to_first it =
    seek_to_restart it 0;
    decode_next it

  let next it = if it.is_valid then decode_next it

  (* Order of the key at restart point [i] (always stored in full) against
     [target], compared in place. *)
  let compare_restart_key it i target =
    let b = it.block in
    let cursor = it.cursor in
    cursor := restart_offset b i;
    if varint b cursor <> 0 then raise (Corrupt "restart entry has shared bytes");
    let non_shared = varint b cursor in
    let _value_len = varint b cursor in
    let pos = !cursor in
    if non_shared > b.limit - pos then raise (Corrupt "restart key overruns block");
    b.cmp.Comparator.compare_sub b.data ~pos ~len:non_shared target

  (* Greatest restart point whose key compares below [bound] against
     [target] ([bound] 0: key < target; 1: key <= target), or 0 if none. *)
  let search_restarts it target ~bound =
    let lo = ref 0 and hi = ref (it.block.num_restarts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if compare_restart_key it mid target < bound then lo := mid
      else hi := mid - 1
    done;
    !lo

  let seek it target =
    seek_to_restart it (search_restarts it target ~bound:0);
    decode_next it;
    while it.is_valid && compare_key it target < 0 do
      decode_next it
    done

  let seek_le it target =
    if compare_restart_key it 0 target > 0 then it.is_valid <- false
    else begin
      let restart = search_restarts it target ~bound:1 in
      seek_to_restart it restart;
      decode_next it;
      (* Scan past the last entry <= target, then re-decode up to it from
         the restart point: the key buffer holds one key at a time. *)
      let last = ref (-1) in
      while it.is_valid && compare_key it target <= 0 do
        last := it.offset;
        decode_next it
      done;
      if !last < 0 then it.is_valid <- false
      else begin
        seek_to_restart it restart;
        decode_next it;
        while it.offset < !last do
          decode_next it
        done
      end
    end

  let seek_last it =
    seek_to_restart it (it.block.num_restarts - 1);
    decode_next it;
    while it.is_valid && it.next_offset < it.block.limit do
      decode_next it
    done

  let fold f block acc =
    let it = make block in
    seek_to_first it;
    let rec go acc =
      if it.is_valid then begin
        let k = key it and v = value it in
        next it;
        go (f k v acc)
      end
      else acc
    in
    go acc
end
