open Clsm_util

type t = { offset : int; size : int }

let encode buf t =
  Varint.write buf t.offset;
  Varint.write buf t.size

let decode s ~pos =
  let offset, pos = Varint.read s ~pos in
  let size, pos = Varint.read s ~pos in
  ({ offset; size }, pos)

let decode_sub s ~pos ~len =
  let cursor = ref pos in
  let offset = Varint.read_at s ~limit:(pos + len) cursor in
  let size = Varint.read_at s ~limit:(pos + len) cursor in
  { offset; size }

let max_encoded_length = 2 * Varint.max_length
