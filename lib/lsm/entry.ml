type t = Value of string | Tombstone

let encode = function Value v -> "\000" ^ v | Tombstone -> "\001"

let decode_sub s ~pos ~len =
  if len < 1 then invalid_arg "Entry.decode: empty";
  match s.[pos] with
  | '\000' -> Value (String.sub s (pos + 1) (len - 1))
  | '\001' -> Tombstone
  | _ -> invalid_arg "Entry.decode: unknown tag"

let decode s = decode_sub s ~pos:0 ~len:(String.length s)

let is_tombstone = function Tombstone -> true | Value _ -> false
let to_option = function Value v -> Some v | Tombstone -> None
