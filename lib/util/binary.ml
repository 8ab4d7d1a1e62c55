let write_fixed32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let write_fixed64 buf v =
  write_fixed32 buf (v land 0xffffffff);
  write_fixed32 buf ((v lsr 32) land 0xffffffff)

let get_fixed32 s ~pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let get_fixed64 s ~pos =
  let lo = get_fixed32 s ~pos in
  let hi = get_fixed32 s ~pos:(pos + 4) in
  if hi land 0x80000000 <> 0 then failwith "Binary.get_fixed64: overflow";
  lo lor (hi lsl 32)

let put_fixed32 b ~pos v =
  Bytes.set b pos (Char.chr (v land 0xff));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (pos + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (pos + 3) (Char.chr ((v lsr 24) land 0xff))

let put_fixed64 b ~pos v =
  put_fixed32 b ~pos (v land 0xffffffff);
  put_fixed32 b ~pos:(pos + 4) ((v lsr 32) land 0xffffffff)

let rec compare_from a pa b pb i n =
  if i = n then 0
  else
    let ca = String.unsafe_get a (pa + i) and cb = String.unsafe_get b (pb + i) in
    if Char.equal ca cb then compare_from a pa b pb (i + 1) n
    else if ca < cb then -1
    else 1

let compare_bytes a ~pos_a b ~pos_b ~len =
  if
    len < 0 || pos_a < 0 || pos_b < 0
    || pos_a > String.length a - len
    || pos_b > String.length b - len
  then invalid_arg "Binary.compare_bytes";
  compare_from a pos_a b pos_b 0 len
