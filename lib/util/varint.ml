exception Corrupt of string

(* Every loop below is a top-level recursion over plain arguments: no
   closure is built per call. *)

let max_length = 9

let check_non_negative v =
  if v < 0 then invalid_arg "Varint: negative value"

let rec length_from n v = if v < 0x80 then n else length_from (n + 1) (v lsr 7)

let encoded_length v =
  check_non_negative v;
  length_from 1 v

let rec write_from buf v =
  if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (v land 0x7f lor 0x80));
    write_from buf (v lsr 7)
  end

let write buf v =
  check_non_negative v;
  write_from buf v

let rec put_from b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (v land 0x7f lor 0x80));
    put_from b (pos + 1) (v lsr 7)
  end

let put b ~pos v =
  check_non_negative v;
  put_from b pos v

let rec read_loop s limit cursor pos shift acc count =
  if count > max_length then raise (Corrupt "varint too long");
  if pos >= limit then raise (Corrupt "varint truncated");
  let byte = Char.code (String.unsafe_get s pos) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then begin
    if acc < 0 then raise (Corrupt "varint overflow");
    cursor := pos + 1;
    acc
  end
  else read_loop s limit cursor (pos + 1) (shift + 7) acc (count + 1)

let read_at s ~limit cursor =
  let pos = !cursor in
  if pos < 0 || limit > String.length s then invalid_arg "Varint.read_at";
  read_loop s limit cursor pos 0 0 1

let read s ~pos =
  let cursor = ref pos in
  let v = read_at s ~limit:(String.length s) cursor in
  (v, !cursor)
