(* Table-driven CRC-32C, reflected polynomial 0x82F63B78, eight bytes per
   step ("slicing-by-8"). [tables.(k * 256 + b)] is the CRC update of byte
   [b] followed by [k] zero bytes, so one step folds eight bytes with
   eight independent lookups instead of eight dependent ones. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0x82F63B78 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let tab k b = Array.unsafe_get tables ((k lsl 8) lor b)
let word32 s i = Int32.to_int (String.get_int32_le s i) land 0xffffffff

let sub ?(init = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32c.sub";
  let crc = ref ((init lxor 0xffffffff) land 0xffffffff) and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !crc lxor word32 s !i and hi = word32 s (!i + 4) in
    crc :=
      tab 7 (lo land 0xff)
      lxor tab 6 ((lo lsr 8) land 0xff)
      lxor tab 5 ((lo lsr 16) land 0xff)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (hi land 0xff)
      lxor tab 2 ((hi lsr 8) land 0xff)
      lxor tab 1 ((hi lsr 16) land 0xff)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc := tab 0 ((!crc lxor Char.code (String.unsafe_get s !i)) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xffffffff

let string ?init s = sub ?init s ~pos:0 ~len:(String.length s)

let mask_delta = 0xa282ead8

let mask crc =
  let rotated = ((crc lsr 15) lor (crc lsl 17)) land 0xffffffff in
  (rotated + mask_delta) land 0xffffffff

let unmask masked =
  let rotated = (masked - mask_delta) land 0xffffffff in
  ((rotated lsr 17) lor (rotated lsl 15)) land 0xffffffff
