open Clsm_util

type t = { user_key : string; ts : int }

let ts_size = 8
let max_ts = max_int

let make user_key ts =
  let n = String.length user_key in
  let b = Bytes.create (n + ts_size) in
  Bytes.blit_string user_key 0 b 0 n;
  Binary.put_fixed64 b ~pos:n ts;
  Bytes.unsafe_to_string b

let encode { user_key; ts } = make user_key ts

let check s =
  if String.length s < ts_size then invalid_arg "Internal_key: too short"

let decode s =
  check s;
  let n = String.length s - ts_size in
  { user_key = String.sub s 0 n; ts = Binary.get_fixed64 s ~pos:n }

let probe user_key = make user_key max_ts

let user_key_of s =
  check s;
  String.sub s 0 (String.length s - ts_size)

let ts_of s =
  check s;
  Binary.get_fixed64 s ~pos:(String.length s - ts_size)

let compare a b =
  let c = String.compare a.user_key b.user_key in
  if c <> 0 then c else Int.compare a.ts b.ts

(* Order the encoded keys [a.[pa, pa+la)] and [b.[pb, pb+lb)] (both at least
   [ts_size] long): user-key bytes, then user-key length, then timestamp.
   Everything is a plain argument, so no closure is built per call. *)
let compare_ranges a pa la b pb lb =
  let ua = la - ts_size and ub = lb - ts_size in
  let c = Binary.compare_bytes a ~pos_a:pa b ~pos_b:pb ~len:(min ua ub) in
  if c <> 0 then c
  else if ua <> ub then Int.compare ua ub
  else
    Int.compare
      (Binary.get_fixed64 a ~pos:(pa + ua))
      (Binary.get_fixed64 b ~pos:(pb + ub))

let compare_encoded a b =
  let la = String.length a and lb = String.length b in
  if la < ts_size || lb < ts_size then invalid_arg "Internal_key.compare_encoded";
  compare_ranges a 0 la b 0 lb

let compare_sub a ~pos ~len b =
  let lb = String.length b in
  if pos < 0 || len < ts_size || pos > String.length a - len || lb < ts_size then
    invalid_arg "Internal_key.compare_sub";
  compare_ranges a pos len b 0 lb

let compare_user_key ik user_key =
  check ik;
  let n = String.length ik - ts_size and lu = String.length user_key in
  let c = Binary.compare_bytes ik ~pos_a:0 user_key ~pos_b:0 ~len:(min n lu) in
  if c <> 0 then c else Int.compare n lu

let comparator =
  {
    Clsm_sstable.Comparator.name = "clsm-internal-key";
    compare = compare_encoded;
    compare_sub;
  }
