type t = {
  name : string;
  compare : string -> string -> int;
  compare_sub : string -> pos:int -> len:int -> string -> int;
}

let bytewise_compare_sub a ~pos ~len b =
  if pos < 0 || len < 0 || pos > String.length a - len then
    invalid_arg "Comparator.compare_sub";
  let lb = String.length b in
  let c = Clsm_util.Binary.compare_bytes a ~pos_a:pos b ~pos_b:0 ~len:(min len lb) in
  if c <> 0 then c else Int.compare len lb

let bytewise =
  { name = "bytewise"; compare = String.compare; compare_sub = bytewise_compare_sub }
